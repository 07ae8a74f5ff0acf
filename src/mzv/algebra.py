"""Linear combinations of nested-sum products; the stuffle and the shuffle.

Values live in the free Q-module on formal products zeta(c1)*...*zeta(cr) of
compositions.  Nothing here is numeric: a coefficient is whatever exact
arithmetic made it, an int or (once something divided) a Fraction, never a
float.  Divergent compositions are carried along as formal symbols (a
combination is "regularized" while it still contains one).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .compositions import (Composition, as_composition, composition,
                           composition_from_json, sort_key)

# One bound for the caches holding an entry per word or diagram state:
# numerics' _half_word_scale, _half_word_value and _midpoint_sum, diagrams'
# canonical_key and the shuffle's _branch_suffixes.  A verify stream touches
# a few thousand (word, dps) pairs, and a miss costs well under a millisecond.
CACHE_SIZE = 1 << 13


# Terms of one quasi-shuffle: `derive permutation` of 2^7 with 2^7 (D(7, 7) =
# 48,639 terms) takes under half a second on a Xeon core, of 2^8 with 2^8
# (265,729) about 2.5 s; no test, pin or bench input needs more than 1683.
MAX_STUFFLE_TERMS = 1 << 16


# The quasi-shuffle of two operands depends on their part counts alone, so
# each (m, n) pair is turned into index getters once and every stuffle with
# those counts only picks parts.  256 entries hold every pair of positive
# depths summing to at most 22, far more than a permutation system of up to
# 9 symbols or a stuffle of total weight 11 asks for.  The getters of a pair
# grow exponentially with m + n, so the bound keeps a long-lived process from
# holding every large template it asked for.
@functools.lru_cache(maxsize=256)
def stuffle_template(m: int, n: int):
    """The quasi-shuffle of m left parts with n right parts, as one getter
    per term, from Hoffman's recursion u*v = u1 (u'*v) + v1 (u*v') +
    (u1 v1)(u'*v') on the positions of u and v.

    The getters index one tuple of parts: the m left parts, the n right
    parts, then left part i merged with right part j at m + n + i*n + j.
    Each returns the term's tuple of parts; a one-part term takes a slice,
    since ``itemgetter`` of a single index returns the part itself.  No
    term repeats here: a multiplicity in a stuffle comes from equal parts
    in the operands.  The terms come in blocks of a = 0, 1, ... merged
    parts, each in lexicographic order of its indices; the a = 0 block, the
    first comb(m + n, m) getters, is the shuffle product, and its getters
    take only the m left and n right parts.  The count of terms, the
    Delannoy number D(m, n) = sum_k C(m, k) C(n, k) 2^k, is checked against
    MAX_STUFFLE_TERMS before any is built.
    """
    count = sum(math.comb(m, k) * math.comb(n, k) << k
                for k in range(min(m, n) + 1))
    if count > MAX_STUFFLE_TERMS:
        raise ValueError("the quasi-shuffle of %d parts with %d parts has %d "
                         "terms, above the limit %d"
                         % (m, n, count, MAX_STUFFLE_TERMS))

    def terms(i, j):
        if i == m or j == n:
            return [(*range(i, m), *range(m + j, m + n))]
        return [(head, *tail)
                for head, rest in ((i, (i + 1, j)), (m + j, (i, j + 1)),
                                   (m + n + i * n + j, (i + 1, j + 1)))
                for tail in terms(*rest)]

    return tuple(operator.itemgetter(*t) if len(t) > 1
                 else operator.itemgetter(slice(t[0], t[0] + 1))
                 for t in sorted(terms(0, 0), key=lambda t: (-len(t), t)))


@dataclass(frozen=True)
class ProductTerm:
    """coefficient * zeta(f1) * ... * zeta(fr), factors kept sorted.

    The coefficient is exact (int or Fraction) and is stored as given.
    """

    coefficient: int | Fraction
    factors: tuple[Composition, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    @property
    def weight(self) -> int:
        return sum(f.weight for f in self.factors)

    def scaled(self, q) -> "ProductTerm":
        return ProductTerm(self.coefficient * q, self.factors)

    def __str__(self):
        if not self.factors:
            return str(self.coefficient)
        body = "·".join(f.zeta_str() for f in self.factors)
        return "%s·%s" % (self.coefficient, body)


def _admissible(f) -> bool:
    """Composition.admissible of the factor whose sort_key is f."""
    return f[2][0] >= 2 or f[3][0] == -1


def _add(acc: dict, items, q=1) -> dict:
    """Add q times each (term key, coefficient) pair into acc."""
    if q != 1:
        items = ((k, q * v) for k, v in items)
    for k, v in items:
        acc[k] = acc[k] + v if k in acc else v
    return acc


class ZetaCombination:
    """A finite Q-linear combination of product terms, always normal: one
    dict maps each term key, the sorted sort_keys of the term's factors, to
    its nonzero coefficient (Hoffman: a finite map from words to
    coefficients).  Sorted keys are the canonical term order.  ProductTerms
    and Compositions are built only for ``terms``, ``compositions`` and
    ``str``; ``to_json`` writes each term from its key."""

    def __init__(self, terms=()):
        self._coeffs = _of(_add({}, ((tuple(f.sort_key for f in t.factors),
                                      t.coefficient) for t in terms)))._coeffs

    @functools.cached_property
    def terms(self) -> tuple:
        """The ProductTerms in canonical order, built once."""
        return tuple(ProductTerm(self._coeffs[k], tuple(
            Composition(f[2], f[3]) for f in k)) for k in sorted(self._coeffs))

    @property
    def regularized(self) -> bool:
        """True while some factor is a divergent (leading-1) composition."""
        return not all(_admissible(f) for k in self._coeffs for f in k)

    @property
    def weight(self):
        """Common weight of all terms, or None if empty/inhomogeneous."""
        ws = {sum(f[0] for f in k) for k in self._coeffs}
        return ws.pop() if len(ws) == 1 else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def compositions(self):
        """The distinct factor compositions appearing in the combination."""
        return [Composition(f[2], f[3]) for f in dict.fromkeys(
            f for k in sorted(self._coeffs) for f in k)]

    def __eq__(self, other):
        return isinstance(other, ZetaCombination) and (
            self._coeffs == other._coeffs)

    def __add__(self, other):
        return _of(_add(dict(self._coeffs), other._coeffs.items()))

    def __sub__(self, other):
        return _of(_add(dict(self._coeffs), other._coeffs.items(), -1))

    def __neg__(self):
        return _of({k: -v for k, v in self._coeffs.items()})

    def scaled(self, q) -> "ZetaCombination":
        q = Fraction(q)
        return _of({k: v * q for k, v in self._coeffs.items()} if q else {})

    def __mul__(self, other):
        """Formal product: juxtaposition of zeta factors, no shuffling."""
        return _of(_add({}, ((tuple(sorted(a + b)), u * v)
                             for a, u in self._coeffs.items()
                             for b, v in other._coeffs.items())))

    def __str__(self):
        if not self._coeffs:
            return "0"
        return "  +  ".join(str(t) for t in self.terms).replace("+  -", "-  ")

    def __repr__(self):
        return "ZetaCombination(terms=%r)" % (self.terms,)

    def to_json(self):
        return [{"coefficient": "%s/%s" % (v.numerator, v.denominator),
                 "factors": [list(map(operator.mul, f[2], f[3])) for f in k]}
                for k, v in sorted(self._coeffs.items())]


def _of(acc: dict) -> ZetaCombination:
    """The combination of a {term key: coefficient} dict, zeros dropped."""
    comb = object.__new__(ZetaCombination)
    comb._coeffs = {k: v for k, v in acc.items() if v}
    return comb


def normalize(comb: ZetaCombination) -> ZetaCombination:
    """The combination itself: a combination is always normal."""
    return comb


def zeta(*parts) -> ZetaCombination:
    """Convenience: the combination with the single term 1*zeta(parts)."""
    c = (parts[0] if len(parts) == 1 and isinstance(parts[0], Composition)
         else composition(*parts))
    return _of({(c.sort_key,): 1})


def one(coefficient=1) -> ZetaCombination:
    """The constant term (empty product of zeta factors).

    An int coefficient stays an int; anything else (a Fraction, or a string
    such as "1/3") is read as a Fraction.
    """
    return _of({(): coefficient if isinstance(coefficient, int)
                else Fraction(coefficient)})


def stuffle(left: Composition, right: Composition) -> ZetaCombination:
    """Quasi-shuffle product of two nested sums.

    Splits the double summation domain by the interleaving order of the two
    index chains; a tie merges two slots, adding exponents and multiplying
    signs.
    """
    return _of(_stuffle(left.sort_key, right.sort_key))


def _stuffle(left, right) -> dict:
    """stuffle on sort_keys, as a {term key: multiplicity} dict."""
    parts = (*left[2], *right[2], *(p + q for p in left[2] for q in right[2]))
    signs = (*left[3], *right[3], *(s * t for s in left[3] for t in right[3]))
    return _add({}, (((sort_key(take(parts), take(signs)),), 1)
                     for take in stuffle_template(left[1], right[1])))


def combination_from_json(obj) -> ZetaCombination:
    acc = {}
    for t in obj:
        try:
            num, _, den = t["coefficient"].partition("/")
            coeff = Fraction(int(num), int(den or 1))
        except (AttributeError, ValueError, ZeroDivisionError):
            raise TypeError("expected a coefficient p or p/q in integers, "
                            "q nonzero, got %r" % t["coefficient"]) from None
        _add(acc, ((tuple(sorted(composition_from_json(f).sort_key
                                 for f in t["factors"])), coeff),))
    return _of(acc)


# The branch recursion nests one call per branch part; beyond this many parts
# it would run into Python's recursion limit.
MAX_BRANCH_PARTS = 256

# Terms of one state of the branch recursion: the shuffle of 2^7 with 2^7
# makes 8192 in under half a second on a Xeon core, and each part more on
# both sides quadruples them; no test, pin or bench input makes more than 255.
MAX_BRANCH_TERMS = 1 << 14


def _integration_exits(x, z):
    """Iterated partial integration of exponents x and z against a raised edge.

    Each step raises the edge by one unit taken from x, or from z with a minus
    sign, until one of them runs out (z, if both start at zero).  Returns the
    exits where z ran out, then those where x did, as (units left, units
    raised, paths); a path to an exit is signed (-1) ** (units taken from z).
    Callers: _branch_suffixes and diagrams._rightward_terms.
    """
    if z == 0:
        return ((x, 0, 1),), ()
    if x == 0:
        return (), ((z, 0, 1),)
    return (tuple((r, x + z - r, math.comb(x + z - r - 1, z - 1))
                  for r in range(1, x + 1)),
            tuple((s, x + z - s, math.comb(x + z - s - 1, x - 1))
                  for s in range(1, z + 1)))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _branch_suffixes(B, C):
    """Expansion of the double-branch state whose trunk ends in a zero label.

    The state equals sum coeff * zeta(trunk . suffix) over the returned
    (suffix, coefficient) pairs; the recursion integrates the trunk end by
    parts against both branch heads and pushes the resulting zero label up
    the branch whose head ran out.  A part is k*b, b = +-1 its word letter;
    the new part takes the letter of the head that ran out.
    """
    if len(B) + len(C) > MAX_BRANCH_PARTS:
        raise ValueError("the branch recursion takes at most %d parts, got %d"
                         % (MAX_BRANCH_PARTS, len(B) + len(C)))
    items = {}
    exits = _integration_exits(abs(B[0]), abs(C[0]))
    for (X, Y), side in zip(((B, C), (C, B)), exits):
        x, y = (1 if X[0] > 0 else -1), (1 if Y[0] > 0 else -1)
        for nu, head, coeff in side:
            X2 = (x * nu,) + X[1:]
            tails = _branch_suffixes(Y[1:], X2) if len(Y) > 1 else ((X2, 1),)
            for suf, c2 in tails:
                key = (y * head,) + suf
                items[key] = items.get(key, 0) + coeff * c2
            if len(items) > MAX_BRANCH_TERMS:
                raise ValueError("the branch recursion makes more than %d "
                                 "terms in one state" % MAX_BRANCH_TERMS)
    return tuple(sorted(items.items()))


def shuffle(left, right) -> ZetaCombination:
    """Shuffle product of two nested sums read by as_composition: the
    quasi-shuffle of their to_word words with no merge (Hoffman 1997)."""
    return _of(_shuffle(*(as_composition(c).sort_key for c in (left, right))))


def _shuffle(left, right) -> dict:
    """shuffle on sort_keys, as a {term key: coefficient} dict.  Signed parts
    enter the recursion as k_i * b_i, b_i = sigma_1...sigma_i the letter
    ending its run in to_word; a suffix of such parts p_i leaves signed
    sigma_i = sgn(p_i) * sgn(p_(i-1))."""
    signed = -1 in left[3] + right[3]
    L, R = (tuple(map(operator.mul, f[2], itertools.accumulate(
        f[3], operator.mul))) if signed else f[2] for f in (left, right))
    return {(sort_key(tuple(map(abs, suf)), tuple(
        1 if p * q > 0 else -1 for q, p in zip((1,) + suf, suf)))
        if signed else sort_key(suf),): c
        for suf, c in _branch_suffixes(L, R) if c}


# --- divergence elimination -------------------------------------------------
#
# Stuffle regularization (Ihara, Kaneko and Zagier 2006; Hoffman 1997): a
# divergent zeta(1^m, v), v admissible or empty, is a polynomial in the symbol
# T = zeta(1) with convergent coefficients, fixed by
#   stuffle((1), (1^(m-1), v)) = m zeta(1^m, v) + terms with fewer leading 1s,
# read as T * zeta(1^(m-1), v).  A combination's value is its T^0 coefficient.


class EliminationError(ValueError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


_T = (1, 1, (1,), (1,))  # the sort_key of T = zeta(1)


# The recursion keeps 2,593, 5,716 and 12,326 entries at weights 12, 13 and
# 14: at 1 << 12 it thrashed, taking 113 s for zeta(1^9,3,2) instead of 11 s.
@functools.lru_cache(maxsize=1 << 14)
def _stuffle_regularized(f) -> ZetaCombination:
    """zeta of the factor with sort_key f as a combination whose factors are
    admissible or T = zeta(1)."""
    if _admissible(f) or f == _T:
        return _of({(f,): 1})
    rest = (f[0] - 1, f[1] - 1, f[2][1:], f[3][1:])
    acc = dict((_of({(_T,): 1}) * _stuffle_regularized(rest))._coeffs)
    others = _stuffle(_T, rest)
    m = others.pop((f,))
    for (g,), n in others.items():
        _add(acc, _stuffle_regularized(g)._coeffs.items(), -n)
    return _of(acc).scaled(Fraction(1, m)) if m > 1 else _of(acc)


def eliminate_divergent(comb: ZetaCombination) -> ZetaCombination:
    """The T^0 coefficient of the stuffle regularization of ``comb``; fail if
    a higher power of T = zeta(1) survives.  Terms whose factors are all
    admissible pass unchanged."""
    acc = {}
    for k, v in comb._coeffs.items():
        _add(acc, ((k, v),) if all(map(_admissible, k)) else functools.reduce(
            operator.mul, map(_stuffle_regularized, k), one(v))._coeffs.items())
    bad = _of({k: v for k, v in acc.items() if _T in k})
    if not bad.is_zero():
        # the residual keeps every term; the message names the first eight
        terms = bad.terms
        shown = "; ".join(str(t) for t in terms[:8])
        if len(terms) > 8:
            shown += "; … (%d terms in all)" % len(terms)
        raise EliminationError(
            "divergent terms survive elimination: %s" % shown, residual=bad)
    return _of(acc)
