"""Linear combinations of nested-sum products and the quasi-shuffle product.

Values live in the free Q-module on formal products zeta(c1)*...*zeta(cr) of
compositions.  Nothing here is numeric: a coefficient is whatever exact
arithmetic made it, an int or (once something divided) a Fraction, never a
float.  Divergent compositions are carried along as formal symbols (a
combination is "regularized" while it still contains one).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .compositions import Composition, composition, composition_from_json

LEFT = frozenset({1})
RIGHT = frozenset({2})
BOTH = frozenset({1, 2})

# One bound for the caches holding an entry per word or diagram state:
# numerics' _half_word_scale, _half_word_value and _midpoint_sum, and
# diagrams' canonical_key and _branch_suffixes.  A verify stream touches a
# few thousand (word, dps) pairs, and a miss costs well under a millisecond.
CACHE_SIZE = 1 << 13

# An interleaving pattern is a tuple over {LEFT, RIGHT, BOTH}: the slots of the
# merged composition, each tagged with the operand(s) contributing to it.


def interleavings(a1: int, a2: int, a12: int):
    """All patterns with a1 left-only, a2 right-only and a12 merged slots."""
    if min(a1, a2, a12) < 0:
        raise ValueError("slot counts must be >= 0")
    n = a1 + a2 + a12
    out = set()
    for left_pos in itertools.combinations(range(n), a1):
        rest = [i for i in range(n) if i not in left_pos]
        for right_pos in itertools.combinations(rest, a2):
            slots = [BOTH] * n
            for i in left_pos:
                slots[i] = LEFT
            for i in right_pos:
                slots[i] = RIGHT
            out.add(tuple(slots))
    # The set's own order, which every caller's output order follows.
    return tuple(out)


# The quasi-shuffle of two operands depends on their part counts alone, so
# each (m, n) pair is turned into index getters once and every stuffle with
# those counts only picks parts; interleavings, called only from here, builds
# each pattern set once per pair.  256 entries hold every pair of positive
# depths summing to at most 22, far more than a permutation system of up to
# 9 symbols or a stuffle of total weight 11 asks for.  The getters of a pair
# grow exponentially with m + n, so the bound keeps a long-lived process from
# holding every large template it asked for.
@functools.lru_cache(maxsize=256)
def stuffle_template(m: int, n: int):
    """The quasi-shuffle of m left parts with n right parts, as one getter
    per term in the order of ``interleavings``.

    The getters index one tuple of parts: the m left parts, the n right
    parts, then left part i merged with right part j at m + n + i*n + j.
    Each returns the term's tuple of parts; a one-part term takes a slice,
    since ``itemgetter`` of a single index returns the part itself.  A
    pattern is recovered from its indices, so no term repeats here: a
    multiplicity in a stuffle comes from equal parts in the operands.  The
    terms come in blocks of a = 0, 1, ... merged parts; the a = 0 block, the
    first comb(m + n, m) getters, is the shuffle product, and its getters
    take only the m left and n right parts.
    """
    template = []
    for a in range(min(m, n) + 1):
        for pattern in interleavings(m - a, n - a, a):
            i = j = 0
            slots = []
            for slot in pattern:
                if slot == LEFT:
                    slots.append(i)
                    i += 1
                elif slot == RIGHT:
                    slots.append(m + j)
                    j += 1
                else:
                    slots.append(m + n + i * n + j)
                    i += 1
                    j += 1
            if len(slots) == 1:
                slots = [slice(slots[0], slots[0] + 1)]
            template.append(operator.itemgetter(*slots))
    return tuple(template)


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

    @property
    def factor_key(self):
        return tuple(f.sort_key for f in self.factors)

    def scaled(self, q) -> "ProductTerm":
        return ProductTerm(self.coefficient * q, self.factors)

    def __str__(self):
        if not self.factors:
            return str(self.coefficient)
        body = "·".join(f.zeta_str() for f in self.factors)
        return "%s·%s" % (self.coefficient, body)

    def to_json(self):
        return {
            "coefficient": "%s/%s" % (
                self.coefficient.numerator, self.coefficient.denominator),
            "factors": [f.to_json() for f in self.factors],
        }


@dataclass(frozen=True)
class ZetaCombination:
    """A finite Q-linear combination of product terms."""

    terms: tuple[ProductTerm, ...] = ()

    @property
    def regularized(self) -> bool:
        """True while some factor is a divergent (leading-1) composition."""
        return any(
            not f.admissible for t in self.terms for f in t.factors
        )

    @property
    def weight(self):
        """Common weight of all terms, or None if empty/inhomogeneous."""
        ws = {t.weight for t in self.terms}
        return ws.pop() if len(ws) == 1 else None

    def is_zero(self) -> bool:
        return not normalize(self).terms

    def compositions(self):
        """The distinct factor compositions appearing in the combination."""
        seen = {}
        for t in self.terms:
            for f in t.factors:
                seen[f] = None
        return list(seen)

    def __add__(self, other):
        return normalize(ZetaCombination(self.terms + other.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ZetaCombination(tuple(t.scaled(-1) for t in self.terms))

    def scaled(self, q) -> "ZetaCombination":
        q = Fraction(q)
        if q == 0:
            return ZetaCombination()
        return normalize(ZetaCombination(tuple(t.scaled(q) for t in self.terms)))

    def __mul__(self, other):
        """Formal product: juxtaposition of zeta factors, no shuffling."""
        out = []
        for a in self.terms:
            for b in other.terms:
                out.append(
                    ProductTerm(a.coefficient * b.coefficient, a.factors + b.factors)
                )
        return normalize(ZetaCombination(tuple(out)))

    def __str__(self):
        if not self.terms:
            return "0"
        return "  +  ".join(str(t) for t in self.terms).replace("+  -", "-  ")

    def to_json(self):
        return [t.to_json() for t in self.terms]


def normalize(comb: ZetaCombination) -> ZetaCombination:
    """Merge terms with equal factor multisets, drop zeros, sort canonically."""
    acc = {}
    reps = {}
    for t in comb.terms:
        k = t.factor_key
        acc[k] = acc.get(k, 0) + t.coefficient
        reps.setdefault(k, t.factors)
    keys = sorted(k for k, c in acc.items() if c != 0)
    return ZetaCombination(tuple(ProductTerm(acc[k], reps[k]) for k in keys))


def zeta(*parts) -> ZetaCombination:
    """Convenience: the combination with the single term 1*zeta(parts)."""
    if len(parts) == 1 and isinstance(parts[0], Composition):
        c = parts[0]
    else:
        c = composition(*parts)
    return ZetaCombination((ProductTerm(1, (c,)),))


def one(coefficient=1) -> ZetaCombination:
    """The constant term (empty product of zeta factors).

    An int coefficient stays an int; anything else (a Fraction, or a string
    such as "1/3") is read as a Fraction.
    """
    if not isinstance(coefficient, int):
        coefficient = Fraction(coefficient)
    return ZetaCombination((ProductTerm(coefficient, ()),))


def stuffle(left: Composition, right: Composition) -> ZetaCombination:
    """Quasi-shuffle product of two nested sums.

    Splits the double summation domain by the interleaving order of the two
    index chains; a tie merges two slots, adding exponents and multiplying
    signs.
    """
    lparts = [(p, left.sign(i)) for i, p in enumerate(left.parts)]
    rparts = [(p, right.sign(i)) for i, p in enumerate(right.parts)]
    parts = (*lparts, *rparts,
             *((p + q, s * t) for p, s in lparts for q, t in rparts))
    out = []
    for take in stuffle_template(left.depth, right.depth):
        merged = take(parts)
        c = Composition(tuple(p for p, _ in merged),
                        tuple(s for _, s in merged))
        out.append(ProductTerm(1, (c,)))
    return normalize(ZetaCombination(tuple(out)))


def combination_from_json(obj) -> ZetaCombination:
    terms = []
    for t in obj:
        num, _, den = t["coefficient"].partition("/")
        coeff = Fraction(int(num), int(den or 1))
        factors = tuple(composition_from_json(f) for f in t["factors"])
        terms.append(ProductTerm(coeff, factors))
    return ZetaCombination(tuple(terms))


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


_T = Composition((1,))


# The recursion visits every composition of the weight of c and below: 1023
# divergent ones up to weight 11, which a smaller bound would thrash on.
@functools.lru_cache(maxsize=1 << 12)
def _stuffle_regularized(c: Composition) -> ZetaCombination:
    """zeta(c) as a combination whose factors are admissible or T = zeta(1)."""
    if c.admissible or c == _T:
        return zeta(c)
    rest = Composition(c.parts[1:], c.signs and c.signs[1:])
    out = list((zeta(_T) * _stuffle_regularized(rest)).terms)
    for t in stuffle(_T, rest).terms:
        if t.factors == (c,):
            m = t.coefficient
        else:
            out.extend(u.scaled(-t.coefficient)
                       for u in _stuffle_regularized(t.factors[0]).terms)
    if m > 1:
        out = [t.scaled(Fraction(1, m)) for t in out]
    return normalize(ZetaCombination(tuple(out)))


def eliminate_divergent(comb: ZetaCombination) -> ZetaCombination:
    """The T^0 coefficient of the stuffle regularization of ``comb``; fail if
    a higher power of T = zeta(1) survives.  Terms whose factors are all
    admissible pass unchanged."""
    out = []
    for t in comb.terms:
        if all(f.admissible for f in t.factors):
            out.append(t)
        else:
            out.extend(functools.reduce(operator.mul, map(
                _stuffle_regularized, t.factors), one(t.coefficient)).terms)
    comb = normalize(ZetaCombination(tuple(out)))
    bad = [t for t in comb.terms if _T in t.factors]
    if bad:
        raise EliminationError(
            "divergent terms survive elimination: %s"
            % "; ".join(str(t) for t in bad),
            residual=ZetaCombination(tuple(bad)))
    return comb
