"""Rank analysis of the permutation-identity system, by exact elimination.

Nested sums over l formal exponents satisfy one quasi-shuffle relation for
every ordered split of the exponent tuple.  The unknowns of the system are
the l! (distinct) permutations of the full-length sum; products and the
lower-length sums produced by merging exponents are known quantities and sit
in right-hand-side columns.  Rank therefore means: rank of the coefficient
matrix over the unknown columns alone.  There the row of a split (u, v) is
minus the shuffle product of u and v, so ``permutation_rank`` counts shuffle
terms and never builds the right-hand side, which only basis reduction needs.

Rows hold ints, as ``algebra``'s coefficients do until something divides.
One exact elimination serves every rank and basis reduction.  It is
fraction-free: each row is integer numerators over one common denominator,
kept coprime by a gcd rather than by Bareiss's exact division (Math. Comp.
22, 1968), and Fractions are made only for what ``row_reduce`` returns.
Basis reduction takes its reduced rows; every rank, through ``_rank``, the
row echelon form of the rows normalized to coprime integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ProductTerm, ZetaCombination, stuffle_template
from .compositions import composition


# The rank --length 6 system: the largest that any test or workload ranks.
MAX_UNKNOWNS = 720
# Splits run over all 2^l subsets: ten symbols take seconds at one unknown.
MAX_SYMBOLS = 9


def check_system_size(symbols):
    """Refuse a permutation system with more than MAX_SYMBOLS symbols or
    more than MAX_UNKNOWNS unknowns.

    The count l! / prod m_i! comes from the symbol multiplicities, so an
    oversized system is refused before any row is built.
    """
    if len(symbols) > MAX_SYMBOLS:
        raise ValueError("permutation system has %d symbols, above the limit %d"
                         % (len(symbols), MAX_SYMBOLS))
    n = math.factorial(len(symbols))
    for m in Counter(symbols).values():
        n //= math.factorial(m)
    if n > MAX_UNKNOWNS:
        raise ValueError("permutation system has %d unknowns, above the limit %d"
                         % (n, MAX_UNKNOWNS))


def generic_symbols(l: int):
    if not 1 <= l <= MAX_SYMBOLS:
        raise ValueError("supported symbol counts are 1..%d" % MAX_SYMBOLS)
    return tuple("abcdefghi"[:l])


def zeta_column(comp):
    """Column key for a single nested sum; comp is a tuple of parts, each
    part a sorted tuple of symbol names."""
    return ("z", tuple(tuple(p) for p in comp))


def product_column(comps):
    """Column key for a product of two or more nested sums (unordered)."""
    return ("p", tuple(sorted(tuple(tuple(p) for p in c) for c in comps)))


def symbolic_stuffle(left, right):
    """Quasi-shuffle of two symbolic compositions; returns comp -> count,
    in the order each comp first appears.

    A merged part is the sorted multiset union of its two parts.
    """
    parts = (*left, *right,
             *(tuple(sorted(x + y)) for x in left for y in right))
    return Counter([take(parts)
                    for take in stuffle_template(len(left), len(right))])


def _distinct_permutations(items):
    """The distinct permutations of items, in lexicographic order."""
    a = sorted(items)
    while True:
        yield tuple(a)
        # next permutation: raise the last ascent, reverse the tail after it
        i = len(a) - 2
        while i >= 0 and not a[i] < a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while not a[i] < a[j]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def ordered_splits(symbols):
    """All pairs of nonempty ordered tuples partitioning the symbol multiset.

    Masks run in increasing order; a mask yields its sides' distinct
    permutations in lexicographic order, unless a smaller mask took the same
    left sub-multiset and with it the same pairs.
    """
    n = len(symbols)
    taken = set()
    for mask in range(1, 2 ** n - 1):
        left = tuple(sorted(symbols[i] for i in range(n) if mask >> i & 1))
        if left in taken:
            continue
        taken.add(left)
        right = tuple(symbols[i] for i in range(n) if not mask >> i & 1)
        rights = list(_distinct_permutations(right))
        for u in _distinct_permutations(left):
            for v in rights:
                yield u, v


def _split_row(u, v):
    u_comp = tuple((s,) for s in u)
    v_comp = tuple((s,) for s in v)
    row = {product_column((u_comp, v_comp)): 1}
    for comp, count in symbolic_stuffle(u_comp, v_comp).items():
        # the parts are tuples already: this is zeta_column(comp)
        row["z", comp] = -count
    return row


@dataclass
class ExactMatrix:
    """Sparse rows of exact rationals (int or Fraction) by hashable column.

    ``unknowns``, when set, names the columns the system is solved for;
    everything else is a right-hand-side column and is ignored by rank().
    """

    rows: list
    row_labels: list
    unknowns: tuple = None

    @property
    def columns(self):
        return sorted(set().union(*self.rows))

    @property
    def rhs_columns(self):
        if self.unknowns is None:
            return []
        known = set(self.unknowns)
        return [c for c in self.columns if c not in known]

    def rank(self) -> int:
        """Rank over Q on the unknown columns (all columns if unset)."""
        columns = self.columns if self.unknowns is None else self.unknowns
        return _rank(self.rows, {c: i for i, c in enumerate(columns)})


def _integer_row(row):
    """(integer numerators, their common denominator) of a row; a row of
    ints is returned as it is, over 1."""
    if all(type(v) is int for v in row.values()):
        return row, 1
    den = math.lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator)
            for c, v in row.items()}, den


def _rank(rows, index):
    """Rank over Q of rows {column: int or Fraction} on the columns that
    ``index`` maps to positions 0, 1, ...  Each row is restricted to them
    and scaled to coprime integers, a row that repeats an earlier one is
    dropped, and the pivots of a row echelon form are counted."""
    distinct = {}
    for r in rows:
        r = _integer_row({index[c]: v for c, v in r.items()
                          if c in index and v})[0]
        g = math.gcd(*r.values())
        if g > 1:
            r = {c: v // g for c, v in r.items()}
        if r:
            distinct.setdefault((tuple(r), tuple(r.values())), r)
    return len(_eliminate(list(distinct.values()), range(len(index)),
                          reduced=False)[0])


def row_reduce(rows, columns):
    """Gauss-Jordan elimination over Q of sparse rows {column: nonzero entry}.

    Columns are pivoted in the order given.  Each takes the shortest remaining
    row that holds it (the first one on ties), scaled so the pivot entry is 1,
    and is then cleared from every other row, earlier pivot rows included; a
    column that no remaining row holds gets no pivot.  Returns ({column: pivot
    row}, the rows left without a pivot).  Entries go in as ints or Fractions
    and come out as Fractions; the input rows are not mutated.
    """
    pivots, rest = _eliminate(rows, columns)

    # Equal entries share one Fraction: they are few (mostly small integers)
    # and making a Fraction costs far more than looking one up.
    made = {}

    def fractions(row):
        r, den = row
        share = made.setdefault(den, {})
        return {c: share.get(v) or share.setdefault(v, Fraction(v, den))
                for c, v in r.items()}

    return ({col: fractions(p) for col, p in pivots.items()},
            [fractions(r) for r in rest])


def _eliminate(rows, columns, reduced=True):
    """row_reduce's elimination, each row held as [integer numerators, one
    positive common denominator], the two without a common factor.

    Returns ({column: pivot row}, rest) in that form.  With ``reduced``
    false the pivot rows are left as they are taken, which gives the row
    echelon form: the pivot columns and the rest are the same either way,
    and a rank needs no more.

    Clearing a column scales a row only by the part of the pivot's
    denominator that its own entry does not cancel, so rows and pivots of
    integers stay integers throughout.  The arithmetic is exact, so every
    entry and every zero is that of elimination over Fractions, and so is
    each row's key order: an entry that stays keeps its place, one that
    cancels is removed and one that fills in is appended in the pivot row's
    order.  An index from each column still to pivot to the rows that hold
    it lets each column visit only those rows.  A pivot row stays in the
    index; with ``reduced`` false it is no longer updated, and skipped.
    """
    work = [[dict(r), den] for r, den in map(_integer_row, rows)]
    index = {c: set() for c in columns}
    for i, (r, _) in enumerate(work):
        for c in r:
            if c in index:
                index[c].add(i)
    rest = set(range(len(work)))
    pivots = {}
    for col in list(index):
        holding = index.pop(col)
        free = [i for i in holding if i in rest]
        if not free:
            continue
        # the shortest row, the first of equally short ones
        p = min(free, key=lambda i: (len(work[i][0]), i))
        rest.remove(p)
        piv = work[p][0]
        # piv / piv[col], over the positive denominator |piv[col]| / g
        g = math.gcd(*piv.values())
        if piv[col] < 0:
            g = -g
        if g != 1:
            piv = {c: v // g for c, v in piv.items()}
        pden = piv[col]
        work[p] = pivots[col] = [piv, pden]
        entries = [(c, v, index.get(c)) for c, v in piv.items()]
        for i in holding if reduced else free:
            if i == p:
                continue
            row = work[i]
            r, den = row
            # r - (f / den) * piv: the numerators scaled by pden / g, less
            # (f / g) * piv, over den * pden / g
            f = r[col]
            g = math.gcd(f, pden)
            scale, f = pden // g, f // g
            if scale != 1:
                for c in r:
                    r[c] *= scale
                den *= scale
            get = r.get
            for c, v, held in entries:
                old = get(c)
                if old is None:             # a fill-in
                    r[c] = -f * v
                    if held is not None:
                        held.add(i)
                    continue
                old -= f * v
                if old:
                    r[c] = old
                else:                       # a cancellation
                    del r[c]
                    if held is not None:
                        held.discard(i)
            if den != 1:
                g = math.gcd(den, *r.values())
                if g != 1:
                    for c in r:
                        r[c] //= g
                    den //= g
                row[1] = den
    return pivots, [work[i] for i in sorted(rest)]


def permutation_unknowns(symbols):
    """Columns for the distinct permutations of the full symbol tuple."""
    return tuple(zeta_column(tuple((s,) for s in p))
                 for p in _distinct_permutations(symbols))


def assemble_permutation_system(symbols) -> ExactMatrix:
    """One row per ordered split: the product column minus its quasi-shuffle
    expansion.  Repeated symbol names yield the degenerate (collapsed)
    system.

    The quasi-shuffle commutes and the product column is unordered, so the
    row of (v, u) is a copy of the row of (u, v), built once per pair.
    """
    symbols = tuple(symbols)
    rows = []
    labels = []
    built = {}
    for u, v in ordered_splits(symbols):
        twin = built.get((v, u))
        row = _split_row(u, v) if twin is None else dict(twin)
        built[(u, v)] = row
        rows.append(row)
        labels.append((u, v))
    return ExactMatrix(rows, labels, unknowns=permutation_unknowns(symbols))


def permutation_rank(symbols) -> int:
    """Rank of the permutation system, without its right-hand side: on the
    unknowns a split's row is minus the shuffle product of its sides, since
    every term with a merged part is shorter.  Row (v, u) repeats (u, v)."""
    check_system_size(symbols)
    symbols = tuple(symbols)
    index = {p: i for i, p in enumerate(_distinct_permutations(symbols))}
    rows = []
    built = set()
    for u, v in ordered_splits(symbols):
        if (v, u) in built:
            continue
        built.add((u, v))
        uv = u + v
        shuffle = stuffle_template(len(u), len(v))[:math.comb(len(uv), len(u))]
        counts = Counter(index[take(uv)] for take in shuffle)
        rows.append({i: -count for i, count in counts.items()})
    return _rank(rows, {i: i for i in range(len(index))})


def permutation_system_size(symbols):
    """(rows, columns) of assemble_permutation_system(symbols), counted: a
    row per ordered split (u, v), a product column per pair {u, v} and a
    column per sequence of sorted parts of one or two symbols that uses the
    symbols up.  Each such sequence is in some row if there is one: u takes
    its 1-parts and the first symbols of its 2-parts, v the second symbols;
    a permutation is in the shuffle of its first symbol with the rest.
    """
    splits = list(ordered_splits(symbols))
    if not splits:
        return 0, 0

    @functools.cache
    def sequences(rest):
        firsts = {p for k in (1, 2) for p in itertools.combinations(rest, k)}
        return sum(sequences(tuple((Counter(rest) - Counter(p)).elements()))
                   for p in firsts) if rest else 1

    products = len({frozenset(split) for split in splits})
    return len(splits), products + sequences(tuple(sorted(symbols)))


@dataclass
class BasisReduction:
    """Every full-length permutation sum expressed over the fixed-lead basis.

    ``expressions`` maps a non-basis permutation comp to {column: coeff};
    the permutation sum equals that combination of basis and rhs columns.
    """

    symbols: tuple
    rank: int
    basis: tuple
    expressions: dict


def reduce_to_basis(l: int) -> BasisReduction:
    """Solve the permutation system for the non-basis permutation columns.

    The basis is the (l-1)! permutations starting with the first symbol.
    Fails if some non-basis column admits no pivot or if leftover rows still
    touch unknown columns (either would refute the rank count l! - (l-1)!).
    """
    symbols = generic_symbols(l)
    check_system_size(symbols)
    mat = assemble_permutation_system(symbols)
    unknown_set = set(mat.unknowns)
    pivot_cols = [c for c in mat.unknowns if c[1][0] != (symbols[0],)]
    basis = tuple(c[1] for c in mat.unknowns if c[1][0] == (symbols[0],))

    # row (v, u) repeats row (u, v); a repeated row only ever reduces to zero
    distinct = {(tuple(r), tuple(r.values())): r for r in mat.rows}
    pivots, rest = row_reduce(list(distinct.values()), pivot_cols)
    for col in pivot_cols:
        if col not in pivots:
            raise ArithmeticError("no pivot row for column %s" % (col,))
    leftovers = [r for r in rest if unknown_set.intersection(r)]
    if leftovers:
        raise ArithmeticError(
            "%d rows relate basis unknowns to each other" % len(leftovers))

    expressions = {}
    for col, piv in pivots.items():
        comp = col[1]
        expressions[comp] = {c: -v for c, v in piv.items() if c != col}
    return BasisReduction(symbols, len(pivots), tuple(basis), expressions)


def instantiate_column(col, assignment) -> ProductTerm:
    """Turn a symbolic column into a concrete product term.

    ``assignment`` maps each symbol name to a positive integer exponent;
    merged parts become the sum of their entries.
    """
    kind, payload = col
    comps = [payload] if kind == "z" else list(payload)
    factors = tuple(
        composition(*(sum(assignment[s] for s in part) for part in comp))
        for comp in comps)
    return ProductTerm(1, factors)


def instantiate_expression(comp, expression, assignment) -> ZetaCombination:
    """The combination (permutation sum) - (its basis expression), which
    should be zero, at concrete exponent values."""
    terms = [instantiate_column(zeta_column(comp), assignment)]
    terms += [instantiate_column(col, assignment).scaled(-coeff)
              for col, coeff in expression.items()]
    return ZetaCombination(terms)

