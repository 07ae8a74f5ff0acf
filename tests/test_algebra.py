import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (all_compositions, brute_combination, brute_mzv,
                      brute_mzv_exact, brute_quasi_shuffle, brute_shuffle)
from mzv import (
    EliminationError,
    algebra,
    composition,
    eliminate_divergent,
    normalize,
    one,
    stuffle,
    zeta,
)
from mzv.algebra import (CACHE_SIZE, ProductTerm, ZetaCombination,
                         _integration_exits, shuffle, stuffle_template)
from mzv.compositions import Composition
from mzv.linalg import (
    _split_row,
    ordered_splits,
    product_column,
    symbolic_stuffle,
    zeta_column,
)


def test_zeta_constructor():
    z = zeta(2, 1)
    assert len(z.terms) == 1
    assert z.terms[0].coefficient == 1
    assert z.terms[0].factors == (composition(2, 1),)
    assert zeta(composition(3)) == zeta(3)
    assert z.weight == 3
    assert not z.regularized


def test_combination_arithmetic():
    a = zeta(2, 1)
    assert normalize(a + a) == a.scaled(2)
    assert normalize(a - a).is_zero()
    assert normalize(a.scaled(Fraction(1, 2)) + a.scaled(Fraction(1, 2))) == a
    assert (-a).terms[0].coefficient == -1
    assert one(5).terms[0].factors == ()
    # a coefficient handed in by a caller becomes a Fraction, never a float
    third = one("1/3").terms[0].coefficient
    assert type(third) is Fraction and third == Fraction(1, 3)
    half = zeta(2, 1).scaled(0.5).terms[0].coefficient
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(one().terms[0].coefficient) is int


def test_product_is_formal_juxtaposition():
    p = zeta(2) * zeta(3)
    assert len(p.terms) == 1
    assert p.terms[0].factors == (composition(2), composition(3))
    # factors are kept in canonical order regardless of operand order
    q = zeta(3) * zeta(2)
    assert normalize(p - q).is_zero()


def test_stuffle_depth_one():
    got = stuffle(composition(2), composition(3))
    want = normalize(zeta(5) + zeta(2, 3) + zeta(3, 2))
    assert got == want


def test_stuffle_depth_two_expansion():
    got = stuffle(composition(2), composition(2, 1))
    want = normalize(
        zeta(2, 2, 1).scaled(2) + zeta(2, 1, 2) + zeta(4, 1) + zeta(2, 3))
    assert got == want


def test_stuffle_exact_reordering():
    # product of truncated sums equals the truncated stuffle expansion
    # exactly: the reordering is a bijection on index tuples
    left, right = composition(2), composition(2, 1)
    prod = brute_mzv_exact(left, 25) * brute_mzv_exact(right, 25)
    expanded = sum(
        t.coefficient * brute_mzv_exact(t.factors[0], 25)
        for t in stuffle(left, right).terms)
    assert prod == expanded


@pytest.mark.parametrize("left,right", [
    ((2,), (3,)),
    ((2, 1), (2,)),
    ((2,), (2, 1, 1)),
    ((2, -1), (3,)),
    ((-2, 1), (-3,)),
])
def test_stuffle_numeric_gate(left, right):
    lc, rc = composition(*left), composition(*right)
    residual = brute_mzv(lc, 200) * brute_mzv(rc, 200) - brute_combination(
        stuffle(lc, rc), 200)
    assert abs(residual) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stuffle_commutes_and_adds_weight(data):
    parts = st.lists(st.integers(1, 4), min_size=1, max_size=3)
    lc = composition(*data.draw(parts))
    rc = composition(*data.draw(parts))
    ab = stuffle(lc, rc)
    assert ab == stuffle(rc, lc)
    for t in ab.terms:
        assert t.weight == lc.weight + rc.weight


def test_regularized_flag():
    assert zeta(1, 2).regularized
    assert zeta(1).regularized
    assert not zeta(2, 1).regularized
    assert (zeta(2) + zeta(1, 2)).regularized


def test_eliminate_divergent():
    # zeta(1)*zeta(2) - zeta(1,2) is finite and equals zeta(3) + zeta(2,1)
    comb = normalize(zeta(composition(1)) * zeta(composition(2)) - zeta(1, 2))
    got = eliminate_divergent(comb)
    assert got == normalize(zeta(3) + zeta(2, 1))
    assert not got.regularized


def test_eliminate_divergent_leaves_finite_input_alone():
    comb = normalize(zeta(3) + zeta(2, 1).scaled(2))
    assert eliminate_divergent(comb) == comb


def test_eliminate_divergent_raises_on_true_divergence():
    with pytest.raises(EliminationError):
        eliminate_divergent(zeta(1, 2))
    err = None
    try:
        eliminate_divergent(zeta(composition(1)) * zeta(composition(2)))
    except EliminationError as exc:
        err = exc
    assert err is not None and err.residual is not None


def test_eliminate_divergent_refuses_divergent_partner():
    # zeta(1,2) = T zeta(2) - zeta(3) - zeta(2,1) with T = zeta(1), so the
    # product leaves T^2 and T^1 terms and no T^0 term
    comb = zeta(composition(1)) * zeta(1, 2)
    with pytest.raises(EliminationError) as info:
        eliminate_divergent(comb)
    assert str(info.value) == (
        "divergent terms survive elimination: "
        "1·ζ(1)·ζ(1)·ζ(2); -1·ζ(1)·ζ(3); -1·ζ(1)·ζ(2,1)")
    t = zeta(composition(1))
    assert info.value.residual == normalize(
        t * t * zeta(2) - t * zeta(3) - t * zeta(2, 1))


def test_eliminate_divergent_carries_spectators():
    # the T zeta(2) zeta(3) terms cancel; zeta(2) rides along
    comb = (zeta(composition(1)) * zeta(2) * zeta(3)
            - zeta(2) * zeta(1, 3))
    assert eliminate_divergent(comb) == normalize(
        zeta(2) * zeta(4) + zeta(2) * zeta(3, 1))


def test_eliminate_divergent_reports_surviving_divergent_terms():
    z1 = zeta(composition(1))
    with pytest.raises(EliminationError) as info:
        eliminate_divergent(z1 * z1 * zeta(2) - z1 * zeta(1, 2))
    assert str(info.value) == (
        "divergent terms survive elimination: 1·ζ(1)·ζ(3); 1·ζ(1)·ζ(2,1)")
    assert info.value.residual == normalize(
        z1 * zeta(3) + z1 * zeta(2, 1))


def test_eliminate_divergent_names_at_most_eight_terms():
    # zeta(1^6,3) leaves 81 terms with a power of T: the message names the
    # first eight and the count, and the residual keeps all of them
    with pytest.raises(EliminationError) as info:
        eliminate_divergent(zeta(1, 1, 1, 1, 1, 1, 3))
    terms = info.value.residual.terms
    assert len(terms) == 81
    assert str(info.value) == (
        "divergent terms survive elimination: %s; … (81 terms in all)"
        % "; ".join(str(t) for t in terms[:8]))
    assert len(str(info.value).encode()) < 1024


def test_eliminate_divergent_keeps_the_stuffle_constant_term():
    # zeta(1,1) = (T^2 - zeta(2)) / 2 and zeta(1,3) = T zeta(3) - zeta(4)
    # - zeta(3,1); leading ones with signs follow the same recursion
    z1 = zeta(composition(1))
    assert eliminate_divergent(zeta(1, 1).scaled(2) - z1 * z1) == (
        normalize(zeta(2).scaled(-1)))
    assert eliminate_divergent(zeta(1, 3) - z1 * zeta(3)) == normalize(
        zeta(4).scaled(-1) - zeta(3, 1))
    assert eliminate_divergent(zeta(1, -2) - z1 * zeta(-2)) == normalize(
        zeta(-3).scaled(-1) - zeta(-2, 1))


def test_stuffle_regularization_cache_holds_weight_13():
    # cold, zeta(1^8,3,2) keeps 5,716 entries: a bound below that evicts
    # entries the recursion needs again, and the time grows by a large factor
    algebra._stuffle_regularized.cache_clear()
    algebra._stuffle_regularized(Composition((1,) * 8 + (3, 2)).sort_key)
    info = algebra._stuffle_regularized.cache_info()
    assert info.currsize == 5716 < info.maxsize


def test_json_round_trip():
    from mzv import combination_from_json
    comb = normalize(zeta(2, 1).scaled(Fraction(3, 2)) - zeta(2) * zeta(3))
    assert combination_from_json(comb.to_json()) == comb


@pytest.mark.parametrize("m, n", itertools.product(range(1, 6), repeat=2))
def test_stuffle_template_is_the_quasi_shuffle_in_blocks(m, n):
    # each getter's index tuple: left part i, right part m + j, merged
    # m + n + i*n + j
    indices = tuple(range(m + n + m * n))
    got = [take(indices) for take in stuffle_template(m, n)]
    assert Counter(got) == brute_quasi_shuffle(
        indices[:m], indices[m:m + n], lambda i, mj: m + n + i * n + mj - m)
    merges = [m + n - len(t) for t in got]
    assert merges == sorted(merges)
    for a in range(min(m, n) + 1):
        block = [t for t in got if len(t) == m + n - a]
        assert len(set(block)) == len(block) == math.factorial(m + n - a) // (
            math.factorial(m - a) * math.factorial(n - a) * math.factorial(a))
        assert block == sorted(block)


def test_symbolic_stuffle_matches_the_recursive_definition():
    for u, v in ordered_splits(("a", "b", "c", "d")):
        u_comp = tuple((s,) for s in u)
        v_comp = tuple((s,) for s in v)
        assert symbolic_stuffle(u_comp, v_comp) == dict(
            brute_quasi_shuffle(u_comp, v_comp))


def _reference_symbolic_stuffle(left, right):
    # the recursion walks the terms in the lexicographic order of their
    # index tuples, and equal terms have equal length, so a stable sort by
    # merge count puts each term where the template first gives it
    return dict(sorted(brute_quasi_shuffle(left, right).items(),
                       key=lambda item: -len(item[0])))


def _reference_split_row(u, v):
    u_comp = tuple((s,) for s in u)
    v_comp = tuple((s,) for s in v)
    row = {product_column((u_comp, v_comp)): Fraction(1)}
    for comp, count in _reference_symbolic_stuffle(u_comp, v_comp).items():
        row[zeta_column(comp)] = Fraction(-count)
    return row


@pytest.mark.parametrize("symbols", ["abcdef", "abcdee", "aabbcd", "aaabbc"])
def test_split_rows_match_the_merge_parts_reference(symbols):
    # every split, items in order: the row's key order is the system's
    for u, v in ordered_splits(tuple(symbols)):
        u_comp = tuple((s,) for s in u)
        v_comp = tuple((s,) for s in v)
        assert list(symbolic_stuffle(u_comp, v_comp).items()) == list(
            _reference_symbolic_stuffle(u_comp, v_comp).items())
        row = _split_row(u, v)
        assert list(row.items()) == list(_reference_split_row(u, v).items())
        assert all(type(x) is int for x in row.values())


@pytest.mark.parametrize("left, right", [
    ((("a", "b"), ("c",)), (("a",),)),
    ((("a",),), (("a", "b"), ("c",))),
    ((("b", "c"),), (("a", "b"), ("a",), ("c", "d"))),
    ((("a", "b"), ("a", "b")), (("a", "b"), ("b",))),
    ((("a",), ("b",), ("c",)), (("a", "b", "c"),)),
    ((), (("a",), ("b",))),
    ((("a",),), ()),
])
def test_symbolic_stuffle_of_multi_symbol_parts(left, right):
    assert list(symbolic_stuffle(left, right).items()) == list(
        _reference_symbolic_stuffle(left, right).items())


def _reference_stuffle(left, right):
    def signed(c):
        return tuple((p, c.sign(i)) for i, p in enumerate(c.parts))

    merged = brute_quasi_shuffle(signed(left), signed(right),
                                 lambda x, y: (x[0] + y[0], x[1] * y[1]))
    return normalize(ZetaCombination(tuple(
        ProductTerm(count, (Composition(tuple(p for p, _ in comp),
                                        tuple(s for _, s in comp)),))
        for comp, count in merged.items())))


signed_compositions = st.lists(
    st.integers(1, 4).flatmap(lambda k: st.sampled_from((k, -k))),
    min_size=1, max_size=4).map(lambda parts: composition(*parts))


@settings(max_examples=150, deadline=None)
@given(signed_compositions, signed_compositions)
def test_stuffle_matches_the_merge_parts_reference(left, right):
    got = stuffle(left, right)
    want = _reference_stuffle(left, right)
    assert got.terms == want.terms
    assert [type(t.coefficient) for t in got.terms] == [
        type(t.coefficient) for t in want.terms]


def test_stuffle_template_is_built_once_per_part_count_pair():
    template = stuffle_template(3, 2)
    assert stuffle_template(3, 2) is template
    assert len(template) == 25  # the Delannoy number D(3, 2)
    # a one-part term is still a tuple of parts
    assert stuffle_template(1, 1)[-1](("x", "y", "xy")) == ("xy",)


# --- the shuffle product ----------------------------------------------------

def test_shuffle_is_the_word_shuffle():
    comps = all_compositions(8)
    pairs = [(u, v) for u in comps for v in comps if sum(u) + sum(v) <= 8]
    assert len(pairs) == 769
    signed = conftest.signed_compositions(6)
    signed_pairs = [(u, v) for u in signed for v in signed
                    if min(u + v) < 0 and sum(map(abs, u + v)) <= 6]
    assert len(signed_pairs) == 2059
    for u, v in pairs + signed_pairs:
        assert shuffle(u, v) == brute_shuffle(u, v), (u, v)


@pytest.mark.parametrize("left, right", [
    ((2,), (2,) + (1,) * 255),
    (composition(-2), (2,) + (-1,) * 255),
])
def test_branch_recursion_refuses_more_than_256_parts(left, right):
    t0 = time.monotonic()
    with pytest.raises(ValueError) as exc:
        shuffle(left, right)
    assert time.monotonic() - t0 < 0.5
    assert str(exc.value) == (
        "the branch recursion takes at most 256 parts, got 257")


def test_branch_recursion_cache_takes_the_shared_bound():
    assert algebra._branch_suffixes.cache_info().maxsize == CACHE_SIZE


def walk_end_states(x, z):
    """The per-path partial-integration walk the rightward sweep once ran.

    Each path moves one unit from x, or with a minus sign from z, onto the
    raised edge y until one of them runs out (z, if both start at zero);
    returns the signed number of paths reaching each end state.
    """
    ends = Counter()
    stack = [(1, x, 0, z)]
    while stack:
        cf, x, y, z = stack.pop()
        if z == 0:
            ends["z spent", x, y] += cf
        elif x == 0:
            ends["x spent", z, y] += cf
        else:
            stack.append((cf, x - 1, y + 1, z))
            stack.append((-cf, x, y + 1, z - 1))
    return ends


def test_integration_exits_sum_the_walk():
    for x in range(9):
        for z in range(9):
            spent_z, spent_x = _integration_exits(x, z)
            exits = {("z spent", r, moved): (-1) ** z * n
                     for r, moved, n in spent_z}
            exits.update({("x spent", s, moved): (-1) ** (z - s) * n
                          for s, moved, n in spent_x})
            assert len(exits) == len(spent_z) + len(spent_x)
            assert exits == walk_end_states(x, z), (x, z)


# --- the combination against the sorting normalize it replaced --------------

def reference_normalize(terms):
    """Merge terms with equal factor multisets, drop zeros, sort: the
    normalize that rebuilt a tuple of ProductTerms after every operation."""
    acc = {}
    reps = {}
    for t in terms:
        k = tuple(f.sort_key for f in t.factors)
        acc[k] = acc.get(k, 0) + t.coefficient
        reps.setdefault(k, t.factors)
    keys = sorted(k for k, c in acc.items() if c != 0)
    return tuple(ProductTerm(acc[k], reps[k]) for k in keys)


def reference_json(terms):
    return [{"coefficient": "%s/%s" % (t.coefficient.numerator,
                                       t.coefficient.denominator),
             "factors": [f.to_json() for f in t.factors]} for t in terms]


def reference_str(terms):
    if not terms:
        return "0"
    return "  +  ".join(str(t) for t in terms).replace("+  -", "-  ")


def typed(terms):
    return [(type(t.coefficient), t) for t in terms]


raw_factors = st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
    lambda parts: st.one_of(
        st.just(Composition(tuple(parts))),
        st.lists(st.sampled_from((1, -1)), min_size=len(parts),
                 max_size=len(parts)).map(
            lambda signs: Composition(tuple(parts), tuple(signs)))))
raw_coefficients = st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
raw_terms = st.lists(st.builds(
    ProductTerm, raw_coefficients, st.lists(raw_factors, max_size=3).map(
        tuple)), max_size=8)


@settings(max_examples=200, deadline=None)
@given(raw_terms, raw_terms, st.one_of(st.integers(-2, 2), raw_coefficients))
def test_combination_matches_the_sorting_normalize(a, b, q):
    ref_a, ref_b = reference_normalize(a), reference_normalize(b)
    ca, cb = ZetaCombination(a), ZetaCombination(b)
    assert typed(ca.terms) == typed(ref_a)
    assert normalize(ca) == ca
    assert ca.to_json() == reference_json(ref_a)
    assert str(ca) == reference_str(ref_a)
    assert ca.is_zero() == (not ref_a)
    assert ca.regularized == any(
        not f.admissible for t in ref_a for f in t.factors)
    neg_b = tuple(t.scaled(-1) for t in ref_b)
    products = [ProductTerm(s.coefficient * t.coefficient,
                            s.factors + t.factors)
                for s in ref_a for t in ref_b]
    q = Fraction(q)
    for got, want in (
            (ca + cb, reference_normalize(ref_a + ref_b)),
            (ca - cb, reference_normalize(ref_a + neg_b)),
            (-cb, neg_b),
            (ca * cb, reference_normalize(products)),
            (ca.scaled(q), reference_normalize(
                [t.scaled(q) for t in ref_a] if q else []))):
        assert typed(got.terms) == typed(want)
        assert str(got) == reference_str(want)
        assert got.to_json() == reference_json(want)
