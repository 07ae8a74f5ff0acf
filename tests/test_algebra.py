import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_combination, brute_mzv, brute_mzv_exact
from mzv import (
    EliminationError,
    composition,
    divergent_expansion,
    eliminate_divergent,
    normalize,
    one,
    stuffle,
    zeta,
)
from mzv.algebra import BOTH, LEFT, RIGHT, interleavings
from mzv.linalg import ordered_splits, symbolic_stuffle


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


def test_divergent_expansion_is_the_stuffle_with_one():
    for parts in [(2,), (2, 1), (3, 2)]:
        c = composition(*parts)
        assert divergent_expansion(c) == stuffle(composition(1), c)


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
    comb = zeta(composition(1)) * zeta(1, 2)
    with pytest.raises(EliminationError) as info:
        eliminate_divergent(comb)
    assert str(info.value) == (
        "cannot eliminate zeta(1) against divergent partner 1,2")
    assert info.value.residual == comb


def test_eliminate_divergent_carries_spectators():
    # zeta(1) pairs with its largest partner zeta(3); zeta(2) rides along
    comb = (zeta(composition(1)) * zeta(2) * zeta(3)
            - zeta(2) * zeta(1, 3))
    assert eliminate_divergent(comb) == normalize(
        zeta(2) * zeta(4) + zeta(2) * zeta(3, 1))


def test_eliminate_divergent_reports_surviving_divergent_terms():
    z1 = zeta(composition(1))
    with pytest.raises(EliminationError) as info:
        eliminate_divergent(z1 * z1 * zeta(2) - z1 * zeta(1, 2))
    assert str(info.value) == (
        "divergent terms survive elimination: 1·ζ(1,3); 1·ζ(1,2,1)")
    assert info.value.residual == normalize(zeta(1, 3) + zeta(1, 2, 1))


def test_json_round_trip():
    from mzv import combination_from_json
    comb = normalize(zeta(2, 1).scaled(Fraction(3, 2)) - zeta(2) * zeta(3))
    assert combination_from_json(comb.to_json()) == comb


@pytest.mark.parametrize("n", range(7))
def test_interleavings_are_the_multinomial_patterns(n):
    for a1 in range(n + 1):
        for a2 in range(n + 1 - a1):
            a12 = n - a1 - a2
            patterns = interleavings(a1, a2, a12)
            assert len(patterns) == math.factorial(n) // (
                math.factorial(a1) * math.factorial(a2) * math.factorial(a12))
            assert len(set(patterns)) == len(patterns)
            for p in patterns:
                assert (p.count(LEFT), p.count(RIGHT), p.count(BOTH)) == (
                    a1, a2, a12)


def test_interleavings_are_one_shared_tuple():
    patterns = interleavings(2, 1, 1)
    assert isinstance(patterns, tuple)
    assert interleavings(2, 1, 1) is patterns


def _brute_quasi_shuffle(u, v):
    """u * v = u1 (u' * v) + v1 (u * v') + (u1 v1)(u' * v'), as counts."""
    if not u or not v:
        return Counter([u + v])
    out = Counter()
    for head, rest in ((u[0], (u[1:], v)), (v[0], (u, v[1:])),
                       (tuple(sorted(u[0] + v[0])), (u[1:], v[1:]))):
        for comp, count in _brute_quasi_shuffle(*rest).items():
            out[(head,) + comp] += count
    return out


def test_symbolic_stuffle_matches_the_recursive_definition():
    for u, v in ordered_splits(("a", "b", "c", "d")):
        u_comp = tuple((s,) for s in u)
        v_comp = tuple((s,) for s in v)
        assert symbolic_stuffle(u_comp, v_comp) == dict(
            _brute_quasi_shuffle(u_comp, v_comp))
