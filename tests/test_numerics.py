import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import brute_mzv, brute_mzv_exact
from mzv import (
    bernoulli_number,
    bernoulli_polynomial,
    composition,
    eval_combination,
    eval_mzv_accel,
    eval_mzv_direct,
    eval_propagator,
    lnz_coefficients,
    normalize,
    numerics,
    partial_integration,
    permutation_identity,
    propagator_real_closed_form,
    verify_identity,
    zeta,
)
from mzv.compositions import from_word, iter_admissible, to_word
from mzv.numerics import FLOAT_SLACK, MAX_TRUNCATION


def test_direct_against_closed_forms():
    with mp.workdps(30):
        pv = eval_mzv_direct(composition(2), 10 ** 4)
        assert abs(pv.value - mp.pi ** 2 / 6) <= pv.bound
        assert pv.bound < 2e-4
        pv = eval_mzv_direct(composition(-1), 10 ** 5)
        assert abs(pv.value - (-mp.log(2))) <= pv.bound
        pv = eval_mzv_direct(composition(-2), 10 ** 5)
        assert abs(pv.value - (-mp.pi ** 2 / 12)) <= pv.bound


def test_direct_matches_brute():
    for parts in [(2, 1), (3, 1, 2), (2, -1), (-2, 1, 1)]:
        c = composition(*parts)
        assert eval_mzv_direct(c, 200).value == pytest.approx(
            brute_mzv(c, 200), abs=1e-13)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=4),
       st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4),
       st.integers(2, 60))
def test_direct_matches_exact_truncated_sum(parts, signs, N):
    # pins the sign parity (odd n carries the -1) and the strict nesting
    c = composition(*(p * s for p, s in zip(parts, signs)))
    assume(c.admissible)
    value = eval_mzv_direct(c, N).value
    assert abs(Fraction(value) - brute_mzv_exact(c, N)) <= FLOAT_SLACK


def test_direct_refuses_oversized_truncation_before_allocating(monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("array allocated for an oversized truncation")

    monkeypatch.setattr(numerics.np, "arange", no_arrays)
    monkeypatch.setattr(numerics, "_reciprocals", None)
    with pytest.raises(ValueError, match="exceeds the limit"):
        eval_mzv_direct(composition(3), MAX_TRUNCATION + 1)
    assert numerics._reciprocals is None


# The fresh-row loop the shared 1/n row replaced, kept as its reference: the
# same longdouble operations in the same order, so values must match bitwise.
def fresh_row_direct(c, N):
    r = np.longdouble(1) / np.arange(1, N + 1, dtype=np.longdouble)
    csum = None
    for j in reversed(range(c.depth)):
        x = r.copy()
        for _ in range(c.parts[j] - 1):
            x *= r
        if c.sign(j) == -1:
            x[::2] *= -1
        if csum is not None:
            x[1:] *= csum[:-1]
            x[0] = 0
        csum = np.cumsum(x, out=x)
    return float(csum[-1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.sampled_from((1, -1))),
                min_size=1, max_size=4),
       st.lists(st.integers(2, 3000), min_size=3, max_size=3, unique=True))
def test_direct_shared_row_matches_fresh_row(signed_parts, sizes):
    c = composition(*(p * s for p, s in signed_parts))
    assume(c.admissible)
    small, middle, large = sorted(sizes)
    numerics._reciprocals = None
    longest = 0
    for N in (middle, large, small):    # build, grow, then a shorter prefix
        assert eval_mzv_direct(c, N).value == fresh_row_direct(c, N)
        longest = max(longest, N)
        assert len(numerics._reciprocals) == longest


def test_direct_shared_row_is_read_only():
    eval_mzv_direct(composition(2), 100)
    with pytest.raises(ValueError, match="read-only"):
        numerics._reciprocals[0] = 2
    with pytest.raises(ValueError, match="read-only"):
        numerics._reciprocals[:50][0] = 2


def test_direct_bound_monotone():
    c = composition(2, 1)
    bounds = [eval_mzv_direct(c, N).bound for N in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert bounds[0] > bounds[1] > bounds[2]


def test_direct_rejects_divergent():
    with pytest.raises(ValueError):
        eval_mzv_direct(composition(1, 2), 100)


def test_accel_against_closed_forms():
    with mp.workdps(30):
        targets = [
            ((2,), mp.pi ** 2 / 6),
            ((8,), mp.zeta(8)),
            ((2, 1), mp.zeta(3)),
            ((3, 1), mp.pi ** 4 / 360),
        ]
        for parts, ref in targets:
            pv = eval_mzv_accel(composition(*parts), 1e-12)
            assert pv.bound <= 1e-12
            assert abs(pv.value - ref) <= pv.bound


def test_accel_agrees_with_direct():
    c = composition(2, 1, 1)
    d = eval_mzv_direct(c, 10 ** 5)
    a = eval_mzv_accel(c, 1e-12)
    assert abs(mp.mpf(d.value) - a.value) <= d.bound + a.bound


def literal_half_word(word, dps, M):
    """Li_s(1/2) over M >= n1 > ... > nd, one mpf term at a time at dps."""
    s = from_word(word).parts
    with mp.workdps(dps):
        prev = None
        for j in reversed(range(len(s))):
            row = [mp.mpf(0)] * (M + 1)
            for t in range(1, M + 1):
                x = mp.mpf(t) ** (-s[j])
                if j == 0:
                    x *= mp.mpf(2) ** (-t)
                if prev is not None:
                    x *= prev[t - 1]
                row[t] = row[t - 1] + x
            prev = row
        return prev[M]


def half_words(max_weight):
    """Both halves of every midpoint split of the admissible words."""
    words = set()
    for c in iter_admissible(max_weight):
        w = to_word(c)
        for j in range(len(w) + 1):
            words.add(w[j:])
            words.add(tuple(1 - a for a in reversed(w[:j])))
    words.discard(())
    return sorted(words)


@pytest.mark.parametrize("dps", [30, 45])
def test_half_word_matches_literal_loop(dps):
    # the reference runs 20 digits higher and 80 terms longer, so its own
    # rounding and truncation sit far below the bound under test
    M = max(80, int(dps * 3.4) + 40)
    for word in half_words(8):
        value, bound = numerics._half_word_value(word, dps)
        ref = literal_half_word(word, dps + 20, M + 80)
        with mp.workdps(dps + 20):
            assert abs(value - ref) <= bound, word


def test_accel_caches_are_bounded():
    for cached in (numerics._half_word_value, numerics._midpoint_sum):
        assert cached.cache_info().maxsize == numerics._CACHE_SIZE


def test_accel_refuses_deep_composition_without_overflow():
    # the tail bound of a 151-letter half-word is beyond the float range
    deep = composition(2, *[1] * 150)
    with pytest.raises(ArithmeticError) as info:
        eval_mzv_accel(deep, 1e-12)
    assert type(info.value) is ArithmeticError
    assert "requested eps=1e-12 not reached (bound inf)" in str(info.value)


def test_accel_refuses_nan_bound(monkeypatch):
    def nan_bound(word, dps):
        return mp.mpf(1), math.nan

    monkeypatch.setattr(numerics, "_midpoint_sum", nan_bound)
    with pytest.raises(ArithmeticError, match="not reached"):
        eval_mzv_accel(composition(2), 1e-12)


def test_eval_combination_residual():
    # the depth-two reflection rearranged: 2 zeta(2,2) + zeta(4) = zeta(2)^2
    comb = normalize(
        zeta(2, 2).scaled(2) + zeta(4) - zeta(2) * zeta(2))
    pv = eval_combination(comb, 1e-10)
    assert abs(pv.value) <= pv.bound <= 1e-10


def test_eval_combination_rejects_regularized():
    with pytest.raises(ValueError):
        eval_combination(zeta(1, 2), 1e-8)


def test_verify_identity_report():
    rep = verify_identity(permutation_identity((2,), (3,)))
    assert rep["pass"] is True
    assert set(rep) >= {"residual", "bound", "eps", "pass"}
    broken = permutation_identity((2,), (3,))
    bad = normalize(broken.lhs - broken.rhs.scaled(Fraction(1000001, 1000000)))
    rep = verify_identity(bad, eps=1e-10)
    assert rep["pass"] is False


def test_verify_identity_eliminates_regularized_input():
    raw = partial_integration((2, 1), variant="rightward")
    assert raw.regularized
    rep = verify_identity(raw)
    assert rep["pass"] is True
    assert rep["eliminated"] is True
    assert rep["identity"] == {"family": raw.family,
                               "parameters": raw.parameters}
    # a bare regularized combination is eliminated the same way
    bare = verify_identity(raw.combination)
    assert bare["eliminated"] is True
    assert bare["residual"] == rep["residual"]
    assert "eliminated" not in verify_identity(permutation_identity((2,), (3,)))


def test_bernoulli_numbers():
    assert [bernoulli_number(k) for k in range(9)] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30),
        0, Fraction(1, 42), 0, Fraction(-1, 30)]


def test_bernoulli_polynomials():
    x = Fraction(1, 4)
    assert bernoulli_polynomial(2, x) == x * x - x + Fraction(1, 6)
    assert bernoulli_polynomial(3, x) == (
        x ** 3 - Fraction(3, 2) * x ** 2 + Fraction(1, 2) * x)


def test_propagator_closed_form_values():
    assert propagator_real_closed_form(2, Fraction(0)) == Fraction(-1, 24)
    assert propagator_real_closed_form(4, Fraction(0)) == Fraction(1, 1440)
    assert propagator_real_closed_form(3, Fraction(1, 4)) == Fraction(-1, 256)
    # odd order is odd in u
    assert propagator_real_closed_form(3, Fraction(-1, 4)) == Fraction(1, 256)
    assert propagator_real_closed_form(2, Fraction(-1, 3)) == \
        propagator_real_closed_form(2, Fraction(1, 3))


def test_propagator_partial_sum_matches_closed_form():
    with mp.workdps(30):
        for k, u in [(2, Fraction(3, 10)), (4, Fraction(1, 7))]:
            pv = eval_propagator(k, u, 10 ** 4)
            ref = mp.mpf(pv.bernoulli_real.numerator) / pv.bernoulli_real.denominator
            assert abs(pv.value.real - ref) <= pv.bound
        # odd k at u=0 has a vanishing real part
        pv = eval_propagator(3, 0, 10 ** 3)
        assert abs(pv.value.real) <= pv.bound
        assert pv.bernoulli_real == 0


def test_propagator_sums_at_exact_u():
    # summed at float(u), Re missed the closed form by 2e-20..6e-20 here,
    # against a bound of 7.9e-21
    for u in (Fraction(3, 20), Fraction(1, 3), Fraction(1, 7)):
        pv = eval_propagator(4, u, 3 * 10 ** 5)
        with mp.workdps(40):
            ref = mp.mpf(pv.bernoulli_real.numerator) / pv.bernoulli_real.denominator
            assert abs(pv.value.real - ref) <= pv.bound


def literal_propagator(k, u, N):
    """The partial Fourier sum term by term at 50 digits, angle 2 pi n p/q."""
    u = Fraction(u)
    with mp.workdps(50):
        return mp.fsum(
            mp.expjpi(mp.mpf(2 * n * u.numerator) / u.denominator)
            / (2j * mp.pi * n) ** k
            for n in range(1, N + 1))


@pytest.mark.parametrize("u", [0, Fraction(1, 2), Fraction(-1, 2),
                               Fraction(3, 20), Fraction(-7, 19)])
def test_propagator_matches_literal_loop(u):
    for k in (2, 3, 4):
        for N in (1, 2, 19, 200):
            pv = eval_propagator(k, u, N)
            with mp.workdps(50):
                assert abs(pv.value - literal_propagator(k, u, N)) <= 1e-35


def test_propagator_refuses_float_u():
    with pytest.raises(TypeError, match="Fraction"):
        eval_propagator(4, 0.3, 10 ** 4)


def test_propagator_derivative_finite_difference():
    # d/du of the order-k kernel is the order-(k-1) kernel; checked on the
    # closed-form real parts with an exact rational central difference
    h = Fraction(1, 1000)
    for k in (3, 4):
        for u in (Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)):
            fd = (propagator_real_closed_form(k, u + h)
                  - propagator_real_closed_form(k, u - h)) / (2 * h)
            ref = propagator_real_closed_form(k - 1, u)
            assert abs(fd - ref) <= Fraction(1, 10 ** 5)


def test_propagator_truncation_slope():
    # sup error of the truncated series against the closed form decays
    # like N^-(k-1) at the edge of the period
    k = 3
    errs = []
    with mp.workdps(30):
        for N in (10 ** 3, 10 ** 4):
            worst = mp.mpf(0)
            for j in range(10):
                u = Fraction(j, 10)
                pv = eval_propagator(k, u, N)
                ref = mp.mpf(pv.bernoulli_real.numerator) / pv.bernoulli_real.denominator
                worst = max(worst, abs(pv.value.real - ref))
            errs.append(float(worst))
    slope = (math.log(errs[0]) - math.log(errs[1])) / math.log(10)
    assert slope >= k - 1 - 0.05


def test_lnz_coefficients_symbolic():
    co = lnz_coefficients(8)
    assert len(co) == 8
    for n, comb in enumerate(co, start=1):
        assert comb == zeta(n).scaled(Fraction(1, n))
    third = lnz_coefficients(3)[2].terms[0].coefficient
    assert type(third) is Fraction and third == Fraction(1, 3)


def test_lnz_coefficients_match_loggamma():
    with mp.workdps(30):
        tay = mp.taylor(lambda x: mp.loggamma(1 - x), 0, 5)
        for n in range(2, 6):
            num = eval_combination(lnz_coefficients(5)[n - 1], 1e-12)
            assert abs(tay[n] - num.value) < 1e-12
