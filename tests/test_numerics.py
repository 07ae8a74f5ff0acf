import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import all_compositions, brute_mzv, brute_mzv_exact, word_parts
from mzv import (
    EliminationError,
    bernoulli_number,
    bernoulli_polynomial,
    composition,
    eliminate_divergent,
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
    shuffle_identity,
    three_point_identity,
    verify_identity,
    zeta,
)
from mzv.algebra import CACHE_SIZE
from mzv.compositions import iter_admissible, to_word
from mzv.numerics import BLOCK, FLOAT_SLACK, MAX_TRUNCATION


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


# float.hex of value and bound, "composition N value bound", written by the
# whole-array evaluator; the sizes straddle 4096 and 16384 and reach 10^6.
# The nine rows from "4 1000000" on were written by the blocked evaluator
# while it still summed every block to the end; they pin the blocks at which
# its walk may stop.  The last line's part is far past the point where 1/n^k
# underflows.
DIRECT_PINS = """
2 2 0x1.4000000000000p+0 0x1.000000000232fp-1
2 4095 0x1.a50a65a52dd28p+0 0x1.00100111a79a8p-12
2 4096 0x1.a50a66a52dd28p+0 0x1.0000001197998p-12
2 4097 0x1.a50a67a50dd58p+0 0x1.ffe002230f350p-13
2 16383 0x1.a516661d30728p+0 0x1.000400565ea60p-14
2 16384 0x1.a516662d30728p+0 0x1.000000465e660p-14
2 16385 0x1.a516663d2ff29p+0 0x1.fff800acbc4c1p-15
2 65537 0x1.a5196626b07b0p+0 0x1.fffe0234f32e2p-17
2 100000 0x1.a519be5fbb2fdp+0 0x1.4f8b5ac129bf3p-17
2 1000000 0x1.a51a555e39694p+0 0x1.0c6f8ba2f85a0p-20
-1 2 -0x1.0000000000000p-1 0x1.5555555557884p-1
-1 4095 -0x1.62f4306fa39ebp-1 0x1.00000008cbcccp-11
-1 4096 -0x1.62d4306fa39ebp-1 0x1.ffe00211779b8p-12
-1 4097 -0x1.62f42e6fc39cbp-1 0x1.ffc0081097b98p-12
-1 16383 -0x1.62e82ff7a39efp-1 0x1.000000232f330p-13
-1 16384 -0x1.62e02ff7a39efp-1 0x1.fff800665de60p-14
-1 16385 -0x1.62e82fd7a41efp-1 0x1.fff000c65a662p-14
-1 65537 -0x1.62e52fee23a0fp-1 0x1.fffc012179881p-16
-1 100000 -0x1.62e3882a2e519p-1 0x1.4f8a7dc141758p-16
-1 1000000 -0x1.62e41f28ac8afp-1 0x1.0c6f713f933f6p-19
5 2 0x1.0800000000000p+0 0x1.00000000465e6p-6
5 4095 0x1.097418eca7ccap+0 0x1.19b9a8155ef12p-40
5 4096 0x1.097418eca7ccap+0 0x1.19b99812dea11p-40
5 4097 0x1.097418eca7ccap+0 0x1.19b988155e512p-40
5 16383 0x1.097418eca7ccdp+0 0x1.1979d816dec91p-40
5 16384 0x1.097418eca7ccdp+0 0x1.1979d812dea11p-40
5 16385 0x1.097418eca7ccdp+0 0x1.1979d80edec91p-40
5 65537 0x1.097418eca7ccdp+0 0x1.19799852dda11p-40
5 100000 0x1.097418eca7ccdp+0 0x1.1979981eacf19p-40
5 1000000 0x1.097418eca7ccdp+0 0x1.19799812deee7p-40
2,1 2 0x1.0000000000000p-2 0x1.58b90bfbea014p+0
2,1 4095 0x1.331baa43e7981p+0 0x1.4a3dc7c269031p-9
2,1 4096 0x1.331bb328fd1f8p+0 0x1.4a2b23f5edaa6p-9
2,1 4097 0x1.331bbc0d061cfp+0 0x1.4a18825dc89bbp-9
2,1 16383 0x1.338cdff9e239fp+0 0x1.768d042d8b883p-11
2,1 16384 0x1.338ce09e62356p+0 0x1.7687a9fa7af7dp-11
2,1 16385 0x1.338ce142dd4d0p+0 0x1.76824ff03b5ccp-11
2,1 65537 0x1.33ad557ad9417p+0 0x1.a2e2ad3015c52p-13
2,1 100000 0x1.33b16c286cb74p+0 0x1.1b62f77addb41p-13
2,1 1000000 0x1.33b8fe0fc71afp+0 0x1.09571adb71f26p-16
3,3 2 0x1.0000000000000p-3 0x1.18b90bfbed4dap-2
3,3 4095 0x1.b5dc29885d5d4p-3 0x1.3a50b31566849p-22
3,3 4096 0x1.b5dc2988f73a4p-3 0x1.3a2b6a5220bbep-22
3,3 4097 0x1.b5dc298990fa7p-3 0x1.3a06284bddd5bp-22
3,3 16383 0x1.b5dc2e0aa29a9p-3 0x1.6696c45399b7dp-26
3,3 16384 0x1.b5dc2e0aa5020p-3 0x1.668c0fd80f769p-26
3,3 16385 0x1.b5dc2e0aa7696p-3 0x1.66815bd8f8152p-26
3,3 65537 0x1.b5dc2e52c374dp-3 0x1.93278891b11e3p-30
3,3 100000 0x1.b5dc2e5581a43p-3 0x1.663f0f4e99d7ap-31
3,3 1000000 0x1.b5dc2e578d050p-3 0x1.309e207c4b4b9p-37
-2,1 2 0x1.0000000000000p-2 0x1.dd8d06d0bd74cp-2
-2,1 4095 0x1.33b9dcb891000p-3 0x1.2a2b358b54386p-20
-2,1 4096 0x1.33ba23e13d3b6p-3 0x1.2a07f3551551ep-20
-2,1 4097 0x1.33b9dcc0f5502p-3 0x1.29e4b77a4e488p-20
-2,1 16383 0x1.33b9fdbcf6ac4p-3 0x1.5688c36b473dfp-24
-2,1 16384 0x1.33ba02e0f687fp-3 0x1.567e8f692fec8p-24
-2,1 16385 0x1.33b9fdbd1dcb5p-3 0x1.56745bdd8443fp-24
-2,1 65537 0x1.33ba002055527p-3 0x1.82effc0947949p-28
-2,1 100000 0x1.33ba0063c5a15p-3 0x1.581560fa96444p-29
-2,1 1000000 0x1.33ba004f3faedp-3 0x1.0d6ecc778fd82p-35
2,3,3 2 0x0.0p+0 0x1.0818eafbaa90ep+2
2,3,3 4095 0x1.1ae2fe629d59ep-4 0x1.ade8f5b3412ffp-6
2,3,3 4096 0x1.1ae301ce55acfp-4 0x1.add33ff5bcabfp-6
2,3,3 4097 0x1.1ae30539a0934p-4 0x1.adbd8ca43e4f2p-6
2,3,3 16383 0x1.1b0c0ca14a722p-4 0x1.13fbeae4798d7p-7
2,3,3 16384 0x1.1b0c0cd805f7ep-4 0x1.13f85639f981ap-7
2,3,3 16385 0x1.1b0c0d0ebfc7dp-4 0x1.13f4c1a97152ap-7
2,3,3 65537 0x1.1b164feadf2a2p-4 0x1.58b5d7a0c8389p-9
2,3,3 100000 0x1.1b177db55fb03p-4 0x1.e14b4e9aa90d3p-10
2,3,3 1000000 0x1.1b198239f6b31p-4 0x1.07544bfa1505dp-12
-3,-1,1 2 0x0.0p+0 0x1.4e10916863cc5p-2
-3,-1,1 4095 -0x1.8af9858be1799p-6 0x1.5b6ba62b89fb9p-29
-3,-1,1 4096 -0x1.8af9858aec985p-6 0x1.5b2f3863e2bd4p-29
-3,-1,1 4097 -0x1.8af9858be3848p-6 0x1.5af2d8dd95203p-29
-3,-1,1 16383 -0x1.8af9859173ae4p-6 0x1.d31a8eb704b3ep-35
-3,-1,1 16384 -0x1.8af985916fd79p-6 0x1.d3066a26f55fep-35
-3,-1,1 16385 -0x1.8af9859173b0ap-6 0x1.d2f246c99343ap-35
-3,-1,1 65537 -0x1.8af985918d98fp-6 0x1.1ee6ca5ffe3e8p-39
-3,-1,1 100000 -0x1.8af985918de9cp-6 0x1.719d8b5671362p-40
-3,-1,1 1000000 -0x1.8af985918e113p-6 0x1.19993a25b4cfap-40
4,1,2 2 0x0.0p+0 0x1.67e9d043f665bp-3
4,1,2 4095 0x1.ff80d889bfd95p-7 0x1.f2cc44756fc9cp-32
4,1,2 4096 0x1.ff80d889c5f67p-7 0x1.f27568117da21p-32
4,1,2 4097 0x1.ff80d889cc121p-7 0x1.f21ea037e7f56p-32
4,1,2 16383 0x1.ff80d8ab33f73p-7 0x1.68669a20d98b9p-37
4,1,2 16384 0x1.ff80d8ab33fe7p-7 0x1.6858473d8d89ep-37
4,1,2 16385 0x1.ff80d8ab3405bp-7 0x1.6849f534b4ac1p-37
4,1,2 65537 0x1.ff80d8abd1b0bp-7 0x1.4cf5894dec6f1p-40
4,1,2 100000 0x1.ff80d8abd3bbdp-7 0x1.28f81053cc66ap-40
4,1,2 1000000 0x1.ff80d8abd4927p-7 0x1.197f1bdb1614bp-40
2,2,2,2 2 0x0.0p+0 0x1.d9cea51fe9dc3p+3
2,2,2,2 4095 0x1.aba4c53d1480dp-6 0x1.1ae2b0c631911p-2
2,2,2,2 4096 0x1.aba4d16f1c85ap-6 0x1.1ad60c35750fdp-2
2,2,2,2 4097 0x1.aba4dd9f9ea1fp-6 0x1.1ac968f817d9fp-2
2,2,2,2 16383 0x1.ac3731f09d06fp-6 0x1.9a1df6495860ep-4
2,2,2,2 16384 0x1.ac3732b3e47c6p-6 0x1.9a192bc8b00e6p-4
2,2,2,2 16385 0x1.ac37337725d7fp-6 0x1.9a146168fc514p-4
2,2,2,2 65537 0x1.ac5bd0b45abeap-6 0x1.1d8bf0ee14c2ep-5
2,2,2,2 100000 0x1.ac6005ae5d151p-6 0x1.9b3c820662e7ep-6
2,2,2,2 1000000 0x1.ac6738fde1ffep-6 0x1.067f3a56356c0p-8
-2,1,-1,3 2 0x0.0p+0 0x1.06e6f16f1365ep+1
-2,1,-1,3 4095 0x1.da5e47b6883efp-8 0x1.947ce0b5335cdp-14
-2,1,-1,3 4096 0x1.da607236deed7p-8 0x1.9452785187a14p-14
-2,1,-1,3 4097 0x1.da5e47f73cbe0p-8 0x1.942816f7faf53p-14
-2,1,-1,3 16383 0x1.da5f48862f262p-8 0x1.329c0da608dd2p-17
-2,1,-1,3 16384 0x1.da5f718a21fafp-8 0x1.3293d0ad4e483p-17
-2,1,-1,3 16385 0x1.da5f488764e65p-8 0x1.328b940daf5b5p-17
-2,1,-1,3 65537 0x1.da5f5b8d822edp-8 0x1.b9cf14620628cp-21
-2,1,-1,3 100000 0x1.da5f5db1ebae4p-8 0x1.a4b9fe1c74935p-22
-2,1,-1,3 1000000 0x1.da5f5d0a8b13ap-8 0x1.bf04c9bcc9ab4p-28
3,-1,2,1 2 0x0.0p+0 0x1.8e328547ddc4ep+0
3,-1,2,1 4095 -0x1.df31d13786cdcp-10 0x1.dd2a0e863a68ep-16
3,-1,2,1 4096 -0x1.df31d139a4202p-10 0x1.dcf77aae9e5d2p-16
3,-1,2,1 4097 -0x1.df31d13bbc417p-10 0x1.dcc4ef4d79471p-16
3,-1,2,1 16383 -0x1.df31e1027bbbfp-10 0x1.61d0a2804cb58p-19
3,-1,2,1 16384 -0x1.df31e102842a1p-10 0x1.61c70d6bd1c4fp-19
3,-1,2,1 16385 -0x1.df31e1028c92fp-10 0x1.61bd78bf93807p-19
3,-1,2,1 65537 -0x1.df31e1ff1ecccp-10 0x1.f55bb8f8a0143p-23
3,-1,2,1 100000 -0x1.df31e208ba469p-10 0x1.db5d5d8f2606fp-24
3,-1,2,1 1000000 -0x1.df31e20fe3765p-10 0x1.efa27d95c894fp-30
4 1000000 0x1.151322ac7d844p+0 0x1.19799e38fde70p-40
6 1000000 0x1.0470984c09245p+0 0x1.19799812dea11p-40
-5 1000000 -0x1.f1b9aebbbaa02p-1 0x1.19799812dea11p-40
4,1 1000000 0x1.8b793aa8ba76fp-4 0x1.1979f53900229p-40
5,2 1000000 0x1.3c01e62fb8643p-5 0x1.19799812e32ebp-40
4,1,1 1000000 0x1.1e8dc2d7db0f6p-6 0x1.197f1bdb1614bp-40
5,1,1 1000000 0x1.0e373b7c5722cp-8 0x1.19799813233edp-40
-4,1 1000000 0x1.90e3101d3ceeap-5 0x1.1979981302736p-40
3,-1 1000000 -0x1.61fcb48a6c7b8p-3 0x1.309e207c4b4b9p-37
3000000 100 0x1.0000000000000p+0 0x1.19799812dea11p-40
"""


def test_direct_matches_hex_pins():
    for line in DIRECT_PINS.split("\n")[1:-1]:
        parts, N, value, bound = line.split()
        c = composition(*map(int, parts.split(",")))
        pv = eval_mzv_direct(c, int(N))
        assert (pv.value.hex(), pv.bound.hex()) == (value, bound), line


def fixed_point_nested_sum(c, N, bits=200):
    """The truncated nested sum as cumulative sums of integers at scale
    2^-bits, read as a 40-digit mpf.  Every term is one floor, so the sum is
    off by less than N m (2 + ln N)^m units of 2^-bits, below 1e-50 here."""
    row = itertools.repeat(1 << bits)
    for j in reversed(range(c.depth)):
        sign = c.sign(j)
        row = [0, *itertools.accumulate(
            (sign if n % 2 else 1) * p // n ** c.parts[j]
            for n, p in zip(range(1, N + 1), row))]
    with mp.workdps(40):
        return mp.ldexp(mp.mpf(row[-1]), -bits)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.sampled_from((1, -1))),
                min_size=1, max_size=4),
       st.integers(1, 64))
def test_direct_across_a_block_boundary_matches_high_precision(signed_parts,
                                                               past):
    c = composition(*(p * s for p, s in signed_parts))
    assume(c.admissible)
    N = BLOCK + past
    value = eval_mzv_direct(c, N).value
    with mp.workdps(40):
        assert abs(value - fixed_point_nested_sum(c, N)) <= FLOAT_SLACK


def test_direct_refuses_oversized_truncation_before_allocating(monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("array allocated for an oversized truncation")

    monkeypatch.setattr(np, "arange", no_arrays)
    monkeypatch.setattr(np, "empty", no_arrays)
    monkeypatch.setattr(numerics, "_reciprocals", None)
    with pytest.raises(ValueError, match="exceeds the limit"):
        eval_mzv_direct(composition(3), MAX_TRUNCATION + 1)
    assert numerics._reciprocals is None


@pytest.mark.parametrize("N", [1, 0, -5])
def test_direct_refuses_a_truncation_below_two(N):
    with pytest.raises(ValueError, match=r"^truncation N = %d is below 2$"
                       % N):
        eval_mzv_direct(composition(2), N)


# The whole-array loop on a fresh 1/n row, kept as the reference of the
# blocked loop on the shared row: the same longdouble operations in the same
# order, so values must match bitwise.
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
       st.lists(st.one_of(st.integers(2, 3000),
                          st.integers(BLOCK - 2, BLOCK + 2),
                          st.integers(2 * BLOCK - 2, 2 * BLOCK + 2)),
                min_size=3, max_size=3, unique=True))
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


def test_direct_buffers_are_one_row_per_distinct_part(monkeypatch):
    # a row per power up to the largest part would be 39 rows here; the two
    # level rows have one slot more, where the outer level's dot starts
    sizes = []

    def recorded_empty(shape, dtype):
        sizes.append(np.prod(shape))
        return np.zeros(shape, dtype)

    monkeypatch.setattr(np, "empty", recorded_empty)
    c = composition(40, 2, 40)
    assert eval_mzv_direct(c, BLOCK + 1).value == fresh_row_direct(c, BLOCK + 1)
    assert sum(sizes) == 4 * BLOCK + 2


def test_longdouble_dot_adds_sequentially_like_cumsum():
    # the direct evaluator's outer level is one dot per block and keeps the
    # bits of a cumulative sum only if numpy's longdouble dot adds the
    # products one by one from 0, in order
    rng = np.random.default_rng(20261020)
    for _ in range(200):
        n = int(rng.integers(1, 3000))
        a = rng.standard_normal(n).astype(np.longdouble) / np.arange(
            1, n + 1, dtype=np.longdouble)
        b = rng.standard_normal(n).astype(np.longdouble) * np.longdouble(
            rng.random())
        assert np.dot(a, b) == np.cumsum(a * b)[-1]


@pytest.mark.parametrize("k, blocks", [(6, 1), (3, 62)])
def test_direct_walk_stops_once_the_outer_sum_is_stationary(monkeypatch, k,
                                                            blocks):
    # one dot per block walked; 10^6 indices are 62 blocks
    calls = []

    def counted_dot(a, b):
        calls.append(len(a))
        return dot(a, b)

    dot = np.dot
    monkeypatch.setattr(np, "dot", counted_dot)
    pv = eval_mzv_direct(composition(k), 10 ** 6)
    assert len(calls) == blocks
    with mp.workdps(30):
        assert abs(pv.value - mp.zeta(k)) <= pv.bound


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


def signed_compositions(max_weight):
    """Every admissible composition of weight <= max_weight with a sign -1."""
    out = []
    for parts in all_compositions(max_weight):
        for signs in itertools.product((1, -1), repeat=len(parts)):
            c = composition(*(p * s for p, s in zip(parts, signs)))
            if c.signs is not None and c.admissible:
                out.append(c)
    return out


SIGNED_CLOSED_FORMS = [
    ((-2, 1), lambda: mp.zeta(3) / 8),
    ((-1, 1), lambda: mp.log(2) ** 2 / 2),
    ((-1, -1), lambda: (mp.log(2) ** 2 - mp.zeta(2)) / 2),
    ((2, -1), lambda: mp.zeta(3) - 3 * mp.zeta(2) * mp.log(2) / 2),
    ((-1,), lambda: -mp.log(2)),
    *[((-k,), lambda k=k: -(1 - mp.mpf(2) ** (1 - k)) * mp.zeta(k))
      for k in range(2, 7)],
]


@pytest.mark.parametrize("parts, closed", SIGNED_CLOSED_FORMS)
def test_accel_signed_closed_forms(parts, closed):
    with mp.workdps(60):
        pv = eval_mzv_accel(composition(*parts), 1e-30)
        assert pv.bound <= 1e-30
        assert abs(pv.value - closed()) <= pv.bound


def test_signed_stuffle_pairs_verify():
    # every unordered pair of weight <= 6 with a sign -1; ζ(-1) has weight 1
    comps = sorted(signed_compositions(5) + list(iter_admissible(4)),
                   key=lambda c: c.sort_key)
    pairs = [p for p in itertools.combinations_with_replacement(comps, 2)
             if p[0].weight + p[1].weight <= 6 and (p[0].signs or p[1].signs)]
    assert len(pairs) == 423
    for x, y in pairs:
        rep = verify_identity(permutation_identity(x, y), eps=1e-30)
        assert rep["pass"], (x, y, rep)


def test_accel_signed_agrees_with_direct():
    for c in signed_compositions(4):
        d = eval_mzv_direct(c, 10 ** 5)
        a = eval_mzv_accel(c, 1e-12)
        assert abs(mp.mpf(d.value) - a.value) <= d.bound + a.bound, c


def literal_half_word(word, dps, M):
    """Li_s(x) over M >= n1 > ... > nd, one mpf term at a time at dps, with
    x1 = (1/2)/a1 and x_i = a_(i-1)/a_i for the letters a_i of the parts."""
    parts = word_parts(word)
    with mp.workdps(dps):
        leads = [mp.mpf(1) / 2] + [a for _, a in parts[:-1]]
        prev = None
        for j in reversed(range(len(parts))):
            k, a = parts[j]
            x = leads[j] / a
            row = [mp.mpf(0)] * (M + 1)
            for t in range(1, M + 1):
                term = mp.mpf(t) ** (-k)
                if x != 1:
                    term *= x ** t
                if prev is not None:
                    term *= prev[t - 1]
                row[t] = row[t - 1] + term
            prev = row
        return prev[M]


def half_words(max_weight, signed=False):
    """Both halves of every midpoint split of the admissible words."""
    words = set()
    comps = (signed_compositions(max_weight) if signed
             else iter_admissible(max_weight))
    for c in comps:
        w = to_word(c)
        for j in range(len(w) + 1):
            words.add(w[j:])
            words.add(tuple(1 - a for a in reversed(w[:j])))
    words.discard(())
    return sorted(words)


@pytest.mark.parametrize("dps", [30, 45])
def test_half_word_matches_literal_loop(dps):
    # the reference runs 20 digits higher and 80 terms longer, so its own
    # rounding and truncation sit far below the bound under test.  Signed
    # words bring the letters -1 and 2, so every level factor +-1/2, 1/4, +-1,
    # 2, 1/2 and floors of both signs; they are a seeded sample, since the
    # 3273 of weight <= 7 take about a minute.
    M = max(80, int(dps * 3.4) + 40)
    signed = random.Random(dps).sample(half_words(7, signed=True), 30)
    assert {a for w in signed for a in w} == {-1, 0, 1, 2}
    for word in half_words(8) + signed:
        value, bound, magnitude = numerics._half_word_value(word, dps)
        assert magnitude == abs(float(value))
        ref = literal_half_word(word, dps + 20, M + 80)
        with mp.workdps(dps + 20):
            assert abs(value - ref) <= bound, word


def generator_half_word(word, dps):
    """The half-word kernel with every inner row rebuilt from the innermost
    one by a generator over t**k: the reference for the shared row chains."""
    if not word:
        return mp.mpf(1), 0.0, 1.0
    s = [k for k, _ in word_parts(word)]
    d = len(s)
    M = max(80, int(dps * 3.4) + 40)
    B = int(dps * 3.33) + 64
    ts = range(1, M + 1)
    row = [1 << B] * M
    for k in reversed(s[1:]):
        row = list(itertools.accumulate(
            (r // t ** k for r, t in zip(row, ts)), initial=0))
    total = sum((r // t ** s[0]) >> t for r, t in zip(row, ts))
    with mp.workdps(dps + 8):
        value = mp.ldexp(mp.mpf(total), -B)
    tail = 4.0 * 2.0 ** (-M) * float(M + 1) ** (d - 1) / math.factorial(d - 1)
    floors = 2.0 * M * d * (2.0 + math.log(M)) ** (d - 1)
    return value, (tail + math.ldexp(floors, -B)
                   + float(mp.mpf(10) ** (-(dps + 2)))), abs(float(value))


def test_half_word_matches_generator_kernel_bitwise():
    # both precisions in one stream, so rows of one scale cannot serve another
    calls = [(word, dps) for dps in (30, 45) for word in half_words(9)]
    expected = {call: generator_half_word(*call) for call in calls}
    shuffled = list(calls)
    random.Random(19).shuffle(shuffled)
    for order in (calls[::-1], shuffled):
        numerics._half_word_value.cache_clear()
        numerics._inner_row.cache_clear()
        for call in order:
            assert numerics._half_word_value(*call) == expected[call], call
        # more distinct rows than the cache holds: rows were evicted and rebuilt
        assert numerics._inner_row.cache_info().misses > numerics.INNER_ROWS


def test_accel_caches_are_bounded():
    for cached in (numerics._half_word_value, numerics._midpoint_sum,
                   numerics._half_word_scale):
        assert cached.cache_info().maxsize == CACHE_SIZE
    assert numerics._inner_row.cache_info().maxsize == numerics.INNER_ROWS
    assert numerics._power_row.cache_info().maxsize == numerics.POWER_ROWS


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


def test_eval_combination_bound_covers_the_exact_propagation(monkeypatch):
    # the reported bound is at least the atoms' bounds propagated exactly,
    # sum |q| (prod(|a_i| + b_i) - prod |a_i|) at 60 digits, though each
    # b_i is far below 1 ulp of |a_i|
    atoms = {}

    def recorded(c, eps):
        atoms[c.sort_key] = pv = eval_mzv_accel(c, eps)
        return pv

    monkeypatch.setattr(numerics, "eval_mzv_accel", recorded)
    admissible = [c.parts for c in iter_admissible(6)]
    idents = [shuffle_identity(x, y) for x in admissible for y in admissible
              if sum(x) + sum(y) <= 8]
    idents += [three_point_identity(a, b, c) for a in (2, 3, 4)
               for b in (1, 2, 3) for c in (1, 2, 3)]
    assert len(idents) == 156
    for ident in idents:
        comb = eliminate_divergent(ident.combination)
        atoms.clear()
        pv = eval_combination(comb, 1e-12)
        with mp.workdps(60):
            exact = mp.mpf(0)
            for t in comb.terms:
                got = [atoms[f.sort_key] for f in t.factors]
                hi = mp.fprod(abs(a.value) + a.bound for a in got)
                lo = mp.fprod(abs(a.value) for a in got)
                q = t.coefficient
                exact += abs(mp.mpf(q.numerator) / q.denominator) * (hi - lo)
            assert pv.bound >= exact, (ident.parameters, pv.bound, exact)


@pytest.mark.parametrize("dps", [30, 45])
def test_midpoint_bound_covers_the_exact_propagation(dps):
    # the bound is at least its halves' (value, bound) pairs propagated
    # exactly, the sum over the splits of (|v1| + e1)(|v2| + e2) - |v1||v2|,
    # plus its rounding term, short only by the float rounding of that sum
    comps = [*iter_admissible(7), *signed_compositions(7)]
    words = {to_word(c) for c in comps}
    with mp.workdps(dps):
        rounding = float(mp.mpf(10) ** (-(dps - 6)))
    for word in sorted(words):
        _, err = numerics._midpoint_sum(word, dps)
        with mp.workdps(dps + 30):
            exact = mp.mpf(rounding)
            for j in range(len(word) + 1):
                v1, e1, _ = numerics._half_word_value(word[j:], dps)
                v2, e2, _ = numerics._half_word_value(
                    tuple(1 - a for a in reversed(word[:j])), dps)
                exact += (abs(v1) + e1) * (abs(v2) + e2) - abs(v1 * v2)
            assert err >= exact * (1 - mp.mpf(2) ** -50), (word, err, exact)


def test_propagator_bound_covers_the_full_series():
    # the full series is (Cl_k cos + i Cl_k sin)(2 pi u) / (2 pi i)^k, with
    # Cl_k cos(t) = sum cos(n t) / n^k and Cl_k sin(t) = sum sin(n t) / n^k
    us = [Fraction(j, 12) for j in range(-11, 12)]
    us += [Fraction(1, 7), Fraction(-3, 11)]
    for k in range(2, 6):
        for u in us:
            with mp.workdps(50):
                t = 2 * mp.pi * u.numerator / u.denominator
                full = ((mp.clcos(k, t) + 1j * mp.clsin(k, t))
                        / (2j * mp.pi) ** k)
            for N in (1, 10, 100, 1000):
                pv = eval_propagator(k, u, N)
                with mp.workdps(50):
                    assert abs(pv.value - full) <= pv.bound, (k, u, N)


def test_verify_identity_report():
    rep = verify_identity(permutation_identity((2,), (3,)))
    assert rep["pass"] is True
    assert set(rep) >= {"residual", "bound", "eps", "pass"}
    broken = permutation_identity((2,), (3,))
    bad = normalize(broken.lhs - broken.rhs.scaled(Fraction(1000001, 1000000)))
    rep = verify_identity(bad, eps=1e-10)
    assert rep["pass"] is False


def test_verify_identity_demands_a_bound_within_eps(monkeypatch):
    # a residual of 0 inside a bound of 10 eps does not show 0 to eps
    eps = 1e-10
    monkeypatch.setattr(numerics, "eval_combination", lambda comb, eps: (
        numerics.PrecisionValue(mp.mpf(0), 10 * eps)))
    rep = verify_identity(permutation_identity((2,), (3,)), eps=eps)
    assert rep["pass"] is False
    assert rep["bound"] == "1.000e-09"


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


def test_three_point_with_an_exponent_one_verifies():
    triples = [t for t in itertools.product(range(1, 6), repeat=3)
               if 1 in t and sum(t) <= 7]
    assert len(triples) == 31
    for t in triples:
        rep = verify_identity(three_point_identity(*t), eps=1e-12)
        assert rep["eliminated"] and rep["pass"], t


def test_permutation_with_one_divergent_factor_verifies_or_is_refused():
    # 44 of the 64 pairs leave only a T^0 coefficient and verify; on the
    # other 20 a T^1 coefficient survives that vanishes only numerically
    passed = refused = 0
    for x, y in itertools.product(all_compositions(5), repeat=2):
        if sum(x) + sum(y) > 6 or (x[0] == 1) == (y[0] == 1):
            continue
        try:
            rep = verify_identity(permutation_identity(x, y), eps=1e-12)
        except EliminationError as exc:
            assert str(exc).startswith("divergent terms survive elimination")
            refused += 1
            continue
        assert rep["pass"], (x, y)
        passed += 1
    assert (passed, refused) == (44, 20)


def test_bernoulli_numbers():
    assert [bernoulli_number(k) for k in range(9)] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30),
        0, Fraction(1, 42), 0, Fraction(-1, 30)]


def test_bernoulli_number_refuses_a_negative_index():
    with pytest.raises(ValueError, match=r"^B_k needs k >= 0, got -1$"):
        bernoulli_number(-1)


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


@pytest.mark.parametrize("N", [0, -5])
def test_propagator_refuses_a_truncation_below_one(N):
    # below 1 the partial sum is empty and the tail bound has no meaning
    with pytest.raises(ValueError, match=r"^truncation N = %d is below 1$"
                       % N):
        eval_propagator(2, Fraction(1, 3), N)


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
