"""Numeric evaluation with explicit error bounds.

Two independent evaluators are kept side by side on purpose: a truncated
nested-sum evaluator (numpy, imported on the evaluator's first call,
accumulated in 80-bit longdouble and returned as a float64, rigorous tail
bound) and a high-precision evaluator based on
splitting the iterated-integral word at the midpoint (the Hölder convolution
with p = 2 of Borwein, Bradley, Broadhurst and Lisoněk).  The former reads
1/n from one read-only row per process, built on first use for the largest
truncation asked so far, and walks it in fixed blocks, so its other arrays do
not grow with the truncation; it sums the outer level with one dot product
per block and stops walking once that sum is stationary.  The latter takes
signed words as unsigned ones (letters 0, 1, -1 and, on the dual half, 2),
sums each half on fixed-point integer rows, one chain of inner rows shared by
the suffixes of a word, and bounds their floor error along with the series
tail; its value caches share one bounded LRU policy and its row caches are
small bounded LRU caches too.
Identity verification always reports a residual with its propagated bound.
mpmath too is imported on first use, so importing this module loads neither.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, cycle, islice
from operator import floordiv, lshift, mul, rshift

from .algebra import (CACHE_SIZE, EliminationError, ZetaCombination,
                      eliminate_divergent, zeta)
from .compositions import Composition, to_word

FLOAT_SLACK = 1e-12  # headroom for float64 roundoff in the direct evaluator
MAX_TRUNCATION = 10 ** 7  # the shared 1/n row is 16 bytes per index
BLOCK = 1 << 14  # indices per block of the direct evaluator, 256 KB a row
_reciprocals = None  # 1/n for n = 1..len, read-only; see eval_mzv_direct
INNER_ROWS, POWER_ROWS = 16, 64  # accelerated evaluator rows; see _inner_row


@dataclass(frozen=True)
class PrecisionValue:
    """A numeric value paired with a bound on its absolute error."""

    value: object
    bound: float

    def __float__(self):
        return float(self.value)


@dataclass(frozen=True)
class PropagatorValue:
    value: object           # complex, from the Fourier partial sum
    bound: float
    bernoulli_real: object  # closed-form real part (Fraction when u is rational)


def eval_mzv_direct(c: Composition, N: int) -> PrecisionValue:
    """Truncated nested sum over n1 > ... > nm, all indices <= N.

    Cost O(N m), walked in blocks of BLOCK indices.  Per block, the powers
    r^k of the parts are kept from one chain of K - 1 multiplications by
    r = 1/n, K the largest part; each inner depth level, innermost first,
    then copies its power, takes one product with the inner level's sums and
    one cumulative sum, continuing from the sums that end the previous
    block, and the outer level takes one sequential dot product.  The walk
    stops once every term still to come is below a quarter ulp of the outer
    sum; the tail bound is still that of N.  Every element sees the
    longdouble roundings of one whole-row pass, in the same order.  One 1/n
    row is shared by every call in the process, built for the largest N
    asked so far (16 N bytes, 160 MB at MAX_TRUNCATION); 1/n does not
    depend on N, so its prefix has the bits of a row built for a smaller N.
    Apart from it the working set is one BLOCK-long row per distinct part
    above 1, and two rows of BLOCK + 1.
    """
    global _reciprocals
    import numpy as np
    if not c.admissible:
        raise ValueError("divergent composition %s" % c)
    if N < 2:
        raise ValueError("truncation too small")
    if N > MAX_TRUNCATION:
        raise ValueError("truncation N = %d exceeds the limit %d"
                         % (N, MAX_TRUNCATION))
    # 80-bit accumulation keeps rounding noise below FLOAT_SLACK even at
    # N = 10^6, where plain float64 cumsum noise reaches 1e-11.  Powers are
    # chains of multiplications by 1/n: numpy's longdouble ** is slow for
    # exponents >= 4, and the chain differs from it by < 1e-18 relative.
    if _reciprocals is None or len(_reciprocals) < N:
        _reciprocals = np.arange(1, N + 1, dtype=np.longdouble)
        np.divide(1, _reciprocals, out=_reciprocals)
        _reciprocals.flags.writeable = False
    m, k1 = c.depth, c.parts[0]
    ks = sorted(set(c.parts) - {1})
    powers = np.empty((len(ks), BLOCK), dtype=np.longdouble)
    # inner sums sit one slot right, leaving slot 0 of rows[1] to the outer
    # level; at depth 1 that row is all ones
    rows = np.empty((2, BLOCK + 1), dtype=np.longdouble)
    rows[1] = inner_last = 1
    # envelope (e + 1)^-k1 is twice any term past index e, as |inner sums|
    # <= (1 + ln N)^(m-1); longdouble, to underflow no sooner than a spacing
    envelope = 2 * np.longdouble(1 + math.log(N)) ** (m - 1)
    last = [0] * m          # each level's sum over the blocks done so far
    for s in range(0, N, BLOCK):
        r = _reciprocals[s:min(s + BLOCK, N)]
        power, top = {1: r}, 1  # power[k] = r^k, one chain of products by r
        for k, p in zip(ks, powers[:, :len(r)]):
            np.multiply(power[top], r, out=p)
            for _ in range(k - top - 1):
                if not p[0 if s else 1]:  # stationary: 1 at n = 1, 0 past it
                    break
                p *= r
            power[k], top = p, k
        for j in reversed(range(1, m)):
            x = rows[j % 2, 1:len(r) + 1]
            x[:] = power[c.parts[j]]
            if c.sign(j) == -1:
                x[s % 2::2] *= -1        # odd n
            if j < m - 1:
                x[1:] *= inner[:-1]      # inner indices strictly below n
                x[0] *= inner_last       # 0 in the first block
            x[0] += last[j]
            inner = np.cumsum(x, out=x)
            inner_last, last[j] = last[j], x[-1]
        # outer level: [1, p_1, ...] . [last + p_0 inner_last, inner_0, ...]
        # adds in order from 0, as the cumulative sum's last element does
        a = power[k1]
        if c.sign(0) == -1:
            a = rows[0, :len(r)]
            a[:] = power[k1]
            a[s % 2::2] *= -1
        b = rows[1, :len(r)]
        b[0] = last[0] + a[0] * inner_last
        a[0] = 1
        last[0] = np.dot(a, b)
        # stationary: each later term is below a quarter ulp of the sum, so
        # it rounds back to it, a power of two included
        e = s + len(r)
        if e < N and (envelope * np.longdouble(e + 1) ** -k1
                      < np.spacing(abs(last[0])) / 4):
            break
    value = float(last[0])

    if c.sign(0) == -1:
        # alternating outer sum: first-omitted-term bound
        tail = 2.0 * (1.0 + math.log(N + 1)) ** (m - 1) * (N + 1) ** (-k1)
    else:
        # inner chains are below (1 + ln n)^(m-1); integrating that envelope
        # over the tail gives the full finite sum, not just its leading term
        L = 1.0 + math.log(N)
        tail = 0.0
        ff = 1.0
        for j in range(m):
            tail += ff * L ** (m - 1 - j) / (k1 - 1) ** (j + 1)
            ff *= (m - 1 - j)
        tail *= N ** (-(k1 - 1))
    return PrecisionValue(value, tail + FLOAT_SLACK)


# --- high-precision evaluator ----------------------------------------------

@functools.lru_cache(maxsize=CACHE_SIZE)
def _half_word_scale(dps: int):
    """Terms M, scale bits B and the bound on rounding to dps + 8 digits."""
    import mpmath as mp
    return (max(80, int(dps * 3.4) + 40), int(dps * 3.33) + 64,  # guard bits
            float(mp.mpf(10) ** (-(dps + 2))))


@functools.lru_cache(maxsize=POWER_ROWS)
def _power_row(k: int, M: int) -> tuple:  # t^k for t = 1..M
    return tuple(t ** k for t in range(1, M + 1))


@functools.lru_cache(maxsize=INNER_ROWS)
def _inner_row(lead, word: tuple, M: int, B: int) -> tuple:
    """Entry t - 1: the floored sum over t > n1 > ... of the levels of
    ``word`` at scale 2^-B, the part around it having letter ``lead``."""
    if not word:
        return (1 << B,) * M
    terms = _level(lead, word, M, B)
    return tuple(accumulate(islice(terms, M - 1), initial=0))


def _level(lead, word: tuple, M: int, B: int):
    """Terms t = 1..M of the level of the first part of ``word``, k its
    weight and a its letter: f^t row[t-1] / t^k floored, f = lead / a."""
    k = 1
    while not word[k - 1]:
        k += 1
    f = lead / word[k - 1]      # +-2^e, e in -2..1
    e = int(math.log2(abs(f)))
    row = _inner_row(word[k - 1], word[k:], M, B)
    if e > 0:                   # shift before the floor
        row = map(lshift, row, range(1, M + 1))
    terms = map(floordiv, row, _power_row(k, M))
    if e < 0:                   # after it: two floors are one floor division
        terms = map(rshift, terms, range(-e, -e * (M + 1), -e))
    return map(mul, terms, cycle((-1, 1))) if f < 0 else terms  # sign last


@functools.lru_cache(maxsize=CACHE_SIZE)
def _half_word_value(word: tuple, dps: int):
    """The iterated integral of ``word`` from 0 to 1/2, an error bound and
    the float magnitude of the value.

    Letters are 0 (form dt/t) and a in {1, -1, 2} (form dt/(a - t)).  A word
    is the partial series Li_s(x) over M >= n1 > ... > nd, the letters of its
    d parts giving x1 = (1/2)/a1 in {+-1/2, 1/4} and x_i = a_(i-1)/a_i in
    {+-1, 2, 1/2}; the empty word is 1.  Its rows are Python integers at
    scale 2^-B, one ``_level`` pass each, and one mpf is made at the end.
    """
    import mpmath as mp
    if not word:
        return mp.mpf(1), 0.0, 1.0
    M, B, rounding = _half_word_scale(dps)
    d = len(word) - word.count(0)
    # before the rows: a word too deep for a float tail raises OverflowError
    tail = 4.0 * 2.0 ** (-M) * float(M + 1) ** (d - 1) / math.factorial(d - 1)
    total = sum(_level(0.5, word, M, B))
    with mp.workdps(dps + 8):
        value = mp.ldexp(mp.mpf(total), -B)
    # Each term is one floor division, off by less than one unit of 2^-B
    # whatever its sign.  The prefix products x1...xj of the level factors
    # are (1/2)/a_j, of modulus <= 1/2, so the terms of level i > 1 reach
    # the value with total weight <= sum_n 2^-n C(n - 1, i - 1) = 1, and the
    # tail past M has the majorant 2^-n1 C(n1 - 1, d - 1).  The floors cost
    # at most M + d - 1 units, inside the 2M d (2 + ln M)^(d-1) counted.
    floors = 2.0 * M * d * (2.0 + math.log(M)) ** (d - 1)
    return value, tail + math.ldexp(floors, -B) + rounding, abs(float(value))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _midpoint_sum(word: tuple, dps: int):
    """Value and bound of the iterated integral of ``word`` over [0, 1]:
    the path is split at 1/2, and the half over [1/2, 1] is the reversed
    prefix over [0, 1/2] with letters a -> 1 - a, negated for each letter
    2 since 1/(-1 - t) = -1/(2 - s) at s = 1 - t."""
    import mpmath as mp
    with mp.workdps(dps):
        total = mp.mpf(0)
        err = 0.0
        for j in range(len(word) + 1):
            suffix = word[j:]
            rev = tuple(1 - a for a in reversed(word[:j]))
            v1, e1, a1 = _half_word_value(suffix, dps)
            v2, e2, a2 = _half_word_value(rev, dps)
            if rev.count(2) % 2:
                v2 = -v2
            total += v1 * v2
            err += a1 * e2 + a2 * e1 + e1 * e2
        err += float(mp.mpf(10) ** (-(dps - 6)))
    return total, err


def eval_mzv_accel(c: Composition, eps: float) -> PrecisionValue:
    """High-precision value via midpoint splitting of the integral word."""
    if not c.admissible:
        raise ValueError("divergent composition %s" % c)
    dps = max(30, int(math.ceil(-math.log10(eps))) + 15)
    try:
        total, err = _midpoint_sum(to_word(c), dps)
    except OverflowError:       # a deep word's tail bound exceeds any float
        err = math.inf
    if not err <= eps:          # a NaN bound is refused too
        raise ArithmeticError(
            "requested eps=%g not reached (bound %g)" % (eps, err))
    return PrecisionValue(total, err)


def eval_combination(comb: ZetaCombination, eps: float) -> PrecisionValue:
    """Evaluate a combination with no divergent factor (eliminate_divergent
    takes its stuffle regularization, T^0 coefficient) and bound the error."""
    import mpmath as mp
    if comb.regularized:
        raise ValueError("combination contains divergent factors")
    terms = sorted(comb._coeffs.items())    # term keys and coefficients
    budget = sum(abs(q) * max(1, len(k)) * 2 ** len(k) for k, q in terms)
    eps_atom = eps / (4 * float(max(budget, 1)))
    values = {c.sort_key: eval_mzv_accel(c, eps_atom)
              for c in comb.compositions()}
    dps = max(30, int(math.ceil(-math.log10(eps_atom))) + 10)
    with mp.workdps(dps):
        total, bound = mp.mpf(0), 0.0
        for k, q in terms:
            prod, lo, err = mp.mpf(1), 1.0, 0.0  # err = Π(|a|+b) - Π|a|
            for f in k:
                pv = values[f]
                prod *= pv.value
                a = abs(float(pv.value))
                err = err * (a + pv.bound) + lo * pv.bound
                lo *= a
            total += mp.mpf(q.numerator) / q.denominator * prod
            bound += abs(float(q)) * err
        # each term's path through the float sums above takes fewer than
        # sum(6·len(k) + 4) roundings, each low by at most 2^-53 relative
        bound *= 1 + sum(6 * len(k) + 4 for k, _ in terms) * 2.0 ** -52
        bound += float(mp.mpf(10) ** (-(dps - 6)))
    return PrecisionValue(total, bound)


def verify_identity(identity, eps: float = 1e-10) -> dict:
    """Numerically test that an identity's combination vanishes.

    Accepts an identity object (with .combination) or a bare combination; a
    regularized one is replaced by its stuffle regularization, T^0
    coefficient, and marked "eliminated".  The shuffle-derived families hold
    in the shuffle regularization instead, which differs from the stuffle one
    only on a term with two or more divergent factors; such a term is refused.
    Pass requires the residual to sit inside the propagated bound *and* the
    bound to meet the requested eps, so a sloppy evaluation cannot pass.
    """
    import mpmath as mp
    comb = getattr(identity, "combination", identity)
    family = getattr(identity, "family", None)
    eliminated = identity.regularized
    if eliminated:
        two = [t for t in comb.terms
               if sum(not f.admissible for f in t.factors) > 1]
        if two and family in ("shuffle", "partial-int"):
            raise EliminationError(
                "term %s has two divergent factors: a %s identity holds in "
                "the shuffle regularization, which is not implemented"
                % (two[0], family))
        comb = eliminate_divergent(comb)
    pv = eval_combination(comb, eps)
    residual = abs(pv.value)
    # real input keeps bound <= eps: every value's error is under eps_atom
    ok = bool(residual <= pv.bound and pv.bound <= eps)
    report = {
        "residual": mp.nstr(residual, 6, strip_zeros=False),
        "bound": "%.3e" % pv.bound,
        "eps": "%.3e" % eps,
        "pass": ok,
    }
    if family is not None:
        report["identity"] = {
            "family": family,
            "parameters": getattr(identity, "parameters", {}),
        }
    if eliminated:
        report["eliminated"] = True
    return report


# --- circle propagator ------------------------------------------------------

def bernoulli_number(k: int) -> Fraction:
    """B_k as an exact rational (B_1 = -1/2 convention)."""
    if k < 0:
        raise ValueError("B_k needs k >= 0, got %d" % k)
    bs = [Fraction(1)]
    for m in range(1, k + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * bs[j]
        bs.append(-acc / (m + 1))
    return bs[k]


def bernoulli_polynomial(k: int, x):
    """B_k(x); exact when x is a Fraction or int."""
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
    total = x * 0
    for j in range(k + 1):
        total += Fraction(math.comb(k, j)) * bernoulli_number(j) * x ** (k - j)
    return total


def propagator_real_closed_form(k: int, u):
    """Real part of the k-th circle propagator away from integer u.

    Even k: -B_k(|u|)/(2 k!); odd k >= 3 picks up sign(u).  Exact (Fraction)
    when u is rational.
    """
    if k < 2:
        raise ValueError("closed form stated for k >= 2")
    if isinstance(u, int):
        u = Fraction(u)
    val = -bernoulli_polynomial(k, abs(u)) / (2 * math.factorial(k))
    if k % 2 == 1:
        val = val * ((u > 0) - (u < 0))
    return val


def eval_propagator(k: int, u, N: int) -> PropagatorValue:
    """Partial Fourier sum sum_{n<=N} e^(2 pi i n u) / (2 pi i n)^k.

    The sum is taken at u exactly, u = p/q as an int or a Fraction.  The
    terms 1/n^k are added as fixed-point integers floor(2^B / n^k) into the
    residue classes of n mod q, which share the phase e^(2 pi i n p/q); at
    most min(q, N + 1) classes are then combined in mpmath at 40 digits.
    Also returns the Bernoulli closed-form real part.
    """
    import mpmath as mp
    if k < 2:
        raise ValueError("k >= 2 required for absolute convergence")
    if N < 1:
        raise ValueError("truncation N = %d is below 1" % N)
    if isinstance(u, float):
        # its exact value has denominator 2^54: one class, one expjpi per n
        raise TypeError("u must be an int or a Fraction, not %r" % u)
    u = Fraction(u)
    if not -1 < u < 1:
        raise ValueError("u must lie in (-1, 1)")
    p, q = u.numerator, u.denominator
    # Each floor is below the true term by less than 2^-B, so the N floors
    # move the sum by less than N 2^-B < 2^-128: inside the 1e-30 below,
    # together with the 40-digit rounding of the class sums.
    B = 128 + N.bit_length()
    one = 1 << B
    classes = [sum(one // n ** k for n in range(r or q, N + 1, q))
               for r in range(min(q, N + 1))]
    with mp.workdps(40):
        total = mp.fsum(mp.mpf(s) * mp.expjpi(mp.mpf(2 * (p * r % q)) / q)
                        for r, s in enumerate(classes))
        total = total / (one * (2j * mp.pi) ** k)
        tail = float((2 * mp.pi) ** (-k)) * N ** (-(k - 1)) / (k - 1)
    return PropagatorValue(total, tail + 1e-30, propagator_real_closed_form(k, u))


# --- free energy ------------------------------------------------------------

def lnz_coefficients(nmax: int):
    """Taylor coefficients of the one-ring free energy: zeta(n)/n for n >= 1.

    The n = 1 entry carries the divergent zeta(1) and is flagged regularized.
    """
    return [zeta(n).scaled(Fraction(1, n)) for n in range(1, nmax + 1)]
