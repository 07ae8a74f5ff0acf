"""Numeric evaluation with explicit error bounds.

Two independent evaluators are kept side by side on purpose: a truncated
nested-sum evaluator (numpy, accumulated in 80-bit longdouble and returned as
a float64, rigorous tail bound) and a high-precision evaluator based on
splitting the iterated-integral word at the midpoint.  Identity verification
always reports a residual together with the propagated bound, never a bare
float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .algebra import ZetaCombination, normalize
from .compositions import Composition, from_word, to_word

FLOAT_SLACK = 1e-12  # headroom for float64 roundoff in the direct evaluator
MAX_TRUNCATION = 10 ** 7  # direct-sum arrays are 16 bytes per index


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

    Cost O(N m): one cumulative-sum pass per depth level.
    """
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
    r = np.longdouble(1) / np.arange(1, N + 1, dtype=np.longdouble)
    csum = None
    for j in reversed(range(c.depth)):
        x = r.copy()
        for _ in range(c.parts[j] - 1):
            x *= r
        if c.sign(j) == -1:
            x[::2] *= -1                 # odd n
        if csum is not None:
            x[1:] *= csum[:-1]           # inner indices strictly below n
            x[0] = 0
        csum = np.cumsum(x, out=x)
    value = float(csum[-1])

    m = c.depth
    k1 = c.parts[0]
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

_half_cache: dict = {}
_accel_cache: dict = {}


def _half_word_value(word: tuple, dps: int):
    """The iterated integral of ``word`` from 0 to 1/2, with an error bound.

    Words ending in 1 are partial one-variable multiple polylogarithm series
    at 1/2; the empty word is 1.
    """
    if not word:
        return mp.mpf(1), 0.0
    key = (word, dps)
    hit = _half_cache.get(key)
    if hit is not None:
        return hit
    s = from_word(word).parts
    d = len(s)
    M = max(80, int(dps * 3.4) + 40)
    with mp.workdps(dps + 8):
        half = mp.mpf(1) / 2
        prev = None
        for j in reversed(range(d)):
            running = mp.mpf(0)
            row = [mp.mpf(0)] * (M + 1)
            power = mp.mpf(1)
            for t in range(1, M + 1):
                x = mp.mpf(t) ** (-s[j])
                if j == 0:
                    power *= half
                    x *= power
                if prev is not None:
                    x *= prev[t - 1]
                running += x
                row[t] = running
            prev = row
        value = prev[M]
    tail = 4.0 * 2.0 ** (-M) * float(M + 1) ** (d - 1) / math.factorial(d - 1)
    out = (value, tail + float(mp.mpf(10) ** (-(dps + 2))))
    _half_cache[key] = out
    return out


def eval_mzv_accel(c: Composition, eps: float) -> PrecisionValue:
    """High-precision value via midpoint splitting of the integral word."""
    if c.signs is not None:
        raise ValueError("accelerated evaluator handles unsigned compositions")
    if not c.admissible:
        raise ValueError("divergent composition %s" % c)
    dps = max(30, int(math.ceil(-math.log10(eps))) + 15)
    key = (c.parts, dps)
    hit = _accel_cache.get(key)
    if hit is not None:
        return hit
    word = to_word(c)
    n = len(word)
    with mp.workdps(dps):
        total = mp.mpf(0)
        err = 0.0
        for j in range(n + 1):
            suffix = word[j:]
            rev = tuple(1 - a for a in reversed(word[:j]))
            v1, e1 = _half_word_value(suffix, dps)
            v2, e2 = _half_word_value(rev, dps)
            total += v1 * v2
            err += abs(float(v1)) * e2 + abs(float(v2)) * e1 + e1 * e2
        err += float(mp.mpf(10) ** (-(dps - 6)))
    out = PrecisionValue(total, err)
    if err > eps:
        raise ArithmeticError(
            "requested eps=%g not reached (bound %g)" % (eps, err))
    _accel_cache[key] = out
    return out


def eval_combination(comb: ZetaCombination, eps: float) -> PrecisionValue:
    """Evaluate a zeta(1)-free combination with a propagated error bound."""
    comb = normalize(comb)
    if comb.regularized:
        raise ValueError("combination contains divergent factors")
    budget = sum(
        abs(t.coefficient) * max(1, len(t.factors)) * 2 ** len(t.factors)
        for t in comb.terms
    )
    eps_atom = eps / (4 * float(max(budget, 1)))
    values = {c: eval_mzv_accel(c, eps_atom) for c in comb.compositions()}
    dps = max(30, int(math.ceil(-math.log10(eps_atom))) + 10)
    with mp.workdps(dps):
        total = mp.mpf(0)
        bound = 0.0
        for t in comb.terms:
            prod = mp.mpf(1)
            lo = 1.0
            hi = 1.0
            for f in t.factors:
                pv = values[f]
                prod *= pv.value
                a = abs(float(pv.value))
                lo *= a
                hi *= a + pv.bound
            coeff = mp.mpf(t.coefficient.numerator) / t.coefficient.denominator
            total += coeff * prod
            bound += abs(float(t.coefficient)) * (hi - lo)
        bound += float(mp.mpf(10) ** (-(dps - 6)))
    return PrecisionValue(total, bound)


def verify_identity(identity, eps: float = 1e-10) -> dict:
    """Numerically test that an identity's combination vanishes.

    Accepts an identity object (with .combination) or a bare combination.
    Pass requires the residual to sit inside the propagated bound *and* the
    bound to meet the requested eps, so a sloppy evaluation cannot pass.
    """
    comb = getattr(identity, "combination", identity)
    pv = eval_combination(comb, eps)
    residual = abs(pv.value)
    ok = bool(residual <= pv.bound and pv.bound <= eps)
    report = {
        "residual": mp.nstr(residual, 6, strip_zeros=False),
        "bound": "%.3e" % pv.bound,
        "eps": "%.3e" % eps,
        "pass": ok,
    }
    family = getattr(identity, "family", None)
    if family is not None:
        report["identity"] = {
            "family": family,
            "parameters": getattr(identity, "parameters", {}),
        }
    return report


# --- circle propagator ------------------------------------------------------

def bernoulli_number(k: int) -> Fraction:
    """B_k as an exact rational (B_1 = -1/2 convention)."""
    if k < 0:
        raise ValueError
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

    The sum is taken at u exactly, u = p/q as a Fraction (a float u is its
    exact binary value).  The terms 1/n^k are added as fixed-point integers
    floor(2^B / n^k) into the residue classes of n mod q, which share the
    phase e^(2 pi i n p/q); at most min(q, N + 1) classes are then combined
    in mpmath at 40 digits.  Also returns the Bernoulli closed-form real part.
    """
    if k < 2:
        raise ValueError("k >= 2 required for absolute convergence")
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
    from .algebra import zeta

    return [zeta(n).scaled(Fraction(1, n)) for n in range(1, nmax + 1)]
