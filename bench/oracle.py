"""Correctness oracle for benchmark ops, run after the timed loop.

Each op ends in one of four outcomes:

- ``ok``: the output was delivered and is correct;
- ``refused``: an op of a known-defect slice failed the documented way,
  with the exit code and error text of ``workloads.DEFECT_ERRORS``;
- ``failed``: any other error, or a bound that missed the requested eps;
- ``wrong``: the output was delivered and is incorrect.

Where the oracle needs a reference it prefers code of its own: exact
truncated sums, the shuffle product of binary words, Bernoulli polynomials
and a mod-p rank of the permutation system are written here from their
definitions.  Where it uses the package (accelerated values at 1e-15, the
emitter route of C07, ``instantiate_expression``) the reference runs after
the timed loop and so cannot warm a cache the loop uses.
"""

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np

from workloads import DEFECT_ERRORS

OK, REFUSED, FAILED, WRONG = "ok", "refused", "failed", "wrong"

# Rank of the permutation system over the unknown columns, by multiplicity
# shape of the symbol pattern.  Distinct symbols give l! - (l-1)!.  Each
# entry equals the Fraction rank of mzv.linalg and the mod-p rank of
# ``modp_rank``; runs re-derive the mod-p rank of every shape they use.
RANK_TABLE = {
    (2, 1): 2, (3,): 1,
    (2, 1, 1): 9, (2, 2): 5, (3, 1): 3,
    (2, 1, 1, 1): 48, (2, 2, 1): 24, (3, 1, 1): 16, (3, 2): 8,
    (2, 2, 1, 1): 150, (2, 2, 2): 76, (3, 2, 1): 50,
}

PRIME = 2 ** 31 - 1
# The JSON bound is printed with 4 significant digits and the value with 16;
# this much slack covers the rounding of both.
BOUND_SLACK = 1e-3
VALUE_SLACK = 1e-15


def expected_rank(shape):
    shape = tuple(sorted(shape, reverse=True))
    if all(m == 1 for m in shape):
        l = len(shape)
        return math.factorial(l) - math.factorial(l - 1)
    return RANK_TABLE[shape]


# --- independent references -------------------------------------------------

def truncated_exact(parts, N):
    """Exact sum over N >= n1 > n2 > ... >= 1 of prod n_i^-k_i."""
    below = [Fraction(1)] * (N + 2)        # empty chain
    for k in reversed(parts):
        run = Fraction(0)
        nxt = [Fraction(0)] * (N + 2)
        for n in range(1, N + 1):
            nxt[n] = run
            run += below[n] / n ** k
        nxt[N + 1] = run
        below = nxt
    return below[N + 1]


def _word(parts):
    out = []
    for k in parts:
        out += [0] * (k - 1) + [1]
    return tuple(out)


def _parts(word):
    parts, run = [], 0
    for a in word:
        if a == 0:
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return tuple(parts)


def word_shuffle(u, v):
    """Shuffle product of two words, as word -> multiplicity."""
    out = Counter()
    m, n = len(u), len(v)
    for pos in itertools.combinations(range(m + n), m):
        pos = set(pos)
        iu, iv = iter(u), iter(v)
        out[tuple(next(iu) if i in pos else next(iv)
                  for i in range(m + n))] += 1
    return out


def peacock_value(trunk, b1, b2):
    """zeta(prefix) concatenated with the shuffle of the two branch words."""
    prefix = _word(trunk[:-1])
    total = Counter()
    for w, c in word_shuffle(_word(b1), _word(b2)).items():
        total[_parts(prefix + w)] += c
    return {k: Fraction(v) for k, v in total.items()}


def half_moon_terms(a, b, c):
    """Partial fractions of 1/(x^b y^c) summed against (x+y)^-a: the
    Tornheim sum T(b, c; a) as depth-2 sums."""
    w = a + b + c
    out = Counter()
    for j in range(1, b + 1):
        out[(w - j, j)] += math.comb(b + c - j - 1, c - 1)
    for j in range(1, c + 1):
        out[(w - j, j)] += math.comb(b + c - j - 1, b - 1)
    return out


def bernoulli_poly(k, x):
    return {
        2: x * x - x + Fraction(1, 6),
        3: x ** 3 - Fraction(3, 2) * x * x + x / 2,
        4: x ** 4 - 2 * x ** 3 + x * x - Fraction(1, 30),
    }[k]


def propagator_closed(k, u):
    val = -bernoulli_poly(k, abs(u)) / (2 * math.factorial(k))
    if k % 2:
        val *= (u > 0) - (u < 0)
    return val


def split_pairs(symbols):
    """Every ordered split (u, v) of the symbol multiset, u and v nonempty."""
    counts = Counter(symbols)
    items = sorted(counts)
    for sub in itertools.product(*(range(counts[s] + 1) for s in items)):
        if sum(sub) in (0, len(symbols)):
            continue
        U = [s for s, m in zip(items, sub) for _ in range(m)]
        V = [s for s, m in zip(items, sub) for _ in range(counts[s] - m)]
        for u in sorted(set(itertools.permutations(U))):
            for v in sorted(set(itertools.permutations(V))):
                yield u, v


def modp_rank(symbols):
    """(rank mod PRIME, row count) of the permutation system: one row per
    ordered split, the unknowns being the full-length permutations, whose
    coefficients are the shuffle multiplicities."""
    unknowns = sorted(set(itertools.permutations(symbols)))
    index = {w: i for i, w in enumerate(unknowns)}
    rows = []
    for u, v in split_pairs(symbols):
        row = np.zeros(len(unknowns), dtype=np.int64)
        for w, c in word_shuffle(u, v).items():
            row[index[w]] += c
        rows.append(row)
    A = np.array(rows) % PRIME
    rank = 0
    for col in range(A.shape[1]):
        nz = np.nonzero(A[rank:, col])[0]
        if not len(nz):
            continue
        r = rank + nz[0]
        A[[rank, r]] = A[[r, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), PRIME - 2, PRIME) % PRIME
        f = A[rank + 1:, col].copy()
        A[rank + 1:] = (A[rank + 1:] - f[:, None] * A[rank]) % PRIME
        rank += 1
        if rank == A.shape[0]:
            break
    return rank, len(rows)


# --- the oracle -------------------------------------------------------------

def refusal(op, res):
    """REFUSED when an op of a known-defect slice exited 2 with its defect's
    error text, FAILED for any other error."""
    text = DEFECT_ERRORS.get(op["defect"])
    if (text and res["code"] == 2 and res.get("stage") != "derive"
            and text in res["err"]):
        return REFUSED
    return FAILED


def missed_eps(op):
    """Outcome of a bound that missed the requested eps."""
    if op["defect"] and DEFECT_ERRORS[op["defect"]] is None:
        return REFUSED
    return FAILED


class Oracle:
    def __init__(self):
        self._accel = {}
        self._direct = {}
        self._modp = {}
        self._seashell = {}
        self._seen = {}

    def check(self, op, res):
        """(outcome, detail) of one op; CLI ops with the same argv and the
        same output get the verdict already reached for them."""
        if "out" not in res:
            return self._check(op, res)
        key = (json.dumps(op, sort_keys=True), res["code"], res["out"],
               res["err"])
        if key not in self._seen:
            self._seen[key] = self._check(op, res)
        return self._seen[key]

    def _check(self, op, res):
        try:
            if res.get("code") is None:
                return FAILED, res.get("err", "").strip()[-300:]
            kind = op["kind"]
            if kind == "derive-verify":
                return self._derive_verify(op, res)
            if kind == "propagator":
                return self._propagator(op, res["value"])
            if kind == "basis":
                return self._basis(op, res["value"])
            if kind == "cross-check":
                ok = res["value"].is_zero()
                return (OK, "") if ok else (WRONG, "nonzero residual")
            if res["code"] != 0:
                return refusal(op, res), res["err"].strip()
            obj = json.loads(res["out"])
            command = op["argv"][0]
            if command == "eval":
                return self._eval(op, obj)
            if command == "rank":
                return self._rank(op, obj)
            if command == "reduce":
                return self._reduce(op, obj)
            if command == "derive":
                return self._derive(op, obj)
        except (ValueError, KeyError, TypeError) as exc:
            return WRONG, "unreadable output: %r" % exc
        raise ValueError("no oracle for op %r" % op)

    # -- verify-stream ----------------------------------------------------
    def _derive_verify(self, op, res):
        code = res["code"]
        if res["stage"] == "derive" or code not in (0, 1):
            return refusal(op, res), res["err"].strip()
        report = json.loads(res["out"])
        if (code == 0) != report["pass"]:
            return WRONG, "exit code %d disagrees with the report" % code
        residual = float(report["residual"])
        bound = float(report["bound"])
        eps = float(op["eps"])
        true = op["perturb"] is None
        if report["pass"]:
            if bound > eps * (1 + BOUND_SLACK):
                return WRONG, "pass with bound %g above eps %g" % (bound, eps)
            return (OK, "") if true else (WRONG, "perturbed identity passed")
        if residual > bound:
            return (WRONG, "true identity refuted") if true else (OK, "")
        if bound <= eps:
            return WRONG, "fail although the residual is within a bound below eps"
        return missed_eps(op), "bound %g missed eps %g" % (bound, eps)

    # -- truncated-sums ---------------------------------------------------
    def _eval(self, op, obj):
        from mpmath import mp
        from mzv import composition, numerics

        parts = tuple(op["parts"])
        if obj["composition"] != list(parts):
            return WRONG, "composition echo %r" % obj["composition"]
        with mp.workdps(30):
            v = mp.mpf(obj["value"])
            b = float(obj["bound"])
            if all(p > 0 for p in parts):
                key = parts
                if key not in self._accel:
                    self._accel[key] = numerics.eval_mzv_accel(
                        composition(*parts), 1e-15)
                ref = self._accel[key]
                ref_value, ref_bound = ref.value, ref.bound
            elif len(parts) == 1:
                ref_value, ref_bound = -mp.altzeta(-parts[0]), 1e-25
            else:
                key = (parts, op["N"] // 4)
                if key not in self._direct:
                    self._direct[key] = numerics.eval_mzv_direct(
                        composition(*parts), op["N"] // 4)
                ref = self._direct[key]
                ref_value, ref_bound = mp.mpf(ref.value), ref.bound
            diff = float(abs(v - ref_value))
        limit = b * (1 + BOUND_SLACK) + ref_bound + VALUE_SLACK * (abs(float(v)) + 1)
        if diff > limit:
            return WRONG, "value off by %.3e, bounds allow %.3e" % (diff, limit)
        if op["eps"] and b > float(op["eps"]):
            return missed_eps(op), "bound %g missed eps %s" % (b, op["eps"])
        return OK, ""

    def _propagator(self, op, pv):
        from mpmath import mp

        u = Fraction(op["p"], op["q"])
        closed = propagator_closed(op["k"], u)
        if pv.bernoulli_real != closed:
            return WRONG, "closed form %s != %s" % (pv.bernoulli_real, closed)
        with mp.workdps(40):
            diff = abs(mp.re(pv.value) - mp.mpf(closed.numerator) / closed.denominator)
            if diff > pv.bound:
                return WRONG, "partial sum off by %s, bound %g" % (diff, pv.bound)
        return OK, ""

    # -- rank-systems -----------------------------------------------------
    def _rank(self, op, obj):
        shape = tuple(sorted(op["shape"], reverse=True))
        want = expected_rank(shape)
        symbols = tuple(obj["symbols"])
        if "--pattern" in op["argv"]:
            given = op["argv"][op["argv"].index("--pattern") + 1].split(",")
            if list(symbols) != given:
                return WRONG, "symbols echo %r" % (symbols,)
        if shape not in self._modp:
            self._modp[shape] = modp_rank(symbols)
        modp, rows = self._modp[shape]
        if modp != want:
            return WRONG, "table rank %d but mod-p rank %d for %s" % (
                want, modp, shape)
        if obj["rank"] != want or obj["rows"] != rows:
            return WRONG, "rank %d rows %d, want %d and %d" % (
                obj["rank"], obj["rows"], want, rows)
        return OK, ""

    def _basis(self, op, br):
        from mzv.linalg import instantiate_expression

        l = op["l"]
        want = math.factorial(l) - math.factorial(l - 1)
        if (br.rank, len(br.basis), len(br.expressions)) != \
                (want, math.factorial(l - 1), want):
            return WRONG, "rank %d, basis %d, expressions %d" % (
                br.rank, len(br.basis), len(br.expressions))
        rng = random.Random(op["check"])
        comps = rng.sample(sorted(br.expressions), 3)
        for _ in range(2):
            assignment = {s: rng.randint(1, 4) for s in br.symbols}
            for comp in comps:
                comb = instantiate_expression(comp, br.expressions[comp],
                                              assignment)
                # quasi-shuffle rows hold exactly for truncated sums too
                total = Fraction(0)
                for t in comb.terms:
                    prod = t.coefficient
                    for f in t.factors:
                        prod *= truncated_exact(f.parts, 6)
                    total += prod
                if total != 0:
                    return WRONG, "expression for %s fails at %s" % (
                        comp, assignment)
        return OK, ""

    # -- symbolic-rewrite -------------------------------------------------
    def _reduce(self, op, obj):
        from mzv import identities, numerics
        from mzv.algebra import ProductTerm, ZetaCombination, combination_from_json
        from mzv.compositions import Composition

        check = op["check"]
        route = check["route"]
        value = obj["value"]
        if route == "nested-sum":
            want = [{"coefficient": "1/1", "factors": [check["parts"]]}]
            ok = value == want
        elif route == "partial-int":
            parts = check["parts"]
            emit = (identities.partial_integration_length2 if len(parts) == 2
                    else identities.partial_integration_length3)
            ok = value == emit(*parts).rhs.to_json()
        elif route == "word-shuffle":
            got = {}
            for t in combination_from_json(value).terms:
                if len(t.factors) != 1:
                    return WRONG, "product term %s" % t
                got[t.factors[0].parts] = t.coefficient
            ok = got == peacock_value(tuple(check["trunk"]),
                                      tuple(check["b1"]), tuple(check["b2"]))
        elif route == "half-moon":
            closed = ZetaCombination(tuple(
                ProductTerm(Fraction(c), (Composition(parts),))
                for parts, c in half_moon_terms(*check["abc"]).items()))
            diff = combination_from_json(value) - closed
            pv = numerics.eval_combination(diff, 1e-15)
            ok = abs(pv.value) <= pv.bound
        else:
            raise ValueError("unknown route %r" % route)
        return (OK, "") if ok else (WRONG, "%s route disagrees" % route)

    def _derive(self, op, obj):
        from mzv import diagrams, identities, numerics

        check = op["check"]
        parts = tuple(check["parts"])
        if check["route"] == "trailing-one":
            parts += (1,)
        if parts not in self._seashell:
            try:
                self._seashell[parts] = diagrams.reduce(
                    diagrams.build_seashell(parts),
                    strategy="rightward").to_json()
            except diagrams.IrreducibleDiagramError:
                self._seashell[parts] = None
        lhs = [{"coefficient": "1/1", "factors": [list(parts)]}]
        ok = obj["lhs"] == lhs and obj["rhs"] == self._seashell[parts]
        if not ok and check["route"] == "trailing-one" and obj["lhs"] == lhs:
            # about half of the trailing-one forms differ from the seashell
            # route by a relation; those are checked numerically
            report = numerics.verify_identity(
                identities.identity_from_json(obj), eps=1e-15)
            ok = report["pass"]
        return (OK, "") if ok else (WRONG, "%s route disagrees" % check["route"])


def plant_wrong(op, res):
    """A copy of ``res`` carrying a wrong answer, for the oracle self-check."""
    res = dict(res)
    kind = op["kind"]
    if kind == "derive-verify":
        report = json.loads(res["out"])
        report["pass"] = not report["pass"]
        res["code"] = 0 if report["pass"] else 1
        res["out"] = json.dumps(report)
    elif kind == "propagator":
        pv = res["value"]
        res["value"] = replace(pv, value=pv.value + 1)
    elif kind == "basis":
        res["value"] = replace(res["value"], rank=res["value"].rank + 1)
    elif kind == "cross-check":
        from mzv.algebra import zeta
        res["value"] = res["value"] + zeta(2)
    else:
        obj = json.loads(res["out"])
        command = op["argv"][0]
        if command == "eval":
            b = float(obj["bound"])
            obj["value"] = repr(float(obj["value"]) + 10 * (b + 1))
        elif command == "rank":
            obj["rank"] += 1
        elif command == "reduce":
            obj["value"].append({"coefficient": "1/1", "factors": [[2]]})
        elif command == "derive":
            obj["rhs"].append({"coefficient": "1/1", "factors": [[2]]})
        res["out"] = json.dumps(obj)
    return res


def plant_other_failure(op, res):
    """A copy of ``res`` in which the op exits 2 with an error other than its
    known defect's, for the oracle self-check."""
    return dict(res, code=2, out="", err="mzv: error: an unrelated failure\n")
