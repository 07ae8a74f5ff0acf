import hashlib
import itertools
import json
from fractions import Fraction
from math import comb, prod

import pytest

from conftest import all_compositions, brute_combination, signed_compositions
from mzv import (
    Composition,
    EliminationError,
    ProductTerm,
    ZetaCombination,
    FAMILIES,
    diagrams,
    composition,
    derive,
    eliminate_divergent,
    identity_from_json,
    iter_admissible,
    normalize,
    partial_integration,
    partial_integration_cross_check,
    partial_integration_length2,
    partial_integration_length3,
    permutation_identity,
    reflection,
    shuffle,
    shuffle_identity,
    stuffle,
    three_point_identity,
    trailing_one,
    verify_identity,
    zeta,
)


def test_reflection_matches_permutation():
    r = reflection(2, 3)
    p = permutation_identity((2,), (3,))
    assert normalize(r.combination - p.combination).is_zero()
    assert r.lhs == zeta(2) * zeta(3)
    assert verify_identity(r)["pass"]


def test_permutation_identity_structure():
    ident = permutation_identity((2, 1), (2,))
    assert ident.family == "permutation"
    assert ident.weight == 5
    assert not ident.regularized
    assert verify_identity(ident)["pass"]


def test_permutation_identity_signed():
    # signed exponents go through the same domain split; checked against
    # the truncated-series oracle where the split is an exact reordering
    ident = permutation_identity(composition(2, -1), composition(-3,))
    assert not ident.regularized
    residual = brute_combination(ident.combination, 200)
    assert abs(residual) < 1e-12


def _integer_producers():
    c312 = composition(3, 1, 2)
    yield "stuffle", stuffle(c312, composition(2, 2))
    ident = permutation_identity((2, 1), (3,))
    yield "permutation", ident.lhs + ident.rhs
    yield "shuffle_expansion", diagrams.shuffle_expansion((2, 1), (3,))
    for variant in ("rightward", "leftward"):
        ident = partial_integration((3, 2, 2), variant)
        yield "partial-int " + variant, ident.lhs + ident.rhs
        yield ("partial-int %s eliminated" % variant,
               eliminate_divergent(ident.combination))
    ident = three_point_identity(2, 3, 4)
    yield "three-point", ident.lhs + ident.rhs
    seashell = diagrams.build_seashell((3, 1, 2))
    for strategy in ("structural", "rightward", "auto"):
        yield "reduce seashell " + strategy, diagrams.reduce(seashell, strategy)
    peacock = diagrams.build_peacock((2, 0), (2, 1), (3,))
    for strategy in ("shuffle", "auto"):
        yield "reduce peacock " + strategy, diagrams.reduce(peacock, strategy)
    half_moon = diagrams.build_half_moon(2, 1, 2)
    yield "reduce half-moon auto", diagrams.reduce(half_moon, "auto")


@pytest.mark.parametrize(
    "name,comb", list(_integer_producers()),
    ids=[name for name, _ in _integer_producers()])
def test_integer_coefficients_stay_int(name, comb):
    # no division happens on these paths, so every coefficient is an int
    assert comb.terms
    assert all(type(t.coefficient) is int for t in comb.terms), comb


def test_permutation_sweep_weight_six():
    comps = list(iter_admissible(4))
    pairs = [(l, r) for l in comps for r in comps
             if l.weight + r.weight <= 6]
    assert len(pairs) == 17
    for l, r in pairs:
        rep = verify_identity(permutation_identity(l, r), eps=1e-9)
        assert rep["pass"], (l, r, rep)


def test_shuffle_identity_depth_one_pairs():
    s = shuffle_identity((2,), (2,))
    assert s.lhs == zeta(2) * zeta(2)
    assert s.rhs == normalize(zeta(3, 1).scaled(4) + zeta(2, 2).scaled(2))
    s = shuffle_identity((2,), (3,))
    assert s.rhs == normalize(
        zeta(4, 1).scaled(6) + zeta(3, 2).scaled(3) + zeta(2, 3))


def test_shuffle_identity_numeric():
    for left, right in [((2,), (2, 1)), ((2, 1), (2, 1)), ((3,), (2, 2))]:
        ident = shuffle_identity(left, right)
        assert not ident.regularized
        assert verify_identity(ident, eps=1e-9)["pass"]


def test_shuffle_and_stuffle_differ_termwise():
    sh = shuffle_identity((2,), (3,))
    st = permutation_identity((2,), (3,))
    assert not normalize(sh.rhs - st.rhs).is_zero()
    assert verify_identity(normalize(sh.rhs - st.rhs))["pass"]


def test_partial_integration_length2_closed_forms():
    ident = partial_integration_length2(2, 1)
    assert ident.lhs == zeta(2, 1)
    assert ident.rhs == zeta(3)
    ident = partial_integration_length2(3, 1)
    assert ident.rhs == normalize(zeta(4) - zeta(2, 2))


def test_partial_integration_length2_sweep():
    pairs = [(a, b) for a in range(2, 8) for b in range(1, 7) if a + b <= 8]
    assert len(pairs) == 21
    for a, b in pairs:
        ident = partial_integration_length2(a, b)
        assert not ident.regularized
        assert verify_identity(ident, eps=1e-9)["pass"], (a, b)


def test_partial_integration_length2_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partial_integration_length2(1, 2)


def test_partial_integration_length3():
    ident = partial_integration_length3(2, 1, 1)
    assert ident.lhs == zeta(2, 1, 1)
    assert ident.rhs == normalize(zeta(2, 2) + zeta(3, 1))
    triples = [(a, b, c) for a in range(2, 6) for b in range(1, 5)
               for c in range(1, 5) if a + b + c <= 7]
    assert len(triples) == 20
    for t in triples:
        for variant in ("rightward", "alternative"):
            ident = partial_integration_length3(*t, variant=variant)
            assert not ident.regularized
            assert verify_identity(ident, eps=1e-9)["pass"], (t, variant)


def test_length3_variants_differ_but_agree():
    r = partial_integration_length3(2, 2, 1, variant="rightward")
    a = partial_integration_length3(2, 2, 1, variant="alternative")
    assert not normalize(r.rhs - a.rhs).is_zero()
    assert verify_identity(normalize(r.rhs - a.rhs))["pass"]


def test_raw_partial_integration_is_regularized():
    raw = partial_integration((2, 1), variant="rightward")
    assert raw.regularized
    # eliminating the divergent pieces of lhs - rhs leaves the finite
    # content of the identity, here zeta(2,1) - zeta(3)
    fin = eliminate_divergent(raw.combination)
    assert fin == normalize(zeta(2, 1) - zeta(3))
    raw = partial_integration((2, 1), variant="leftward")
    assert raw.lhs == zeta(composition(1)) * zeta(composition(2))
    assert raw.combination.regularized
    fin = eliminate_divergent(raw.combination)
    assert not fin.regularized
    assert verify_identity(fin, eps=1e-10)["pass"]


def test_raw_rightward_eliminates_for_all_small_compositions():
    # the divergent pieces always cancel and the finite remainder is a
    # true identity
    for c in iter_admissible(7, min_depth=2):
        raw = partial_integration(c.parts, variant="rightward")
        fin = eliminate_divergent(raw.combination)
        assert not fin.regularized, c
        assert verify_identity(fin, eps=1e-9)["pass"], c


def closed_form_rightward_rhs(ks):
    """The rightward expansion as it once ran: nested binomial chains.

    One block per split position kappa, plus a final block of two-factor
    products carrying the leftover single sum.  Each block runs over the
    descending chains n_(m-1) >= ... >= n_(kappa+1) bounded by k_m.
    """
    m = len(ks)
    k = (0,) + tuple(ks)
    terms = []
    sign_last = (-1) ** (k[m] % 2)

    def descending_chains(top, length):
        return itertools.combinations_with_replacement(
            range(top, 0, -1), length)

    def tail_coeff(n, start):
        return prod(comb(k[j] - n[j] + n[j + 1] - 1, k[j] - 1)
                    for j in range(start, m))

    for kappa in range(1, m):
        for chain in descending_chains(k[m], m - 1 - kappa):
            for v in range(1, k[kappa] + 1):
                n = (0,) * kappa + (v,) + chain[::-1] + (k[m],)
                coeff = comb(k[kappa] - v + n[kappa + 1] - 1,
                             n[kappa + 1] - 1) * tail_coeff(n, kappa + 1)
                arg = k[1:kappa] + (v,) + tuple(
                    k[j] - n[j] + n[j + 1] for j in range(kappa, m))
                terms.append(
                    ProductTerm(sign_last * coeff, (Composition(arg),)))

    for chain in descending_chains(k[m], m - 1):
        n = (0,) + chain[::-1] + (k[m],)
        sign = (-1) ** ((k[m] - n[1]) % 2)
        arg = tuple(k[j] - n[j] + n[j + 1] for j in range(1, m))
        terms.append(ProductTerm(sign * tail_coeff(n, 1),
                                 (Composition((n[1],)), Composition(arg))))
    return normalize(ZetaCombination(tuple(terms)))


def test_rightward_walk_matches_the_closed_form():
    # every path count of the walk comes from the shared partial-integration
    # kernel; the binomial chains are an independent derivation of the same
    # expansion
    comps = [ks for ks in all_compositions(9) if len(ks) >= 2]
    assert len(comps) == 502
    for ks in comps:
        assert (partial_integration(ks, "rightward").rhs.to_json()
                == closed_form_rightward_rhs(ks).to_json()), ks


def closed_form_partial_int_3(a, b, c):
    """The depth-3 rightward expansion as it once ran: triple binomial sums.

    Depth-3 sums (a, n, b+c-n) and (m, w-m-n, n), and products of a single
    sum m with a depth-2 sum (w-m-n, n), each with its binomial path count.
    """
    w = a + b + c
    terms = []
    for n in range(1, b + 1):
        terms.append(ProductTerm((-1) ** (c % 2) * comb(b + c - n - 1, c - 1),
                                 (Composition((a, n, b + c - n)),)))
    for n in range(1, c + 1):
        for m in range(1, a + 1):
            terms.append(ProductTerm(
                (-1) ** (b % 2) * comb(b + c - n - 1, b - 1)
                * comb(w - m - n - 1, b + c - n - 1),
                (Composition((m, w - m - n, n)),)))
        for m in range(1, b + c - n + 1):
            terms.append(ProductTerm(
                (-1) ** ((b + m) % 2) * comb(b + c - n - 1, b - 1)
                * comb(w - m - n - 1, a - 1),
                (Composition((m,)), Composition((w - m - n, n)))))
    return normalize(ZetaCombination(tuple(terms)))


def test_partial_int_3_rightward_matches_the_closed_form():
    # the emitter is the rightward sweep on reduce's reading of the seashell,
    # so C07's comparison with reduce is the walk against itself; the triple
    # binomial sums are an independent derivation of the same expansion
    triples = [(a, b, c) for a in range(2, 13) for b in range(1, 12)
               for c in range(1, 12) if a + b + c <= 14]
    assert len(triples) == 286
    for a, b, c in triples:
        got = partial_integration_length3(a, b, c).rhs
        want = eliminate_divergent(closed_form_partial_int_3(a, b, c))
        assert got.to_json() == want.to_json(), (a, b, c)
        assert str(got) == str(want), (a, b, c)


def test_cross_check_substitution_is_zero():
    for parts in [(2, 1), (3, 2), (2, 1, 1), (2, 2, 1, 1), (4, 1, 1, 2)]:
        assert partial_integration_cross_check(parts).is_zero()


def test_trailing_one_pinned_cases():
    ident = trailing_one((2,))
    assert ident.lhs == zeta(2, 1)
    assert ident.rhs == zeta(3)
    ident = trailing_one((3,))
    assert ident.rhs == normalize(zeta(4) - zeta(2, 2))
    ident = trailing_one((2, 1))
    assert ident.rhs == normalize(zeta(2, 2) + zeta(3, 1))


def test_trailing_one_agrees_with_length3():
    # two independent derivations of zeta(a,b,1); the two forms need
    # not coincide termwise (at (2,2) they differ by a depth-3 identity)
    # but their difference always evaluates to zero
    for x in [(2, 1), (3, 1), (2, 2), (4, 1)]:
        t = trailing_one(x)
        p = partial_integration_length3(x[0], x[1], 1)
        diff = normalize(t.combination - p.combination)
        assert verify_identity(diff, eps=1e-10)["pass"], x


def test_trailing_one_sweep():
    for c in iter_admissible(7):
        ident = trailing_one(c.parts)
        assert not ident.regularized
        assert verify_identity(ident, eps=1e-9)["pass"], c


def test_trailing_one_is_hoffmans_relation():
    # lhs - rhs is stuffle(1, x) - shuffle(1, x) divided by the coefficient
    # of zeta(x, 1) there
    for x in iter_admissible(9):
        hoffman = normalize(stuffle(composition(1), x)
                            - shuffle((1,), x))
        coeff = dict((t.factors, t.coefficient) for t in hoffman.terms)[
            (composition(*x.parts, 1),)]
        assert trailing_one(x).combination.scaled(coeff) == hoffman, x


def _signed(max_weight):
    return [composition(*c) for c in signed_compositions(max_weight)
            if min(c) < 0]


def test_signed_trailing_one_verifies():
    bases = [x for x in _signed(5) if x.admissible]
    assert len(bases) == 146
    for x in bases:
        ident = trailing_one(x)
        assert ident.lhs == zeta(composition(*x.to_json(), 1))
        assert verify_identity(ident, eps=1e-20)["pass"], x


def test_signed_leftward_partial_integration_verifies():
    # the head and the tail keep their signs; a divergent factor is the
    # shuffle regularization's case, not this one's
    count = 0
    for c in _signed(6):
        js = c.to_json()
        if c.depth < 2 or not (composition(js[0]).admissible
                               and composition(*js[1:]).admissible):
            continue
        ident = partial_integration(c, "leftward")
        assert ident.lhs == zeta(js[0]) * zeta(*js[1:])
        assert verify_identity(ident, eps=1e-20)["pass"], c
        count += 1
    assert count == 302


@pytest.mark.parametrize("check", [
    lambda c: partial_integration(c, "rightward"),
    partial_integration_cross_check,
])
def test_signed_rightward_partial_integration_is_refused(check):
    # the rightward expansion is a binomial rearrangement of unsigned sums
    with pytest.raises(ValueError) as exc:
        check(composition(2, -1, 3))
    assert str(exc.value) == (
        "rightward partial integration takes unsigned exponents")


def test_three_point_seven_terms():
    ident = three_point_identity(2, 3, 4)
    assert len(ident.rhs.terms) == 7
    a, b, c = 2, 3, 4
    closed = normalize(
        zeta(a + b + c)
        - zeta(b, c, a) - zeta(c, a, b)
        + zeta(a) * zeta(b, c) + zeta(c) * zeta(a, b) + zeta(b) * zeta(c, a)
        - zeta(a) * zeta(b) * zeta(c))
    assert ident.rhs == closed
    assert verify_identity(ident)["pass"]


def test_three_point_closed_relation_generic():
    for a, b, c in [(2, 2, 2), (3, 2, 4), (5, 1, 3), (2, 1, 1)]:
        ident = three_point_identity(a, b, c)
        closed = normalize(
            zeta(a + b + c)
            - zeta(b, c, a) - zeta(c, a, b)
            + zeta(a) * zeta(b, c) + zeta(c) * zeta(a, b) + zeta(b) * zeta(c, a)
            - zeta(a) * zeta(b) * zeta(c))
        assert ident.rhs == closed, (a, b, c)


def test_derive_dispatcher():
    ident = derive("reflection", ["2", "3"])
    assert ident.family == "reflection"
    ident = derive("partial-int-3", ["2", "1", "1"], variant="alternative")
    assert ident.family == "partial-int-3"
    with pytest.raises(ValueError):
        derive("nope", [])
    assert set(FAMILIES) == {
        "reflection", "permutation", "three-point", "partial-int-2",
        "partial-int-3", "partial-int", "trailing-one", "shuffle"}


def test_identity_json_round_trip():
    ident = permutation_identity((2, 1), (3,))
    back = identity_from_json(ident.to_json())
    assert back.family == ident.family
    assert back.lhs == ident.lhs
    assert back.rhs == ident.rhs
    assert normalize(back.combination - ident.combination).is_zero()


def test_identity_str():
    text = str(partial_integration_length2(2, 1))
    assert "=" in text and "ζ(2,1)" in text and "ζ(3)" in text


def family_digest_lines():
    """The JSON and the text of every identity in a fixed grid of the
    families, with the elimination of each partial-int identity or its
    refusal and residual."""
    def admissible_pairs(max_weight):
        comps = list(iter_admissible(max_weight - 2))
        return [(a, b) for a in comps for b in comps
                if a.weight + b.weight <= max_weight]

    signed = [(composition(2, -1), composition(3)),
              (composition(-2), composition(-1, 2)),
              (composition(-3, 1), composition(2, -2)),
              (composition(-1), composition(-1, -1))]
    idents = []
    for emit in (permutation_identity, shuffle_identity):
        idents += [emit(a, b) for a, b in admissible_pairs(9) + signed]
    partial = [partial_integration(c, variant)
               for c in all_compositions(9) if len(c) >= 2
               for variant in ("rightward", "leftward")]
    idents += partial
    idents += [three_point_identity(a, b, c)
               for a, b, c in itertools.product(range(1, 9), repeat=3)
               if a + b + c <= 10]
    idents += [partial_integration_length3(a, b, c, variant)
               for a, b, c in itertools.product(range(1, 9), repeat=3)
               if a >= 2 and a + b + c <= 10
               for variant in ("rightward", "alternative")]
    idents += [trailing_one(x) for x in iter_admissible(7)]
    lines = ["%s\t%s" % (json.dumps(ident.to_json(), sort_keys=True), ident)
             for ident in idents]
    for ident in partial:
        try:
            final = eliminate_divergent(ident.combination)
        except EliminationError as exc:
            lines.append("%s\t%s" % (exc, json.dumps(exc.residual.to_json())))
        else:
            lines.append("%s\t%s" % (json.dumps(final.to_json()), final))
    return lines


def test_family_digest():
    # sha256 of the families' JSON and text output, and of the elimination
    # of every raw partial-int identity, written by the sorting normalize
    # over tuples of ProductTerms; 284 refusals name their first eight
    # terms and the count, and their residual JSON holds every term
    lines = family_digest_lines()
    assert len(lines) == 3009
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "f03bc1d6b134bc427eea07be7663d8f42cedf99dd7bfeee73865bc406ca907f4")
