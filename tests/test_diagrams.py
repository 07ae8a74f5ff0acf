import hashlib
import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_compositions, brute_diagram,
                      brute_diagram_richardson, brute_mzv_exact,
                      brute_shuffle)
from mzv import (
    Diagram,
    IrreducibleDiagramError,
    ProductTerm,
    ZetaCombination,
    build_half_moon,
    build_peacock,
    build_seashell,
    composition,
    diagram_from_json,
    eliminate_divergent,
    eval_combination,
    iter_admissible,
    normalize,
    one,
    partial_integration,
    partial_integration_length2,
    partial_integration_length3,
    reduce,
    rewrite_exchange_inner,
    rewrite_integrate_valence2,
    rewrite_partial_integration,
    rewrite_reverse_edge,
    rewrite_three_point,
    shuffle,
    stuffle,
    zeta,
)
from mzv.algebra import CACHE_SIZE
from mzv.cli import main
from mzv.compositions import Composition
from mzv import algebra, diagrams
from mzv.diagrams import (
    MAX_ORDER_POSITIONS,
    _hamiltonian_cycles,
    _ordering_cells,
    canonical_key,
    order_expansion,
)
from mzv.linalg import row_reduce


def value(d, strategy="structural"):
    return reduce(d, strategy=strategy)


def numeric(comb, eps=1e-12):
    return eval_combination(comb, eps).value


def test_builders_pin_edges():
    s = build_seashell((2, 1))
    assert s.vertices == (0, 1)
    assert s.root == 0
    assert s.edges == ((0, 1, 2), (1, 0, 0), (1, 0, 1))
    assert build_seashell((3,)).edges == ((0, 0, 3),)
    hm = build_half_moon(3, 0, 2)
    assert hm.edges == ((0, 1, 3), (1, 0, 0), (1, 0, 2))
    pk = build_peacock((0,), (2,), (2,))
    assert pk.edges == ((0, 1, 0), (1, 0, 2), (1, 0, 2))


def test_builders_digest():
    # sha256 of the edges of every peacock with labels 0..1 and lengths
    # 1..3, then of every seashell of weight <= 9, as the chain-by-chain
    # builders wrote them
    chains = [c for n in range(1, 4)
              for c in itertools.product(range(2), repeat=n)]
    lines = [repr(build_peacock(*labels).edges)
             for labels in itertools.product(chains, repeat=3)]
    lines += [repr(build_seashell(c).edges) for c in all_compositions(9)]
    assert len(lines) == 14 ** 3 + 511
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "e5ed17f166205532b5d4b4e979114b95f176565e1acb8cf05e81a018db3acd4e")


def test_builder_validation():
    with pytest.raises(ValueError):
        build_seashell((0, 1))
    with pytest.raises(ValueError):
        build_seashell(composition("-2,1"))
    with pytest.raises(ValueError):
        build_peacock((1,), (), (2,))


def test_canonical_key_and_equality():
    d1 = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 1), (2, 0, 1)))
    d2 = Diagram((0, 4, 9), 0, ((0, 9, 2), (9, 4, 1), (4, 0, 1)))
    assert canonical_key(d1) == canonical_key(d2)
    d3 = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 2), (2, 0, 1)))
    assert canonical_key(d1) != canonical_key(d3)


def test_diagram_caches_take_the_shared_bound():
    assert canonical_key.cache_info().maxsize == CACHE_SIZE
    # the traced name is the product itself, so a tracer wraps every holder
    assert diagrams.shuffle_expansion is algebra.shuffle


def test_json_round_trip():
    d = build_half_moon(3, 0, 2)
    back = diagram_from_json(d.to_json())
    assert back.vertices == d.vertices
    assert back.root == d.root
    assert back.edges == d.edges


def test_structural_seashell_values():
    for k in (2, 3, 4):
        assert value(build_seashell((k,))) == normalize(zeta(k))
    assert value(build_seashell((2, 1))) == normalize(zeta(2, 1))
    assert value(build_seashell((2, 1, 1))) == normalize(zeta(2, 1, 1))
    assert value(build_seashell((3, 2, 1))) == normalize(zeta(3, 2, 1))


def test_structural_half_moon_values():
    for a, b in [(2, 1), (3, 2), (2, 2), (4, 1)]:
        assert value(build_half_moon(a, 0, b)) == normalize(zeta(a, b))


def test_pure_cycle_value():
    cyc = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 0), (2, 0, 2)))
    assert value(cyc) == normalize(zeta(4))
    assert order_expansion(cyc) == normalize(zeta(4))


def test_order_expansion_needs_zero_chords():
    hm = build_half_moon(2, 1, 2)
    with pytest.raises(IrreducibleDiagramError):
        order_expansion(hm)
    with pytest.raises(IrreducibleDiagramError):
        reduce(hm, strategy="structural")


def test_order_expansion_parallel_zero_chords_underdetermined():
    # two parallel zero chords 1 -> 0: only their sum is fixed by conservation
    d = Diagram((0, 1, 2), 0,
                ((0, 1, 2), (1, 2, 1), (2, 0, 3), (1, 0, 0), (1, 0, 0)))
    with pytest.raises(IrreducibleDiagramError,
                       match="chord momenta underdetermined"):
        order_expansion(d)


def test_order_expansion_free_momentum_with_zero_exponent():
    # a feasible ordering cell groups the two label-1 cycle edges away from
    # the zero-labelled ones, leaving a group whose exponent is 0
    d = Diagram(tuple(range(6)), 0,
                ((0, 4, 0), (0, 4, 0), (1, 5, 0), (2, 1, 0), (3, 0, 1),
                 (3, 5, 0), (4, 2, 0), (5, 2, 0), (5, 3, 1)))
    with pytest.raises(IrreducibleDiagramError,
                       match="^free momentum with zero exponent$"):
        order_expansion(d)


def test_order_expansion_chord_sign_change_in_a_cell():
    d = Diagram(tuple(range(4)), 0,
                ((0, 2, 0), (0, 3, 0), (1, 0, 3), (1, 3, 0), (2, 1, 0),
                 (2, 3, 2), (3, 1, 1)))
    with pytest.raises(
            IrreducibleDiagramError,
            match="^chord momentum changes sign inside an ordering cell$"):
        order_expansion(d)


# A constraint whose zero set cuts through an ordering cell: reading it as
# "the cell is empty" once gave the value 0, where the box-truncated
# momentum sum is about 0.0101 at M = 10 and 0.0104 at M = 80.
CUT_BY_A_CONSTRAINT = Diagram(
    (0, 1, 2, 3), 0,
    ((0, 1, 0), (0, 2, 1), (1, 3, 3), (2, 1, 1), (3, 0, 2), (3, 2, 0)))


def test_order_expansion_constraint_cuts_a_cell():
    d = CUT_BY_A_CONSTRAINT
    assert brute_diagram(d, 10) > 0.01
    with pytest.raises(IrreducibleDiagramError,
                       match="^momentum constraint cuts an ordering cell$"):
        order_expansion(d)
    with pytest.raises(IrreducibleDiagramError,
                       match="^momentum constraint cuts an ordering cell$"):
        reduce(d, strategy="structural")
    steps = []
    with pytest.raises(IrreducibleDiagramError):
        reduce(d, strategy="auto", steps=steps)
    assert steps[0] == "order expansion over 4 cycle positions"


@pytest.mark.parametrize("vertices, root, edges, text", [
    # a constraint cuts one cell and a chord changes sign on another
    (6, 5, ((0, 2, 2), (0, 4, 0), (1, 0, 0), (1, 2, 0), (2, 5, 0), (3, 1, 1),
            (3, 5, 0), (4, 3, 3), (5, 0, 0), (5, 4, 2)),
     "momentum constraint cuts an ordering cell"),
    # a chord changes sign on one cell and another has a zero exponent
    (4, 1, ((0, 1, 1), (0, 2, 0), (1, 2, 2), (2, 3, 0), (2, 3, 1), (3, 0, 0),
            (3, 1, 0)),
     "chord momentum changes sign inside an ordering cell"),
])
def test_order_expansion_refusal_precedence(vertices, root, edges, text):
    d = Diagram(tuple(range(vertices)), root, edges)
    with pytest.raises(IrreducibleDiagramError, match="^%s$" % text):
        order_expansion(d)
    with pytest.raises(IrreducibleDiagramError, match="^%s$" % text):
        fraction_order_expansion(d)


def random_cycle_with_zero_chords(rng):
    """A directed Hamiltonian cycle on at most 5 vertices with labels 0..3,
    plus up to n zero chords between distinct vertices (loops when n = 1)."""
    n = rng.randint(1, 5)
    order = rng.sample(range(n), n)
    edges = [(order[i], order[(i + 1) % n], rng.choice((0, 1, 1, 2, 2, 3)))
             for i in range(n)]
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b or n == 1:
            edges.append((a, b, 0))
    return Diagram(tuple(range(n)), rng.randrange(n), tuple(edges))


def lattice_sum(d, cyc, M):
    """The sum of the product of m_j^-label_j over the cycle momenta m in
    [1, M]^P that conserve momentum with every chord momentum >= 1.

    Each chord momentum is a vector over the cycle momenta, found by peeling
    a leaf of the chord forest at a time; the vertex balances left over are
    the constraints.  Exact, in Fractions.
    """
    P = len(cyc)
    balance = {v: [0] * P for v in d.vertices}      # inflow minus outflow
    for j, i in enumerate(cyc):
        a, b, _ = d.edges[i]
        balance[a][j] -= 1
        balance[b][j] += 1
    todo = [i for i in range(len(d.edges)) if i not in cyc]
    chords = []
    while todo:
        i, v = next((i, v) for i in todo for v in d.edges[i][:2]
                    if sum(v in d.edges[t][:2] for t in todo) == 1)
        a, b, _ = d.edges[i]
        x = balance[v] if v == a else [-c for c in balance[v]]
        balance[a] = [p - q for p, q in zip(balance[a], x)]
        balance[b] = [p + q for p, q in zip(balance[b], x)]
        chords.append(x)
        todo.remove(i)
    labels = [d.edges[i][2] for i in cyc]
    total = Fraction(0)
    for m in itertools.product(range(1, M + 1), repeat=P):
        if (all(sum(c * x for c, x in zip(f, m)) == 0
                for f in balance.values())
                and all(sum(c * x for c, x in zip(f, m)) >= 1
                        for f in chords)):
            den = 1
            for x, k in zip(m, labels):
                den *= x ** k
            total += Fraction(1, den)
    return total


def test_order_expansion_matches_the_truncated_lattice_sum():
    # a cell n_0 > ... >= 1 cut at n_0 <= M is its nested sum cut at M, so
    # the value truncated term by term is the lattice sum over [1, M]^P
    rng = random.Random(0)
    checked = 0
    for _ in range(500):
        d = random_cycle_with_zero_chords(rng)
        try:
            comb = order_expansion(d)
        except IrreducibleDiagramError:
            continue
        cyc = min(c for c in _hamiltonian_cycles(d)
                  if all(d.edges[i][2] == 0
                         for i in range(len(d.edges)) if i not in c))
        assert lattice_sum(d, cyc, 5) == sum(
            Fraction(t.coefficient) * brute_mzv_exact(t.factors[0], 5)
            for t in comb.terms), d.edges
        checked += 1
    assert checked > 250


def row_reduce_forms(d, cyc):
    """The chord forms and the nonzero constraints over the cycle edges cyc,
    in Fractions, by Gauss-Jordan elimination of the vertex conservation
    rows; None when a chord momentum is free."""
    chords = [i for i in range(len(d.edges)) if i not in cyc]
    rows = {v: {} for v in d.vertices}
    for i, (a, b, _) in enumerate(d.edges):
        if a != b:
            rows[a][i] = Fraction(-1)
            rows[b][i] = Fraction(1)
    pivots, rest = row_reduce(rows.values(), chords)
    if len(pivots) < len(chords):
        return None
    return ([tuple(-pivots[i].get(e, Fraction(0)) for e in cyc)
             for i in chords],
            [tuple(r.get(e, Fraction(0)) for e in cyc) for r in rest if r])


def fraction_order_expansion(d):
    """The order expansion as a plain loop over every ordering cell: every
    chord and constraint form a tuple of Fractions, one coefficient-1 term
    per nonempty cell.

    A form's sign on a cell is that of the partial sums of its group sums:
    0, 1 or -1, or None when they take both signs.  A chord must be 1 and a
    constraint 0; a cell where some form has another fixed sign is empty.
    Over the other cells a constraint of both signs refuses first, then a
    chord of both signs, then a zero exponent.
    """

    def ordered_partitions(P):
        def rgs(prefix, mx):
            if len(prefix) == P:
                yield prefix
                return
            for g in range(mx + 2):
                yield from rgs(prefix + [g], max(mx, g))

        for part in rgs([], -1):
            dd = max(part) + 1
            for perm in itertools.permutations(range(dd)):
                yield dd, tuple(perm[g] for g in part)

    def sign(partial):
        up = any(s > 0 for s in partial)
        down = any(s < 0 for s in partial)
        return None if up and down else int(up) - int(down)

    candidates = []
    for cyc in _hamiltonian_cycles(d):
        cyc_set = set(cyc)
        if all(d.edges[i][2] == 0
               for i in range(len(d.edges)) if i not in cyc_set):
            candidates.append(cyc)
    if not candidates:
        raise IrreducibleDiagramError(
            "no cycle through all vertices with zero-labeled chords")
    cyc = min(candidates)
    found = row_reduce_forms(d, cyc)
    if found is None:
        raise IrreducibleDiagramError("chord momenta underdetermined")
    forms = [(1, f) for f in found[0]] + [(0, f) for f in found[1]]
    labels = [d.edges[i][2] for i in cyc]
    cut = changes = False
    expos = []
    for dd, assign in ordered_partitions(len(cyc)):
        signs = []
        for wanted, form in forms:
            a = [Fraction(0)] * dd
            for j, g in enumerate(assign):
                a[g] += form[j]
            if any(x.denominator != 1 for x in a):
                raise IrreducibleDiagramError("non-integer chord decomposition")
            signs.append((wanted, sign(list(itertools.accumulate(a)))))
        if any(s is not None and s != wanted for wanted, s in signs):
            continue
        if any(s is None for wanted, s in signs):
            cut = cut or any(s is None for wanted, s in signs if wanted == 0)
            changes = True
            continue
        expo = [0] * dd
        for j, g in enumerate(assign):
            expo[g] += labels[j]
        expos.append(tuple(expo))
    if cut:
        raise IrreducibleDiagramError(
            "momentum constraint cuts an ordering cell")
    if changes:
        raise IrreducibleDiagramError(
            "chord momentum changes sign inside an ordering cell")
    if any(0 in expo for expo in expos):
        raise IrreducibleDiagramError("free momentum with zero exponent")
    return normalize(ZetaCombination(tuple(
        ProductTerm(1, (Composition(expo),)) for expo in expos)))


@st.composite
def cycles_with_zero_chords(draw):
    """A directed Hamiltonian cycle with labels 0..3 (one in six a 0) plus up
    to n zero chords between distinct vertices (loops when n = 1)."""
    n = draw(st.integers(1, 5))
    order = draw(st.permutations(range(n)))
    labels = draw(st.lists(st.sampled_from((0, 1, 1, 2, 2, 3)),
                           min_size=n, max_size=n))
    edges = [(order[i], order[(i + 1) % n], labels[i]) for i in range(n)]
    vertex = st.integers(0, n - 1)
    chord = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1] or n == 1)
    chords = draw(st.lists(chord, max_size=n))
    edges += [(a, b, 0) for a, b in chords]
    return Diagram(tuple(range(n)), draw(vertex), tuple(edges))


def expansion_outcome(expand, d):
    try:
        return expand(d)
    except IrreducibleDiagramError as e:
        return "refused: %s" % e


@settings(max_examples=300, deadline=None)
@given(cycles_with_zero_chords())
def test_order_expansion_matches_the_fraction_loop(d):
    assert (expansion_outcome(order_expansion, d)
            == expansion_outcome(fraction_order_expansion, d)), d.edges


def row_reduce_order_expansion(d):
    """order_expansion's cell walk and refusals on row_reduce_forms: the
    outcome and the forms."""
    cyc = min(c for c in _hamiltonian_cycles(d)
              if all(d.edges[i][2] == 0
                     for i in range(len(d.edges)) if i not in c))
    forms = row_reduce_forms(d, cyc)
    if forms is None:
        return "refused: chord momenta underdetermined", None
    # the incidence matrix is totally unimodular: no entry has a denominator
    assert all(x.denominator == 1 for f in forms[0] + forms[1] for x in f)
    forms = tuple([tuple(map(int, f)) for f in fs] for fs in forms)

    def expand(_):
        cells, change = _ordering_cells([d.edges[i][2] for i in cyc], *forms)
        if change:
            raise IrreducibleDiagramError(
                "chord momentum changes sign inside an ordering cell")
        if any(0 in expo for expo in cells):
            raise IrreducibleDiagramError("free momentum with zero exponent")
        return normalize(ZetaCombination(tuple(
            ProductTerm(n, (Composition(expo),))
            for expo, n in cells.items())))

    return expansion_outcome(expand, d), forms


def test_chord_forms_on_diagrams_with_constraints(monkeypatch):
    # 6 and 7 cycle positions with fewer chords than it takes to span them,
    # so conservation leaves constraints; the peeled forms may differ from
    # the eliminated ones by multiples of a constraint, the outcome may not
    seen = []
    monkeypatch.setattr(diagrams, "_ordering_cells", lambda *args: (
        seen.append(args) or _ordering_cells(*args)))
    rng = random.Random(32)
    kinds = Counter()
    differ = 0
    while sum(kinds.values()) < 1000:
        n = rng.choice((6, 7))
        order = rng.sample(range(n), n)
        edges = [(order[i], order[(i + 1) % n], rng.choice((0, 1, 2, 3)))
                 for i in range(n)]
        edges += [tuple(rng.sample(range(n), 2)) + (0,)
                  for _ in range(rng.randint(1, n - 2))]
        d = Diagram(tuple(range(n)), rng.randrange(n), tuple(edges))
        outcome, forms = row_reduce_order_expansion(d)
        if forms is None or not forms[1]:
            continue
        seen.clear()
        assert expansion_outcome(order_expansion, d) == outcome, d.edges
        kinds[outcome if isinstance(outcome, str) else "value"] += 1
        differ += [list(map(tuple, f)) for f in seen[0][1:]] != list(forms)
    # a value and each of the three refusals after the forms, and forms
    # that differ, on more than a hundred diagrams each
    assert len(kinds) == 4 and min(kinds.values()) > 100, kinds
    assert differ > 100


def test_structural_and_auto_digest():
    # sha256 of reduce(d, s), the value JSON or the refusal, for s in
    # structural and auto over every seashell of weight <= 11 and depth <= 5
    # and every half-moon with labels in 0..5, written by the Fraction loop
    diagrams = [build_seashell(c) for c in all_compositions(11) if len(c) <= 5]
    diagrams += [build_half_moon(*labels)
                 for labels in itertools.product(range(6), repeat=3)]
    assert len(diagrams) == 1023 + 216
    digests = {}
    for strategy in ("structural", "auto"):
        lines = []
        for d in diagrams:
            try:
                comb = reduce(d, strategy=strategy)
            except ValueError as e:
                lines.append("%s: %s" % (type(e).__name__, e))
            else:
                lines.append(json.dumps(comb.to_json(), sort_keys=True))
        digests[strategy] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digests == {
        "structural":
            "b1f29d12635807f29fc41635c697260faccf9937a2a2f95c8bc42f0a4fed2b14",
        "auto":
            "9f06b81680d4a09e1da23ffa46610c405b6d28cfa719ed1f23535f0be8d87770",
    }


def test_structural_takes_the_longest_cycle_it_allows():
    parts = (2,) + (1,) * (MAX_ORDER_POSITIONS - 1)
    assert value(build_seashell(parts)) == normalize(zeta(*parts))


@pytest.mark.parametrize("parts", [(2,) + (1,) * 7, (2,) + (1,) * 9,
                                   (3, 2, 1, 1, 2, 1, 1, 2)])
def test_structural_refuses_long_cycles_before_enumerating(parts, monkeypatch):
    def no_cells(labels, chords, constraints):
        raise AssertionError(
            "ordering cells built for %d positions" % len(labels))

    monkeypatch.setattr(diagrams, "_ordering_cells", no_cells)
    d = build_seashell(parts)
    start = time.perf_counter()
    with pytest.raises(IrreducibleDiagramError,
                       match="%d cycle positions exceeds the limit %d"
                       % (len(parts), MAX_ORDER_POSITIONS)):
        reduce(d, strategy="structural")
    # auto falls through to the shuffle recursion, which gives the nested sum
    assert reduce(d, strategy="auto") == normalize(zeta(*parts))
    assert time.perf_counter() - start < 1.0


def test_disconnected_diagram_factorizes():
    d = Diagram((0, 1), 0, ((0, 0, 2), (1, 1, 3)))
    assert value(d) == normalize(zeta(2) * zeta(3))


def test_root_zero_rule_factorizes_double_branch():
    pk = build_peacock((0,), (2,), (2,))
    assert value(pk) == normalize(zeta(2) * zeta(2))
    sh = reduce(pk, strategy="shuffle")
    assert sh == normalize(zeta(2, 2).scaled(2) + zeta(3, 1).scaled(4))
    assert abs(numeric(sh) - numeric(value(pk))) < 1e-12


def test_shuffle_expansion_pins():
    assert shuffle((2,), (2,)) == normalize(
        zeta(2, 2).scaled(2) + zeta(3, 1).scaled(4))
    assert shuffle((2,), (3,)) == normalize(
        zeta(2, 3) + zeta(3, 2).scaled(3) + zeta(4, 1).scaled(6))


def test_shuffle_expansion_matches_stuffle_value():
    pairs = [((2,), (2,)), ((2,), (3,)), ((2, 1), (2,)), ((3,), (2, 1))]
    for left, right in pairs:
        sh = shuffle(left, right)
        st = stuffle(composition(*left), composition(*right))
        assert abs(numeric(sh) - numeric(st)) < 1e-10, (left, right)


def test_leftward_partial_integration_is_the_word_shuffle():
    for ks in all_compositions(9):
        if len(ks) >= 2:
            got = partial_integration(ks, "leftward").rhs
            assert got == brute_shuffle(ks[:1], ks[1:]), ks


def test_reverse_edge_preserves_cycle_value():
    cyc = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 0), (2, 0, 2)))
    pieces = rewrite_reverse_edge(cyc, 1)
    assert len(pieces) == 3
    total = one(0)
    for coeff, d in pieces:
        total = total + value(d).scaled(coeff)
    assert normalize(total) == normalize(zeta(4))
    # the whole value sits in the fused piece, a 2-cycle
    two_cycle = canonical_key(Diagram((0, 1), 0, ((0, 1, 2), (1, 0, 2))))
    fused = [d for coeff, d in pieces if canonical_key(d) == two_cycle]
    assert len(fused) == 1
    zero_pieces = [d for _, d in pieces if value(d).is_zero()]
    assert len(zero_pieces) == 2


def test_reverse_edge_seashell_chord_divergent_pieces():
    # reversing the ordering chord of the (2,1) ladder trades the nested
    # sum for divergent pieces that recombine to it exactly
    s = build_seashell((2, 1))
    zi = [i for i, e in enumerate(s.edges) if e[2] == 0][0]
    total = one(0)
    values = []
    for coeff, d in rewrite_reverse_edge(s, zi):
        v = value(d)
        values.append(v)
        total = total + v.scaled(coeff)
    assert total.regularized
    assert normalize(zeta(composition(1)) * zeta(2)) in values
    assert normalize(zeta(1, 2)) in values
    assert eliminate_divergent(total) == normalize(zeta(2, 1))


def test_reverse_edge_peacock_trunk():
    pk = build_peacock((0,), (2,), (2,))
    zi = [i for i, e in enumerate(pk.edges) if e[2] == 0][0]
    pieces = rewrite_reverse_edge(pk, zi)
    vals = sorted(str(value(d)) for _, d in pieces)
    assert vals == ["0", "0", str(normalize(zeta(2) * zeta(2)))]
    total = one(0)
    for coeff, d in pieces:
        total = total + value(d).scaled(coeff)
    assert normalize(total) == normalize(zeta(2) * zeta(2))


def test_reverse_edge_validation():
    s = build_seashell((2, 1))
    with pytest.raises(ValueError):
        rewrite_reverse_edge(s, 0)      # label 2, not an ordering kernel
    loop = Diagram((0,), 0, ((0, 0, 0),))
    with pytest.raises(ValueError):
        rewrite_reverse_edge(loop, 0)


def test_integrate_valence2():
    cyc = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 1), (2, 0, 1)))
    res = rewrite_integrate_valence2(cyc, 1)
    assert len(res) == 1
    coeff, merged = res[0]
    assert coeff == Fraction(1)
    assert merged.vertices == (0, 2)
    assert canonical_key(merged) == canonical_key(
        Diagram((0, 2), 0, ((0, 2, 3), (2, 0, 1))))
    assert value(merged) == value(cyc) == normalize(zeta(4))


def test_integrate_valence2_validation():
    cyc = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 1), (2, 0, 1)))
    with pytest.raises(ValueError):
        rewrite_integrate_valence2(cyc, 0)      # root
    hm = build_half_moon(2, 1, 2)
    with pytest.raises(ValueError):
        rewrite_integrate_valence2(hm, 1)       # two out-edges


def test_partial_integration_half_moon():
    hm = build_half_moon(3, 0, 2)
    pieces = rewrite_partial_integration(hm, 1)
    assert sorted(coeff for coeff, _ in pieces) == [Fraction(-1), Fraction(1)]
    by_coeff = {coeff: d for coeff, d in pieces}
    assert canonical_key(by_coeff[Fraction(1)]) == canonical_key(
        build_half_moon(2, 1, 2))
    assert canonical_key(by_coeff[Fraction(-1)]) == canonical_key(
        build_half_moon(3, 1, 1))
    total = one(0)
    for coeff, d in pieces:
        total = total + reduce(d, strategy="auto").scaled(coeff)
    assert normalize(value(hm) - total).is_zero()


def test_partial_integration_needs_raise_target():
    hm = build_half_moon(3, 1, 2)
    with pytest.raises(ValueError):
        rewrite_partial_integration(hm, 1)
    res = rewrite_partial_integration(hm, 1, raise_edge=1)
    assert len(res) == 2


def test_exchange_inner_label_swap():
    d = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 0), (1, 0, 3), (2, 0, 1)))
    res = rewrite_exchange_inner(d, 2)
    assert len(res) == 1 and res[0][0] == Fraction(1)
    expected = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 0), (1, 0, 1), (2, 0, 3)))
    assert canonical_key(res[0][1]) == canonical_key(expected)
    # the swap reflects the inner momentum, a box-preserving bijection
    for M in (40, 80):
        assert abs(brute_diagram(d, M) - brute_diagram(res[0][1], M)) < 1e-12


def test_exchange_inner_validation():
    d = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 0), (1, 0, 3), (2, 0, 1)))
    with pytest.raises(ValueError):
        rewrite_exchange_inner(d, 1)


def test_three_point_emits_seven_terms():
    s3 = build_seashell((2, 1, 1))
    terms = rewrite_three_point(s3, 0)
    assert len(terms) == 7
    assert sum(coeff for coeff, _ in terms) == 1
    assert sorted(coeff for coeff, _ in terms) == [-1, -1, -1, 1, 1, 1, 1]


def test_three_point_out_edge_variant():
    s3 = build_seashell((2, 1, 1))
    rev = Diagram(s3.vertices, s3.root,
                  tuple((b, a, k) for (a, b, k) in s3.edges))
    assert len(rewrite_three_point(rev, 0)) == 7
    cyc = Diagram((0, 1, 2), 0, ((0, 1, 2), (1, 2, 1), (2, 0, 1)))
    with pytest.raises(ValueError):
        rewrite_three_point(cyc, 1)


def test_momentum_sum_oracle_agreement():
    # box-truncated momentum sums with Richardson extrapolation against
    # the reduced values
    cases = [
        (build_seashell((2, 1)), "structural", 0.02),
        (build_seashell((2, 2)), "structural", 5e-3),
        (build_half_moon(3, 0, 2), "structural", 5e-3),
        (build_peacock((0,), (2,), (2,)), "structural", 5e-3),
        (build_half_moon(2, 1, 2), "auto", 5e-3),
    ]
    for d, strategy, tol in cases:
        got = brute_diagram_richardson(d, 100)
        want = numeric(reduce(d, strategy=strategy))
        assert abs(got - want) < tol, (d.edges, got, want)


def test_rightward_reduction_pins():
    assert reduce(build_seashell((2, 1)), strategy="rightward") == normalize(zeta(3))
    r = reduce(build_seashell((3, 2)), strategy="rightward")
    expected = normalize(
        zeta(2) * zeta(3) - zeta(5).scaled(3) + zeta(2, 3).scaled(2)
        + zeta(3, 2) - zeta(4, 1).scaled(3))
    assert r == expected
    assert r == partial_integration_length2(3, 2).rhs


def test_rightward_matches_length3_emitter():
    r = reduce(build_seashell((2, 1, 1)), strategy="rightward")
    p = partial_integration_length3(2, 1, 1, variant="rightward")
    assert r == p.rhs


def test_rightward_sweep_digest():
    # sha256 of the value JSON and the trace lines of every rightward
    # reduction over the admissible seashells of weight <= 10 and depth >= 2
    # and the half-moons with labels in 1..4 (fans whose last chord is
    # nonzero), written by the per-path partial-integration walk
    diagrams = [build_seashell(c) for c in iter_admissible(10, min_depth=2)]
    diagrams += [build_half_moon(*labels)
                 for labels in itertools.product(range(1, 5), repeat=3)]
    assert len(diagrams) == 502 + 64
    lines = []
    for d in diagrams:
        trace = []
        comb = reduce(d, strategy="rightward", steps=trace)
        lines.append(json.dumps(comb.to_json(), sort_keys=True))
        lines.extend(trace)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "91da6e9f0dcd9912b4023cbff1d9b217fbcb9740b5a84384586f747836778243")


def test_auto_falls_back_on_loaded_half_moon():
    hm = build_half_moon(2, 1, 2)
    auto = reduce(hm, strategy="auto")
    right = reduce(hm, strategy="rightward")
    assert auto == right
    assert auto == normalize(zeta(5) - zeta(2, 3) + zeta(4, 1))


@pytest.mark.parametrize("strategy", ["auto", "shuffle"])
@pytest.mark.parametrize("labels", [(1, 0, 0), (0, 0, 3), (0, 2, 0), (2, 0, 0)])
def test_half_moon_with_two_zero_labels_is_irreducible(labels, strategy, capsys):
    # the double-branch reading leaves a zero exponent on a free momentum
    with pytest.raises(IrreducibleDiagramError):
        reduce(build_half_moon(*labels), strategy=strategy)
    argv = ["reduce", "--half-moon", ",".join(map(str, labels)),
            "--strategy", strategy]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("mzv: error: ")
    assert "parts must be positive" not in err


def test_reduce_trace_and_bad_strategy():
    trace = []
    comb = reduce(build_seashell((2, 1)), strategy="rightward", steps=trace)
    assert comb == normalize(zeta(3))
    assert trace and all(isinstance(line, str) for line in trace)
    with pytest.raises(ValueError):
        reduce(build_seashell((2,)), strategy="sideways")


def reader_corpus(n=20000, seed=25):
    """Seeded diagrams for the fan and peacock readers: fans (cycle labels
    0..3, depth <= 8, chords 0..2), peacocks (labels 0..2, lengths 1..4) and
    random digraphs on up to 5 vertices, each with 0..2 edits (an edge
    dropped, added or relabelled) and its vertices renumbered at random."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            m = rng.randint(1, 8)
            t = [rng.randint(0, 3) for _ in range(m)]
            edges = [(i, (i + 1) % m, k) for i, k in enumerate(t)]
            edges += [(i, 0, rng.randint(0, 2)) for i in range(1, m)]
            nv = m
        elif kind == 1:
            p = build_peacock(*([rng.randint(0, 2)
                                 for _ in range(rng.randint(1, 4))]
                                for _ in range(3)))
            edges, nv = list(p.edges), len(p.vertices)
        else:
            nv = rng.randint(1, 5)
            edges = [(rng.randrange(nv), rng.randrange(nv), rng.randint(0, 2))
                     for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(0, 2)):
            edit = rng.randrange(3)
            if edit == 0 and edges:
                edges.pop(rng.randrange(len(edges)))
            elif edit == 1:
                edges.append((rng.randrange(nv), rng.randrange(nv),
                              rng.randint(0, 2)))
            elif edges:
                a, b, _ = edges.pop(rng.randrange(len(edges)))
                edges.append((a, b, rng.randint(0, 3)))
        ids = rng.sample(range(2 * nv + 1), nv)
        out.append(Diagram(tuple(ids), ids[0],
                           tuple((ids[a], ids[b], k) for a, b, k in edges)))
    return out


def maps_onto(b, d):
    """Whether a root-preserving vertex bijection maps b's labelled edges
    onto d's, that is whether canonical_key(b) == canonical_key(d), found
    without the (v - 1)! relabelings.  b is numbered from its root 0, each
    vertex i > 0 entered by an edge from a lower vertex, so the bijection is
    searched vertex by vertex along those edges."""
    parent = {}
    for a, v, k in b.edges:
        if a < v:
            parent.setdefault(v, (a, k))

    def extend(image):
        if len(image) == len(b.vertices):
            return tuple(sorted((image[a], image[v], k)
                                for a, v, k in b.edges)) == d.edges
        a, k = parent[len(image)]
        return any(extend(image + [w]) for x, w, l in d.edges
                   if x == image[a] and l == k and w not in image)

    return len(b.vertices) == len(d.vertices) and extend([d.root])


def test_shape_readers_digest_and_soundness():
    # sha256 of the fan and peacock readings over the reader corpus, written
    # by the readers that enumerated Hamiltonian cycles and checked degrees;
    # every reading rebuilds to a diagram equal to the one it was read from
    fan_lines, peacock_lines = [], []
    for d in reader_corpus():
        fan = diagrams._fan_structure(d)
        peacock = diagrams._peacock_structure(d)
        fan_lines.append(repr(fan))
        peacock_lines.append(repr(peacock))
        rebuilt = []
        if fan is not None:
            t, c = fan
            m = len(t)
            rebuilt.append(Diagram(tuple(range(m)), 0, tuple(
                [(i, (i + 1) % m, k) for i, k in enumerate(t)]
                + [(i, 0, k) for i, k in enumerate(c, 1)])))
        if peacock is not None:
            rebuilt.append(build_peacock(*peacock))
        for b in rebuilt:
            assert maps_onto(b, d), (b, d)
            if len(d.vertices) <= 5:
                assert canonical_key(b) == canonical_key(d)
    assert sum(line != "None" for line in fan_lines) > 2000
    assert sum(line != "None" for line in peacock_lines) > 2000
    digests = {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for name, lines in (("fan", fan_lines), ("peacock", peacock_lines))}
    assert digests == {
        "fan":
            "bf1a0c83278fca56091559126a57bd20b6ab30cdb677ca048dfdf134d073a17f",
        "peacock":
            "f242b8acc7fee6e3f4bff270f3a13613221d9182eb9871cb25a70039e5b7dbf3",
    }
