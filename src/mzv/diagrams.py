"""Weighted vacuum diagrams on the circle and their reduction to nested sums.

A diagram is a directed multigraph with integer edge labels.  An edge (a, b, k)
stands for the k-th periodic propagator between the positions of a and b;
label 0 is the ordering kernel.  The value of a diagram is the sum over
positive integer edge momenta, conserving at every vertex, of the product
n_e^(-k_e).  Reductions rewrite a diagram into a linear combination of nested
harmonic sums of the same total weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .algebra import (
    CACHE_SIZE,
    ZetaCombination,
    _branch_suffixes,
    _integration_exits,
    _of,
    eliminate_divergent,
    one,
    shuffle as shuffle_expansion,  # the name bench/tracing.py traces
    zeta,
)
from .compositions import Composition, json_ints, sort_key


class IrreducibleDiagramError(ValueError):
    """Raised when no reduction rule applies."""


@dataclass(frozen=True)
class Diagram:
    vertices: tuple[int, ...]
    root: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        vs = tuple(sorted(set(int(v) for v in self.vertices)))
        es = []
        for (a, b, k) in self.edges:
            a, b, k = int(a), int(b), int(k)
            if a not in vs or b not in vs:
                raise ValueError("edge endpoint outside vertex set")
            if k < 0:
                raise ValueError("edge labels must be >= 0")
            es.append((a, b, k))
        if self.root not in vs:
            raise ValueError("root must be a vertex")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(sorted(es)))

    def out_edges(self, v):
        return [(i, e) for i, e in enumerate(self.edges) if e[0] == v]

    def in_edges(self, v):
        return [(i, e) for i, e in enumerate(self.edges) if e[1] == v]

    def replace_edges(self, drop=(), add=()) -> "Diagram":
        dropped = set(drop)
        es = [e for i, e in enumerate(self.edges) if i not in dropped]
        es.extend(add)
        return Diagram(self.vertices, self.root, tuple(es))

    def fuse(self, group) -> "Diagram":
        """Identify the given vertices; edges among them become self-loops."""
        group = set(group)
        target = self.root if self.root in group else min(group)
        mapping = {v: (target if v in group else v) for v in self.vertices}
        vs = tuple(sorted(set(mapping.values())))
        es = tuple((mapping[a], mapping[b], k) for (a, b, k) in self.edges)
        return Diagram(vs, mapping[self.root], es)

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "root": self.root,
            "edges": [
                {"from": a, "to": b, "label": k} for (a, b, k) in self.edges
            ],
        }

    def __str__(self):
        body = ", ".join("%d-%d[%d]" % e for e in self.edges)
        return "Diagram(root=%d; %s)" % (self.root, body)


def diagram_from_json(obj) -> Diagram:
    edges = tuple(json_ints((e["from"], e["to"], e["label"]))
                  for e in obj["edges"])
    (root,) = json_ints((obj["root"],))
    return Diagram(json_ints(obj["vertices"]), root, edges)


@lru_cache(maxsize=CACHE_SIZE)
def canonical_key(d: Diagram):
    """Vertex-relabeling invariant key (root pinned to 0)."""
    others = [v for v in d.vertices if v != d.root]
    best = None
    for perm in itertools.permutations(range(1, len(others) + 1)):
        mapping = {d.root: 0}
        mapping.update({v: p for v, p in zip(others, perm)})
        key = tuple(sorted((mapping[a], mapping[b], k) for (a, b, k) in d.edges))
        if best is None or key < best:
            best = key
    return (len(d.vertices), best)


def combine_terms(terms):
    """Merge (coefficient, diagram) pairs by canonical key, dropping zeros."""
    acc, reps = {}, {}
    for coeff, d in terms:
        k = canonical_key(d)
        acc[k] = acc.get(k, 0) + coeff
        reps.setdefault(k, d)
    return tuple((acc[k], reps[k]) for k in sorted(acc) if acc[k] != 0)


# --- builders ---------------------------------------------------------------

def _parts(c):
    if isinstance(c, Composition):
        if c.signs is not None:
            raise ValueError("diagrams carry unsigned labels")
        return c.parts
    return tuple(int(k) for k in c)


def _fan(t, c) -> Diagram:
    """A directed cycle through the root 0 carrying the labels t, and a chord
    labelled c[i - 1] from every apex i back to the root."""
    m = len(t)
    edges = [(i, (i + 1) % m, k) for i, k in enumerate(t)]
    edges += [(i, 0, k) for i, k in enumerate(c, 1)]
    return Diagram(tuple(range(m)), 0, tuple(edges))


def build_seashell(c) -> Diagram:
    """The depth-m ladder: a directed cycle through the root carrying the
    labels k1..km plus a zero chord from every non-root cycle vertex back to
    the root.

    The chords force the full ordering of the cycle momenta, so the value is
    exactly the nested sum for (k1,...,km).  m = 1 degenerates to a self-loop.
    """
    parts = _parts(c)
    if any(k < 1 for k in parts):
        raise ValueError("seashell labels must be >= 1")
    return _fan(parts, (0,) * (len(parts) - 1))


def build_half_moon(a: int, b: int, c: int) -> Diagram:
    """Two vertices, three parallel propagators: in a, out b and c."""
    return _fan((a, b), (c,))


def build_peacock(trunk, branch1, branch2) -> Diagram:
    """Trunk chain up from the root, two descending branch chains back down.

    The chains are the paths 0..top, then top, interior.., 0 twice, numbered
    in that order; their interior vertices carry zero chords to the root, the
    top vertex (trunk end) has none.  Trunk labels may include 0.
    """
    trunk = tuple(int(k) for k in trunk)
    b1 = _parts(branch1)
    b2 = _parts(branch2)
    if not trunk or not b1 or not b2:
        raise ValueError("trunk and both branches must be nonempty")
    top = len(trunk)
    n1 = top + len(b1)
    edges = []
    for path, labels in ((range(top + 1), trunk),
                         ((top, *range(top + 1, n1), 0), b1),
                         ((top, *range(n1, n1 + len(b2) - 1), 0), b2)):
        edges += zip(path, path[1:], labels)
        edges += [(v, 0, 0) for v in path[1:-1]]
    return Diagram(tuple(range(n1 + len(b2) - 1)), 0, tuple(edges))


# --- single-step rewrites ---------------------------------------------------

def rewrite_reverse_edge(d: Diagram, edge_index: int):
    """Reverse an ordering kernel: minus the reversed edge, plus the fused
    endpoints, minus the edge dropped."""
    a, b, k = d.edges[edge_index]
    if k != 0:
        raise ValueError("reversal rewrite applies to zero-labeled edges")
    if a == b:
        raise ValueError("cannot reverse a self-loop")
    reversed_d = d.replace_edges(drop=(edge_index,), add=((b, a, 0),))
    fused = d.replace_edges(drop=(edge_index,)).fuse({a, b})
    dropped = d.replace_edges(drop=(edge_index,))
    return combine_terms([(-1, reversed_d), (1, fused), (-1, dropped)])


def rewrite_integrate_valence2(d: Diagram, v):
    """Convolution at a flow-through vertex: g^(k) * g^(l) -> g^(k+l)."""
    if v == d.root:
        raise ValueError("the root is not integrated out")
    ins = d.in_edges(v)
    outs = d.out_edges(v)
    if len(ins) != 1 or len(outs) != 1:
        raise ValueError("vertex must have exactly one in- and one out-edge")
    (i1, (a, _, k)) = ins[0]
    (i2, (_, b, l)) = outs[0]
    if a == v or b == v:
        raise ValueError("self-loop blocks the convolution")
    merged = d.replace_edges(drop=(i1, i2), add=((a, b, k + l),))
    vs = tuple(w for w in merged.vertices if w != v)
    return combine_terms([(1, Diagram(vs, merged.root, merged.edges))])


def rewrite_partial_integration(d: Diagram, v, raise_edge=None):
    """Differentiate under the integral at a vertex with one in-, two out-edges.

    The raised out-edge gains one unit; the identity trades lowering the
    in-edge against lowering the other out-edge:
        D[in=a, raised, other=c] = D[a-1, raised+1, c] - D[a, raised+1, c-1].
    By default the zero-labeled out-edge is raised.
    """
    if v == d.root:
        raise ValueError("partial integration acts at a non-root vertex")
    ins = d.in_edges(v)
    outs = d.out_edges(v)
    if len(ins) != 1 or len(outs) != 2:
        raise ValueError("vertex must have one in-edge and two out-edges")
    (ii, (_, _, a)) = ins[0]
    if a < 1:
        raise ValueError("in-edge label must be >= 1")
    if raise_edge is None:
        zero_outs = [i for i, e in outs if e[2] == 0]
        if len(zero_outs) != 1:
            raise ValueError("ambiguous raise target; pass raise_edge")
        raise_edge = zero_outs[0]
    (io,) = [i for i, _ in outs if i != raise_edge]
    ra, rb, rk = d.edges[raise_edge]
    oa, ob, ok = d.edges[io]
    if ok < 1:
        raise ValueError("the lowered out-edge label must be >= 1")
    ea, eb, ek = d.edges[ii]
    plus = d.replace_edges(
        drop=(ii, raise_edge), add=((ea, eb, ek - 1), (ra, rb, rk + 1)))
    minus = d.replace_edges(
        drop=(io, raise_edge), add=((oa, ob, ok - 1), (ra, rb, rk + 1)))
    return combine_terms([(1, plus), (-1, minus)])


def rewrite_exchange_inner(d: Diagram, v, u_edge=None, v_edge=None):
    """Swap the two side edges across a zero-labeled inner edge into v.

    Requires an edge (u, v, 0) with u and v both non-root; the swapped edges
    are one further out-edge of u and one of v with a common head.  The inner
    double sum is invariant under reflecting the middle momentum, which this
    label swap implements.
    """
    if v == d.root:
        raise ValueError("v must be a non-root vertex")
    zero_ins = [
        (i, e) for i, e in d.in_edges(v) if e[2] == 0 and e[0] != d.root
    ]
    if len(zero_ins) != 1:
        raise ValueError("v needs exactly one zero-labeled in-edge from an apex")
    (_, (u, _, _)) = zero_ins[0]
    if u_edge is None:
        cands = [i for i, e in d.out_edges(u) if e[1] != v]
        if len(cands) != 1:
            raise ValueError("ambiguous side edge at u; pass u_edge")
        u_edge = cands[0]
    if v_edge is None:
        head = d.edges[u_edge][1]
        cands = [i for i, e in d.out_edges(v) if e[1] == head]
        if len(cands) != 1:
            raise ValueError("ambiguous side edge at v; pass v_edge")
        v_edge = cands[0]
    ua, ub, uk = d.edges[u_edge]
    va, vb, vk = d.edges[v_edge]
    if ub != vb:
        raise ValueError("side edges must share their head")
    swapped = d.replace_edges(
        drop=(u_edge, v_edge), add=((ua, ub, vk), (va, vb, uk)))
    return combine_terms([(1, swapped)])


def _reverse_all(d: Diagram) -> Diagram:
    return Diagram(d.vertices, d.root, tuple((b, a, k) for (a, b, k) in d.edges))


def rewrite_three_point(d: Diagram, v):
    """Move a pair of ordering kernels off a three-point constellation.

    v must carry two zero-labeled in-edges from distinct vertices (the
    out-edge case is handled by global arrow reversal, which preserves the
    value).  Emits seven structural terms: two re-routed configurations, the
    bare diagram, three single contractions and the double contraction.
    """
    ins = [(i, e) for i, e in d.in_edges(v) if e[2] == 0 and e[0] != v]
    outs = [(i, e) for i, e in d.out_edges(v) if e[2] == 0 and e[1] != v]
    if len(ins) == 2 and ins[0][1][0] != ins[1][1][0]:
        (i1, (x, _, _)), (i2, (y, _, _)) = ins
        base = d.replace_edges(drop=(i1, i2))
        terms = [
            (-1, base.replace_edges(add=((v, x, 0), (y, x, 0)))),
            (-1, base.replace_edges(add=((v, y, 0), (x, y, 0)))),
            (1, base),
            (1, base.replace_edges(add=((y, x, 0),)).fuse({v, x})),
            (1, base.replace_edges(add=((x, y, 0),)).fuse({v, y})),
            (1, base.replace_edges(add=((v, x, 0),)).fuse({x, y})),
            (-1, base.fuse({v, x, y})),
        ]
        return combine_terms(terms)
    if len(outs) == 2 and outs[0][1][1] != outs[1][1][1]:
        conj = rewrite_three_point(_reverse_all(d), v)
        return combine_terms([(c, _reverse_all(t)) for c, t in conj])
    raise ValueError(
        "v needs two zero-labeled in-edges (or out-edges) from distinct vertices")


# --- structural evaluation (order expansion) --------------------------------

def _components(d: Diagram):
    """The vertex sets of the connected components, by least vertex."""
    comp = {v: {v} for v in d.vertices}
    for a, b, _ in d.edges:
        if comp[a] is not comp[b]:
            merged = comp[a] | comp[b]
            for w in merged:
                comp[w] = merged
    return list({min(c): c for c in comp.values()}.values())


def _hamiltonian_cycles(d: Diagram):
    """Directed cycles through every vertex once, as tuples of edge indices."""
    n = len(d.vertices)
    out_map = {v: d.out_edges(v) for v in d.vertices}
    cycles = []

    def walk(v, visited, path):
        for i, (_, b, _) in out_map[v]:
            if b == d.root and len(visited) == n:
                cycles.append(tuple(path + [i]))
            elif b not in visited:
                visited.add(b)
                walk(b, visited, path + [i])
                visited.remove(b)

    walk(d.root, {d.root}, [])
    return cycles


def _ordering_cells(labels, chords, constraints):
    """The ordering cells where no form has a wrong fixed sign, each built
    one group at a time from the largest momenta down: ({exponents: count},
    whether a chord takes both signs on one); refuses the first cell where a
    constraint does.  A form sums to 0 (each vertex has one cycle edge in and
    one out), so its partial sums to come rise above 0 only while a negative
    coefficient is left, and fall below 0 only while a positive one is.
    """
    forms = chords + constraints
    kinds = [(sum(1 << j for j, c in enumerate(f) if c > 0),
              sum(1 << j for j, c in enumerate(f) if c < 0), i < len(chords))
             for i, f in enumerate(forms)]
    cols = list(zip(*forms, labels))    # per position: coefficients, label
    sums = [(0,) * len(cols[0])]        # sums[m]: their sums over bitmask m
    for m in range(1, 1 << len(labels)):
        sums.append(tuple(map(add, sums[m & (m - 1)],
                              cols[(m & -m).bit_length() - 1])))
    cells = {}
    change = [False]            # a chord of both signs on some cell

    def walk(left, state, expo):
        sub = left
        while sub:
            rest, group, nxt = left ^ sub, sums[sub], []
            for (a, up, down), g, (pos, neg, chord) in zip(state, group, kinds):
                a += g
                up, down = up or a > 0, down or a < 0
                no_up = not up and not rest & neg
                if no_up if chord else (
                        up and not down and not rest & pos or down and no_up):
                    break       # a wrong fixed sign: the cells below are empty
                nxt.append((a, up, down))
            else:
                e = expo + (group[-1],)
                if rest:
                    walk(rest, nxt, e)
                else:
                    cells[e] = cells.get(e, 0) + 1
                    for (_, up, down), (_, _, chord) in zip(nxt, kinds):
                        if up and down and not chord:
                            raise IrreducibleDiagramError(
                                "momentum constraint cuts an ordering cell")
                        change[0] = change[0] or up and down
            sub = (sub - 1) & left

    walk((1 << len(labels)) - 1, [(0, False, False)] * len(forms), ())
    return cells, change[0]


# The walk takes at most 16 ms at 7 positions (150 random diagrams, a 2-core
# Xeon).  A higher limit would reroute auto on seashells of depth 8 and more.
MAX_ORDER_POSITIONS = 7


def order_expansion(d: Diagram) -> ZetaCombination:
    """Value of a cycle-plus-zero-chords diagram by splitting the momentum cone.

    Each chord momentum is an integer form in the cycle momenta, found by
    peeling the chord forest: a leaf chord takes the balance (cycle inflow
    minus outflow) of its leaf vertex, which then moves to the chord's other
    end; the balances left over are the constraints.  On an ordering cell
    n_0 > ... > n_(d-1) >= 1 of the cycle momenta, a form is the sum of
    delta_h * A_h over the gaps delta_h >= 1 and the partial sums A_h of its
    group sums, so it is zero, positive or negative throughout, or takes
    both signs.  A chord must be positive and a constraint zero; a cell
    where a form has another fixed sign is empty, and every other cell adds
    its nested sum.  Refuses more than MAX_ORDER_POSITIONS cycle positions
    before any cell is built, a free chord momentum (no leaf left), and then,
    over all the other cells, a constraint of both signs, a chord of both
    signs and a zero exponent, in this order.
    """
    if len(d.vertices) > MAX_ORDER_POSITIONS:
        raise IrreducibleDiagramError(
            "order expansion over %d cycle positions exceeds the limit %d"
            % (len(d.vertices), MAX_ORDER_POSITIONS))
    weight = sum(k for _, _, k in d.edges)      # labels are >= 0
    candidates = [cyc for cyc in _hamiltonian_cycles(d)
                  if sum(d.edges[i][2] for i in cyc) == weight]
    if not candidates:
        raise IrreducibleDiagramError(
            "no cycle through all vertices with zero-labeled chords")
    cyc = min(candidates)
    chords = [i for i in range(len(d.edges)) if i not in cyc]
    # each vertex's cycle inflow minus outflow, a form in the cycle momenta
    balance = {v: [(d.edges[i][1] == v) - (d.edges[i][0] == v) for i in cyc]
               for v in d.vertices}
    forms, todo = {}, chords
    while todo:
        ends = [v for i in todo for v in d.edges[i][:2]]
        leaf = next(((i, v) for i in todo for v in d.edges[i][:2]
                     if ends.count(v) == 1), None)
        if leaf is None:                # a chord cycle or a chord loop
            raise IrreducibleDiagramError("chord momenta underdetermined")
        i, v = leaf
        a, b, _ = d.edges[i]
        x = balance.pop(v)
        forms[i], u = (x, b) if v == a else ([-c for c in x], a)
        balance[u] = list(map(add, balance[u], x))
        todo = [t for t in todo if t != i]
    cells, change = _ordering_cells([d.edges[i][2] for i in cyc],
                                    [forms[i] for i in chords],
                                    [f for f in balance.values() if any(f)])
    if change:
        raise IrreducibleDiagramError(
            "chord momentum changes sign inside an ordering cell")
    if any(0 in expo for expo in cells):
        raise IrreducibleDiagramError("free momentum with zero exponent")
    return _of({(sort_key(expo),): n for expo, n in cells.items()})


def _structural_value(d: Diagram, steps) -> ZetaCombination:
    total = one()
    for comp in _components(d):
        sub_edges = tuple(e for e in d.edges if e[0] in comp)
        if not sub_edges:
            continue
        root = d.root if d.root in comp else min(comp)
        sub = Diagram(tuple(sorted(comp)), root, sub_edges)
        total = total * _connected_value(sub, steps)
    return total


def _connected_value(d: Diagram, steps) -> ZetaCombination:
    """Self-loops, dead vertices and the root-zero factor rule, then order
    expansion on what is left, which stays connected: a loop joins no two
    vertices, and the zero-arc rule fuses its head into the root."""
    factors = one()
    while True:
        loops = [(i, e) for i, e in enumerate(d.edges) if e[0] == e[1]]
        if loops:
            i, (w, _, k) = loops[0]
            if k == 0:
                raise IrreducibleDiagramError("zero-labeled loop is singular")
            factors = factors * zeta(k)
            steps.append("loop at %d gives a weight-%d factor" % (w, k))
            d = d.replace_edges(drop=(i,))
            continue
        if not d.edges:
            return factors
        dead = [v for v in d.vertices
                if bool(d.in_edges(v)) != bool(d.out_edges(v))]
        if dead:
            steps.append("vertex %d is all-in or all-out: value 0" % dead[0])
            return ZetaCombination()
        for i, (a, b, k) in enumerate(d.edges):
            if a == d.root and k == 0 and b != d.root:
                others = [(j, e) for j, e in enumerate(d.edges)
                          if j != i and (e[0] == b or e[1] == b)]
                if all(e[0] == b for _, e in others):
                    back = [(j, e) for j, e in others
                            if e[1] == d.root and e[2] >= 1]
                    if back:
                        j, (_, _, q) = min(back, key=lambda jt: jt[1][2])
                        factors = factors * zeta(q)
                        steps.append(
                            "zero arc into %d frees a weight-%d factor" % (b, q))
                        d = d.replace_edges(drop=(i, j)).fuse({d.root, b})
                        break
        else:
            break
    note = "order expansion over %d cycle positions" % len(d.vertices)
    if len(d.vertices) > MAX_ORDER_POSITIONS:
        note += " exceeds the limit %d" % MAX_ORDER_POSITIONS
    steps.append(note)
    return factors * order_expansion(d)


# --- shuffle-structure reduction -------------------------------------------

# Raw terms of one rightward expansion, by reduce or any rightward derive
# family (2,1^8,8 makes 30,745, partial-int-3 2 1 3000 over four million);
# the walk reaches the limit in about 0.4 s on a Xeon core.
MAX_RIGHTWARD_TERMS = 1 << 15

def _rebuilds(d: Diagram, order, built: Diagram) -> bool:
    """Whether d, its vertices numbered in the walk order given, is built."""
    num = {v: i for i, v in enumerate(order)}
    return len(num) == len(d.vertices) and built.edges == tuple(
        sorted((num[a], num[b], k) for a, b, k in d.edges))


def _peacock_structure(d: Diagram):
    """Read the diagram as build_peacock's: try each non-root vertex with two
    out-edges as the top, in vertex order, walk the trunk up to it and the
    branches from its out-edges, in sorted order, down to the root.  A step
    takes the first out-edge that is not a zero chord to the root; a revisit
    ends the walk.  Returns the first (trunk labels, branch labels, branch
    labels) that build_peacock rebuilds, or None."""
    step = {a: (b, k) for a, b, k in reversed(d.edges) if b != d.root or k}

    def walk(v, end, *labels):
        while v != end:
            if v in order or v not in step:
                return None
            order.append(v)
            v, k = step[v]
            labels += (k,)
        return labels

    for top in d.vertices:
        outs = [(b, k) for a, b, k in d.edges if a == top]
        if top == d.root or len(outs) != 2:
            continue
        order = []
        reading = (walk(d.root, top),)
        order.append(top)
        reading += tuple(walk(b, d.root, k) for b, k in outs)
        if None not in reading and _rebuilds(
                d, order, build_peacock(*reading)):
            return reading
    return None


def _branch_state_value(trunk, B, C, steps) -> ZetaCombination:
    for X, Y in ((B, C), (C, B)):
        if X == (0,):
            if 0 in trunk + Y:
                raise IrreducibleDiagramError(
                    "free momentum with zero exponent")
            return zeta(Composition(trunk + Y))
    for X, Y in ((B, C), (C, B)):
        if X[0] == 0:
            steps.append("zero branch head pushed onto the trunk")
            return _branch_state_value(trunk + (0,), X[1:], Y, steps)
    if not trunk or trunk[-1] != 0:
        raise IrreducibleDiagramError(
            "trunk must end in a zero label for the branch recursion")
    prefix = trunk[:-1]
    if any(k == 0 for k in prefix + B + C):
        raise IrreducibleDiagramError("interior zero labels are not reducible")
    suffixes = _branch_suffixes(B, C)
    steps.append("branch recursion produced %d terms" % len(suffixes))
    return _of({(sort_key(prefix + suf),): c for suf, c in suffixes})


def _reduce_shuffle(d: Diagram, steps) -> ZetaCombination:
    struct = _peacock_structure(d)
    if struct is None:
        raise IrreducibleDiagramError("not a double-branch diagram")
    trunk, B, C = struct
    steps.append("double-branch structure: trunk %s, branches %s | %s"
                 % (list(trunk), list(B), list(C)))
    return _branch_state_value(trunk, B, C, steps)


# --- rightward strategy -----------------------------------------------------

def _fan_structure(d: Diagram):
    """Read the diagram as a cycle through the root with one chord per apex.

    Every apex but the last has one out-edge that does not return to the
    root; the walk along them ends at the last apex, whose edges back to the
    root each close the cycle, the other edges into the root being chords.
    Keeps the readings that _fan rebuilds and prefers the one with the most
    zero-labeled chords; returns (cycle labels, chord labels in cycle order)
    or None.
    """
    step = {a: (b, k) for a, b, k in reversed(d.edges) if b != d.root}
    order, t = [d.root], ()
    while order[-1] in step:
        v, k = step[order[-1]]
        if v in order:
            return None
        order.append(v)
        t += (k,)
    into_root = [e for e in d.edges if e[1] == d.root]
    readings = []
    for i, (a, _, k) in enumerate(into_root):
        if a != order[-1]:
            continue
        chords = {e[0]: e[2] for e in into_root[:i] + into_root[i + 1:]}
        reading = (t + (k,), tuple(chords.get(v) for v in order[1:]))
        if None not in reading[1] and _rebuilds(d, order, _fan(*reading)):
            readings.append((-reading[1].count(0),) + reading)
    return min(readings)[1:] if readings else None


def _rightward_terms(t, c) -> ZetaCombination:
    """Drive the fan state apex by apex, right to left.

    Each terminal state is a fully ordered cycle (all chords zero) or a
    leading factor split.  A seashell reads two ways: _fan_structure's (k_m
    on the cycle, zero chords), and the chord reading of
    identities._rightward_general_rhs (k_m on the last chord).
    """
    acc = {}
    raw = 0
    stack = [(1, tuple(t), tuple(c), len(c))]
    while stack:
        coeff, t, c, i = stack.pop()
        if c[i - 1] == 0 or t[i] != 0:
            raise_chord = True
            y, z = c[i - 1], t[i]
        else:
            raise_chord = False
            y, z = t[i], c[i - 1]
        spent_z, spent_x = _integration_exits(t[i - 1], z)
        for r, moved, n in spent_z:
            k = (sort_key(t[:i - 1] + (r, y + moved) + t[i + 1:]),)
            assert not any(c[:i - 1]) and not any(c[i:])
            acc[k] = acc.get(k, 0) + (-1) ** z * n * coeff
        raw += len(spent_z) + (len(spent_x) if i == 1 else 0)
        for s, moved, n in spent_x:
            cf = (-1) ** (z - s) * n * coeff
            big, rem = (y + moved, s) if raise_chord else (s, y + moved)
            if i == 1:
                k = tuple(sorted((sort_key((big,)), sort_key((rem,) + t[2:]))))
                acc[k] = acc.get(k, 0) + cf
            else:
                nt = t[:i - 1] + (0, rem) + t[i + 1:]
                nc = c[:i - 2] + (big, 0) + c[i:]
                stack.append((cf, nt, nc, i - 1))
        if raw > MAX_RIGHTWARD_TERMS:
            raise ValueError("the rightward expansion makes more than %d raw "
                             "terms" % MAX_RIGHTWARD_TERMS)
    return _of(acc)


def _reduce_rightward(d: Diagram, steps) -> ZetaCombination:
    fan = _fan_structure(d)
    if fan is None:
        raise IrreducibleDiagramError("not a cycle-with-chords diagram")
    t, c = fan
    steps.append("fan structure: cycle %s, chords %s" % (list(t), list(c)))
    if not c:
        return zeta(Composition(t))
    if any(k != 0 for k in c[:-1]):
        raise IrreducibleDiagramError(
            "only the last chord may start nonzero for the rightward sweep")
    if any(k == 0 for k in t):
        raise IrreducibleDiagramError("zero cycle labels need an exchange first")
    total = _rightward_terms(t, c)
    steps.append("raw reduction has %d terms" % len(total._coeffs))
    final = eliminate_divergent(total)
    steps.append("divergence elimination leaves %d terms" % len(final._coeffs))
    return final


# --- entry point ------------------------------------------------------------

# The strategies in auto's order, each with the step that auto notes when it
# refuses; the last one's refusal stands.
_STRATEGIES = {
    "structural": (_structural_value,
                   "order expansion not applicable; matching known shapes"),
    "shuffle": (_reduce_shuffle, "branch recursion not applicable: {}"),
    "rightward": (_reduce_rightward, None),
}


def reduce(d: Diagram, strategy: str = "auto", steps=None) -> ZetaCombination:
    """Reduce a diagram to an equal-valued combination of nested sums.

    Strategies: "structural" (order expansion of zero-chord diagrams),
    "rightward" (iterated partial integration, right to left, divergent
    pieces eliminated), "shuffle" (double-branch recursion), "auto"
    (structural when it applies, then shuffle, then rightward).  Each step
    taken is appended to the list ``steps`` when one is given, the steps
    before a refusal included.
    """
    steps = [] if steps is None else steps
    if strategy != "auto" and strategy not in _STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    tried = [entry for name, entry in _STRATEGIES.items()
             if strategy in (name, "auto")]
    for run, note in tried[:-1]:
        try:
            return run(d, steps)
        except IrreducibleDiagramError as exc:
            steps.append(note.format(exc))
    return tried[-1][0](d, steps)
