"""Brute-force oracles shared across the test modules.

Everything here is deliberately primitive: plain loops, no numpy, no
acceleration, so the library code is checked against an independent
computation path.
"""

import collections
import itertools
from fractions import Fraction

from mzv import ProductTerm, ZetaCombination, composition, to_word


def _as_comp(c):
    return c if hasattr(c, "parts") else composition(*c)


def brute_mzv(c, N=200):
    """Truncated nested sum over n1 > ... > nm <= N, plain floats."""
    c = _as_comp(c)
    S = None
    for j in reversed(range(c.depth)):
        nxt = [0.0] * (N + 2)
        run = 0.0
        for n in range(1, N + 1):
            nxt[n] = run
            t = float(n) ** (-c.parts[j])
            if c.sign(j) == -1 and n % 2 == 1:
                t = -t
            if S is not None:
                t *= S[n]
            run += t
        nxt[N + 1] = run
        S = nxt
    return S[N + 1]


def brute_mzv_exact(c, N=25):
    """Same truncated sum in exact rational arithmetic (keep N small)."""
    c = _as_comp(c)
    S = None
    for j in reversed(range(c.depth)):
        nxt = [Fraction(0)] * (N + 2)
        run = Fraction(0)
        for n in range(1, N + 1):
            nxt[n] = run
            t = Fraction(1, n ** c.parts[j])
            if c.sign(j) == -1 and n % 2 == 1:
                t = -t
            if S is not None:
                t *= S[n]
            run += t
        nxt[N + 1] = run
        S = nxt
    return S[N + 1]


def all_compositions(max_weight):
    """Every unsigned composition of weight 1..max_weight, admissible or
    not, as tuples of parts."""
    out = []
    for weight in range(1, max_weight + 1):
        for cuts in itertools.product((False, True), repeat=weight - 1):
            parts = [1]
            for cut in cuts:
                if cut:
                    parts.append(1)
                else:
                    parts[-1] += 1
            out.append(tuple(parts))
    return out


def signed_compositions(max_weight):
    """Every composition of weight 1..max_weight under every choice of signs,
    as tuples of signed ints; the unsigned ones are all_compositions."""
    return [tuple(k * s for k, s in zip(parts, signs))
            for parts in all_compositions(max_weight)
            for signs in itertools.product((1, -1), repeat=len(parts))]


def word_parts(word):
    """The parts of a word as (k, a) pairs, one per run 0^(k-1) a with a
    nonzero: the inverse of ``to_word`` on the exponents and letters."""
    parts, k = [], 1
    for a in word:
        if a:
            parts.append((k, a))
            k = 1
        else:
            k += 1
    if not parts or k != 1:
        raise ValueError("word must be nonempty and end in a nonzero letter")
    return parts


def brute_quasi_shuffle(u, v, merge=lambda x, y: tuple(sorted(x + y))):
    """u * v = u1 (u' * v) + v1 (u * v') + (u1 v1)(u' * v'), as counts; with
    merge None the last term is dropped, which leaves the shuffle."""
    if not u or not v:
        return collections.Counter([u + v])
    out = collections.Counter()
    steps = [(u[0], (u[1:], v)), (v[0], (u, v[1:]))]
    if merge:
        steps.append((merge(u[0], v[0]), (u[1:], v[1:])))
    for head, rest in steps:
        for comp, count in brute_quasi_shuffle(*rest, merge).items():
            out[(head,) + comp] += count
    return out


def word_composition(word):
    """The composition of a word over {0, 1, -1}: part i is the run ending in
    the letter b_i, with sign sigma_i = b_i * b_(i-1)."""
    parts = word_parts(word)
    return composition(*(k * b * a for (k, b), (_, a)
                         in zip(parts, [(1, 1)] + parts)))


def brute_shuffle(left, right):
    """The shuffle of two signed compositions, given as tuples of signed ints:
    the merge-free quasi-shuffle of their to_word words, each word read back
    as a composition."""
    words = brute_quasi_shuffle(to_word(composition(*left)),
                                to_word(composition(*right)), None)
    return ZetaCombination(tuple(ProductTerm(c, (word_composition(w),))
                                 for w, c in words.items()))


def brute_term(term, N=200):
    """Truncated value of one ProductTerm."""
    val = float(term.coefficient)
    for f in term.factors:
        val *= brute_mzv(f, N)
    return val


def brute_combination(comb, N=200):
    return sum(brute_term(t, N) for t in comb.terms)


def _tree_structure(d):
    adj = {v: [] for v in d.vertices}
    for i, (a, b, k) in enumerate(d.edges):
        adj[a].append((i, b, -1))
        adj[b].append((i, a, 1))
    parent_edge = {}
    seen = {d.root}
    order = []
    q = collections.deque([d.root])
    while q:
        v = q.popleft()
        for i, w, s in adj[v]:
            if w not in seen:
                seen.add(w)
                parent_edge[w] = i
                order.append(w)
                q.append(w)
    if len(seen) != len(d.vertices):
        raise ValueError("diagram is not connected")
    free = [i for i in range(len(d.edges))
            if i not in set(parent_edge.values())]
    return adj, parent_edge, list(reversed(order)), free


def brute_diagram(d, M):
    """Box-truncated momentum sum of a diagram.

    Every edge carries an integer momentum in 1..M; momentum is conserved
    at every non-root vertex (the root constraint is then automatic).
    Edges with label k contribute n^-k.
    """
    adj, parent_edge, rev_order, free = _tree_structure(d)
    E = len(d.edges)
    total = 0.0
    for combo in itertools.product(range(1, M + 1), repeat=len(free)):
        n = [0] * E
        for i, val in zip(free, combo):
            n[i] = val
        ok = True
        for v in rev_order:
            pe = parent_edge[v]
            bal = 0
            for i, w, s in adj[v]:
                if i != pe:
                    bal += s * n[i]
            into_v = d.edges[pe][1] == v
            n[pe] = -bal if into_v else bal
            if not 1 <= n[pe] <= M:
                ok = False
                break
        if not ok:
            continue
        p = 1.0
        for i, (a, b, k) in enumerate(d.edges):
            if k:
                p *= float(n[i]) ** (-k)
        total += p
    return total


def brute_diagram_richardson(d, M):
    """First-order Richardson extrapolation of the box truncation."""
    return 2.0 * brute_diagram(d, 2 * M) - brute_diagram(d, M)
