"""Seeded op streams for the four benchmark workloads.

Every stream is a sequence of blocks.  A block holds a fixed multiset of op
classes (family, weight band, length, shape, truncation ...), which is what
sets an op's cost; the seed picks the concrete parameters inside each class
and the order of the ops in the block.  Runs of different seeds therefore do
the same kind and amount of work on different inputs, and the figures of a
run do not hinge on how many heavy ops a seed happened to draw.

The generator uses only the standard library, never the package under test:
the program sees nothing but the argv and JSON built here.  The same
(workload, seed) gives a byte-identical op list (see ``digest``).
"""

import hashlib
import itertools
import json
import random

WORKLOADS = ("verify-stream", "truncated-sums", "rank-systems",
             "symbolic-rewrite")

# Known defects of the library, kept in the streams on purpose (each slice at
# most 5 % of a block) so that a fix shows up as a higher ok_share.
DEFECTS = {
    "signed-verify": "verify of a signed permutation identity raises "
                     "'accelerated evaluator handles unsigned compositions' "
                     "(exit 2)",
    "three-point-one": "three-point identity with an exponent 1: divergent "
                       "terms survive elimination, verify exits 2",
    "signed-eps-missed": "eval 2,-1 --eps 1e-12 exits 0 with bound 1.58e-05, "
                         "missing the requested eps",
}

# How each known defect shows.  An op of a slice counts as refused only when
# it exits 2 with this text on stderr (for derive-verify, at the verify
# stage); None means it exits 0 with a bound that misses the requested eps.
# Any other failure of the op counts as failed.
DEFECT_ERRORS = {
    "signed-verify": "accelerated evaluator handles unsigned compositions",
    "three-point-one": "divergent terms survive elimination",
    "signed-eps-missed": None,
}

# Three-point triples whose verification exits 2 because divergent terms
# survive elimination (all such triples with entries <= 6 and weight <= 11;
# the other triples with an exponent 1 verify normally).
THREE_POINT_DIVERGENT = (
    (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 1, 6), (1, 2, 1),
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 1), (1, 3, 4),
    (1, 3, 5), (1, 3, 6), (1, 4, 1), (1, 4, 5), (1, 4, 6), (1, 5, 1),
    (1, 6, 1), (2, 1, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1), (2, 6, 1),
    (3, 1, 1), (3, 1, 2), (3, 4, 1), (3, 5, 1), (3, 6, 1), (4, 1, 1),
    (4, 1, 2), (4, 1, 3), (4, 5, 1), (4, 6, 1), (5, 1, 1), (5, 1, 2),
    (5, 1, 3), (5, 1, 4), (6, 1, 1), (6, 1, 2), (6, 1, 3), (6, 1, 4),
)

EPS_CHOICES = ("1e-9", "1e-12", "1e-15")


def compositions(weight, min_depth=1, admissible=True):
    """All unsigned compositions of ``weight``, in a fixed order."""
    out = []

    def rec(prefix, rest):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for k in range(1, rest + 1):
            rec(prefix + [k], rest - k)

    rec([], weight)
    return [c for c in out
            if len(c) >= min_depth and (not admissible or c[0] >= 2)]


def text(parts):
    return ",".join(str(p) for p in parts)


class _Gen:
    """Random choices for one stream.

    Weights, depths and eps values, which set most of an op's cost, follow a
    fixed schedule over the block index and the op's slot in the block, so
    every seed runs the same mix of them; the seed draws everything else.
    """

    def __init__(self, workload, seed):
        self.rng = random.Random("mzv-bench:%s:%d" % (workload, seed))
        self.decks = {}
        self.block = -1
        self.slot = 0

    def next_block(self):
        self.block += 1
        self.slot = 0

    def cycle(self, n):
        self.slot += 1
        return (self.block + self.slot) % n

    def weight(self, lo, hi):
        return lo + self.cycle(hi - lo + 1)

    def eps(self):
        return EPS_CHOICES[self.cycle(len(EPS_CHOICES))]

    def comp(self, weight, min_depth=1, max_depth=None):
        """An admissible composition; its depth follows the schedule.  It is
        dealt from a deck of all compositions of that weight and depth,
        shuffled by the seed and reshuffled when empty, so every seed draws
        each composition about equally often and runs of different seeds
        cost about the same."""
        pool = [c for c in compositions(weight, min_depth)
                if max_depth is None or len(c) <= max_depth]
        depths = sorted({len(c) for c in pool})
        depth = depths[self.cycle(len(depths))]
        deck = self.decks.setdefault((weight, depth), [])
        if not deck:
            deck += [c for c in pool if len(c) == depth]
            self.rng.shuffle(deck)
        return deck.pop()

    def pair(self, weight, max_depth=None):
        """Two admissible compositions of total weight ``weight``."""
        w1 = 2 + self.cycle(weight - 3)
        return (self.comp(w1, max_depth=max_depth),
                self.comp(weight - w1, max_depth=max_depth))

    def finish(self, block):
        self.rng.shuffle(block)
        return block


# --- verify-stream ----------------------------------------------------------

def _identity_op(family, args, g, cls, variant=None, defect=None):
    derive = [family] + [str(a) for a in args]
    if variant:
        derive += ["--variant", variant]
    # Raw partial-int identities carry zeta(1) symbols; a perturbed
    # coefficient would stop their divergent terms from cancelling, so they
    # are never perturbed.
    return {"kind": "derive-verify", "cls": cls, "derive": derive,
            "eps": g.eps(), "perturb": None,
            "regularized": family == "partial-int", "defect": defect}


def _verify_block(g):
    ops = []
    # above weight 9 the factors are kept to depth <= 2: deeper pairs there
    # cost up to 3 s an op, and a handful of them would decide a whole run
    for band, depth in (((4, 5), None), ((6, 7), None), ((8, 9), None),
                        ((10, 11), 2)):
        for family in ("permutation", "shuffle"):
            left, right = g.pair(g.weight(*band), max_depth=depth)
            ops.append(_identity_op(family, [text(left), text(right)], g,
                                    "%s-w%d" % (family, band[1])))
    for band in ((4, 7), (8, 11)):
        w = g.weight(*band)
        a = g.rng.randint(2, w - 1)
        ops.append(_identity_op("partial-int-2", [a, w - a], g,
                                "partial-int-2-w%d" % band[1]))
    for band in ((5, 8), (9, 11)):
        w = g.weight(*band)
        a = g.rng.randint(2, w - 2)
        b = g.rng.randint(1, w - a - 1)
        ops.append(_identity_op("partial-int-3", [a, b, w - a - b], g,
                                "partial-int-3-w%d" % band[1],
                                variant=g.rng.choice(["rightward",
                                                      "alternative"])))
    for band in ((4, 6), (7, 9)):
        c = g.comp(g.weight(*band), min_depth=2)
        # leftward with a second exponent 1 has a divergent lhs factor that
        # elimination cannot remove (verify exits 2); it is left out
        variant = "rightward" if c[1] == 1 else g.rng.choice(["rightward",
                                                              "leftward"])
        ops.append(_identity_op("partial-int", [text(c)], g,
                                "partial-int-w%d" % band[1], variant=variant))
    for band in ((3, 6), (7, 10)):
        c = g.comp(g.weight(*band))
        ops.append(_identity_op("trailing-one", [text(c)], g,
                                "trailing-one-w%d" % (band[1] + 1)))
    for band in ((6, 8), (9, 11)):
        triples = [t for t in itertools.product(range(2, 8), repeat=3)
                   if band[0] <= sum(t) <= band[1]]
        t = g.rng.choice(triples)
        ops.append(_identity_op("three-point", list(t), g,
                                "three-point-w%d" % band[1]))
    # known-defect slices, one op each per block of 20
    w = g.weight(3, 6)
    k = g.rng.randint(1, w - 2)
    signed = g.comp(w - k, max_depth=2)
    signed = signed[:-1] + (-signed[-1],)
    ops.append(_identity_op("permutation", [text(signed), text((k + 1,))], g,
                            "signed-permutation", defect="signed-verify"))
    t = g.rng.choice([t for t in THREE_POINT_DIVERGENT if sum(t) <= 8])
    ops.append(_identity_op("three-point", list(t), g, "three-point-one",
                            defect="three-point-one"))
    # perturb one rhs coefficient in two of the finite, defect-free identities
    finite = [op for op in ops if not op["regularized"] and not op["defect"]]
    for op in g.rng.sample(finite, 2):
        op["perturb"] = g.rng.randrange(1 << 16)
    return g.finish(ops)


# --- truncated-sums ---------------------------------------------------------

def _eval_op(parts, N, cls, defect=None, eps=None):
    argv = ["eval", "--json"]
    argv += ["--eps", eps] if eps else ["--trunc", str(N)]
    argv += ["--", text(parts)]      # a leading "-1," would read as an option
    return {"kind": "cli", "cls": cls, "argv": argv, "parts": list(parts),
            "N": N, "eps": eps, "defect": defect}


def _sum_parts(g, depth, signed):
    """A composition of weight <= 8 for the direct evaluator.

    Its cost at N = 10^6 is set by the number of parts >= 4: numpy raises
    longdouble to the powers 1..3 about ten times faster than to higher
    ones.  That number (0 or 1) follows the schedule; the seed draws the
    composition and, for signed sums, the signs (at least one -1, and -1 on
    a leading 1, whose unsigned sum diverges).
    """
    big = g.cycle(2)
    pool = [c for w in range(depth, 9)
            for c in compositions(w, admissible=not signed)
            if len(c) == depth and sum(p >= 4 for p in c) == big]
    parts = g.rng.choice(pool)
    if not signed:
        return parts
    signs = [g.rng.choice((1, -1)) for _ in parts]
    signs[g.rng.randrange(depth)] = -1
    if parts[0] == 1:
        signs[0] = -1
    return tuple(p * s for p, s in zip(parts, signs))


def _truncated_block(g):
    ops = []
    for N, depths in ((10 ** 5, (1, 2, 3, 4)), (10 ** 6, (1, 2, 3))):
        for depth in depths:
            ops.append(_eval_op(_sum_parts(g, depth, False), N,
                                "unsigned-d%d-N%d" % (depth, N)))
    for N in (10 ** 5, 10 ** 6):
        ops.append(_eval_op(_sum_parts(g, 1, True), N, "signed-d1-N%d" % N))
        depth = 2 + g.cycle(2)
        ops.append(_eval_op(_sum_parts(g, depth, True), N,
                            "signed-deep-N%d" % N))
    for N, count in ((10 ** 3, 6), (10 ** 4, 2)):
        for _ in range(count):
            q = g.rng.randint(2, 20)
            p = g.rng.randint(-(q - 1), q - 1)
            ops.append({"kind": "propagator", "cls": "propagator-N%d" % N,
                        "k": g.rng.choice((2, 3, 4)), "p": p, "q": q, "N": N,
                        "defect": None})
    ops.append(_eval_op((2, -1), 10 ** 6, "signed-eps", eps="1e-12",
                        defect="signed-eps-missed"))
    return g.finish(ops)


# --- rank-systems -----------------------------------------------------------

# Multiplicity shapes of the degenerate systems in every block.  The cost of
# a system depends only on its shape (the number of distinct permutations is
# the number of unknowns), so each block does the same elimination work.
RANK_SHAPES = ((2, 1), (3,), (2, 1, 1), (2, 2), (3, 1), (2, 1, 1, 1),
               (2, 2, 1), (3, 1, 1), (3, 2), (2, 2, 1, 1), (2, 2, 2),
               (3, 2, 1))
# Length 6 is kept to shapes with at most 180 unknowns: the generic system
# (720 unknowns) takes 17 s and a,b,c,d,e,e (360 unknowns) 4.5 s, so a
# single op would take most of a run.
ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _pattern(g, shape):
    letters = g.rng.sample(ALPHABET, len(shape))
    symbols = [s for s, m in zip(letters, shape) for _ in range(m)]
    g.rng.shuffle(symbols)
    return symbols


def _rank_block(g):
    ops = []
    for length in (3, 4, 5):
        ops.append({"kind": "cli", "cls": "rank-length-%d" % length,
                    "argv": ["rank", "--length", str(length), "--json"],
                    "shape": [1] * length, "defect": None})
        symbols = _pattern(g, (1,) * length)
        ops.append({"kind": "cli", "cls": "rank-generic-%d" % length,
                    "argv": ["rank", "--pattern", ",".join(symbols), "--json"],
                    "shape": [1] * length, "defect": None})
    for shape in RANK_SHAPES:
        symbols = _pattern(g, shape)
        ops.append({"kind": "cli", "cls": "rank-shape-%s" % text(shape),
                    "argv": ["rank", "--pattern", ",".join(symbols), "--json"],
                    "shape": list(shape), "defect": None})
    for length in (3, 4, 5):
        ops.append({"kind": "basis", "cls": "basis-%d" % length,
                    "l": length, "defect": None,
                    "check": g.rng.randrange(1 << 16)})
    return g.finish(ops)


# --- symbolic-rewrite -------------------------------------------------------

def _reduce_op(g, cls, flag, args, strategy=None, check=None):
    argv = ["reduce", flag] + list(args)
    if strategy:
        argv += ["--strategy", strategy]
    argv.append("--json")
    return {"kind": "cli", "cls": cls, "argv": argv, "check": check,
            "defect": None}


def _symbolic_block(g):
    ops = []
    for depth, band in ((2, (4, 11)), (3, (5, 8)), (3, (9, 11))):
        c = g.comp(g.weight(*band), min_depth=depth, max_depth=depth)
        ops.append(_reduce_op(g, "seashell-rightward-d%d-w%d" % (depth, band[1]),
                              "--seashell", [text(c)], "rightward",
                              {"route": "partial-int", "parts": list(c)}))
    for strategy in ("structural", "auto"):
        for depth in (2, 3, 4):
            c = g.comp(g.weight(depth + 1, 11), min_depth=depth,
                       max_depth=depth)
            ops.append(_reduce_op(g, "seashell-%s-d%d" % (strategy, depth),
                                  "--seashell", [text(c)], strategy,
                                  {"route": "nested-sum", "parts": list(c)}))
    for band in ((3, 7), (8, 11)):
        w = g.weight(*band)
        a = g.rng.randint(1, w - 2)
        b = g.rng.randint(1, w - a - 1)
        ops.append(_reduce_op(g, "half-moon-w%d" % band[1], "--half-moon",
                              [text((a, b, w - a - b))], None,
                              {"route": "half-moon", "abc": [a, b, w - a - b]}))
    w = g.weight(3, 11)
    a = g.rng.randint(2, w - 1)
    ops.append(_reduce_op(g, "half-moon-zero", "--half-moon",
                          [text((a, 0, w - a))], None,
                          {"route": "nested-sum", "parts": [a, w - a]}))
    for band in ((4, 7), (8, 10)):
        w = g.weight(*band)
        prefix = ()
        if g.rng.random() < 0.5:
            prefix = g.comp(g.weight(2, 3))
        rest = w - sum(prefix)
        b1, b2 = g.pair(rest) if rest >= 4 else ((2,), (2,))
        trunk = prefix + (0,)
        ops.append(_reduce_op(g, "peacock-shuffle-w%d" % band[1], "--peacock",
                              [text(trunk), text(b1), text(b2)], "shuffle",
                              {"route": "word-shuffle", "trunk": list(trunk),
                               "b1": list(b1), "b2": list(b2)}))
    for band in ((5, 8), (9, 11)):
        w = g.weight(*band)
        a = g.rng.randint(2, w - 2)
        b = g.rng.randint(1, w - a - 1)
        ops.append({"kind": "cli", "cls": "derive-partial-int-3-w%d" % band[1],
                    "argv": ["derive", "partial-int-3", str(a), str(b),
                             str(w - a - b), "--json"],
                    "check": {"route": "seashell", "parts": [a, b, w - a - b]},
                    "defect": None})
    # trailing-one has no second exact route in general, so the oracle
    # checks it numerically; weights stay <= 9 to keep that check cheap
    for band in ((3, 5), (6, 8)):
        c = g.comp(g.weight(*band))
        ops.append({"kind": "cli", "cls": "derive-trailing-one-w%d" % (band[1] + 1),
                    "argv": ["derive", "trailing-one", text(c), "--json"],
                    "check": {"route": "trailing-one", "parts": list(c)},
                    "defect": None})
    for band in ((4, 8), (9, 10), (11, 11)):
        c = g.comp(g.weight(*band), min_depth=2)
        ops.append({"kind": "cross-check", "cls": "cross-check-w%d" % band[1],
                    "parts": list(c), "defect": None})
    return g.finish(ops)


# Blocks per second of --seconds.  A run does a fixed amount of work,
# round(seconds * rate) blocks, and reports how long it took: verify-stream
# runs from cold caches to warm ones, and a window of fixed length would end
# at a different point of that curve on every run.  The rates make a run
# take about --seconds at the commit that defined the benchmark (shared
# 2-core x86 machine, Python 3.11, mpmath without gmpy2).
BLOCK_RATE = {
    "verify-stream": 1.2,
    "truncated-sums": 0.3,
    "rank-systems": 0.3,
    "symbolic-rewrite": 8.0,
}

_BLOCKS = {
    "verify-stream": _verify_block,
    "truncated-sums": _truncated_block,
    "rank-systems": _rank_block,
    "symbolic-rewrite": _symbolic_block,
}


def block_count(workload, seconds):
    return max(1, round(seconds * BLOCK_RATE[workload]))


def blocks(workload, seed):
    """Endless stream of op blocks for a workload and seed."""
    if workload not in _BLOCKS:
        raise ValueError("unknown workload %r (have: %s)"
                         % (workload, ", ".join(WORKLOADS)))
    g = _Gen(workload, seed)
    make = _BLOCKS[workload]
    while True:
        g.next_block()
        yield make(g)


def digest(workload, seed, count=50):
    """SHA-256 of the first ``count`` blocks, serialized canonically."""
    stream = blocks(workload, seed)
    h = hashlib.sha256()
    for _ in range(count):
        h.update(json.dumps(next(stream), sort_keys=True).encode())
    return h.hexdigest()
