"""Per-layer tracing for the traced benchmark run.

The public functions of each layer are wrapped at their module attributes,
from outside the package: every module of ``mzv`` that holds the function
object (``from .x import y`` makes copies) gets the wrapper, and ``install``
returns a handle that puts the originals back.  Nothing under ``src/`` is
edited.

A wrapper records one span (name, start, end, parent, op id), its call
count, its errors (exceptions that escape it) and its self time, which is
its duration minus the durations of the wrapped calls it made.  Work counts
are read from the arguments and return values.  Spans stay in memory until
``write_spans`` at the end of the run.
"""

import math
import time

# (layer, attribute path) of every traced function.
TRACED = (
    ("cli", "main"),
    ("identities", "derive"),
    ("identities", "partial_integration_cross_check"),
    ("algebra", "normalize"),
    ("algebra", "stuffle"),
    ("algebra", "eliminate_divergent"),
    ("diagrams", "reduce"),
    ("diagrams", "order_expansion"),
    ("diagrams", "shuffle_expansion"),
    ("numerics", "verify_identity"),
    ("numerics", "eval_combination"),
    ("numerics", "eval_mzv_accel"),
    ("numerics", "eval_mzv_direct"),
    ("numerics", "eval_propagator"),
    ("linalg", "assemble_permutation_system"),
    ("linalg", "ExactMatrix.rank"),
    ("linalg", "reduce_to_basis"),
)
# Counted only: parsing is too cheap and too frequent for a span.
COUNTED = (("compositions", "parse_composition"),)

MODULES = ("algebra", "cli", "compositions", "diagrams", "identities",
           "linalg", "numerics")


def _terms(comb):
    return len(comb.terms)


def _direct_terms(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    N = args[1] if len(args) > 1 else kwargs["N"]
    return N * c.depth


def _propagator_terms(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["N"]


# name -> {counter: fn(args, kwargs, result) -> number}, summed over calls
WORK = {
    "algebra.normalize": {
        "terms_in": lambda a, k, r: _terms(a[0] if a else k["comb"]),
        "terms_out": lambda a, k, r: _terms(r),
    },
    "algebra.eliminate_divergent": {
        "terms_in": lambda a, k, r: _terms(a[0] if a else k["comb"]),
        "terms_out": lambda a, k, r: _terms(r),
    },
    "identities.derive": {
        "terms_out": lambda a, k, r: _terms(r.lhs) + _terms(r.rhs),
    },
    "numerics.eval_combination": {
        "atoms": lambda a, k, r: len((a[0] if a else k["comb"])
                                     .compositions()),
    },
    "numerics.eval_mzv_direct": {"terms": _direct_terms},
    "numerics.eval_propagator": {"terms": _propagator_terms},
    "linalg.assemble_permutation_system": {
        "nnz": lambda a, k, r: sum(len(row) for row in r.rows),
    },
    "linalg.ExactMatrix.rank": {
        "unknowns": lambda a, k, r: len(a[0].unknowns or ()),
    },
}


def _accel_dps(eps):
    """Working precision eval_mzv_accel picks for ``eps`` (mirrors it)."""
    return max(30, int(math.ceil(-math.log10(eps))) + 15)


# Shares of eval_mzv_accel calls that repeat an earlier call of the run, by
# three keys: ``repeat_share`` by (composition, eps) as requested;
# ``repeat_share_dps`` by (parts, working precision), the key of the
# evaluator's own cache, so the share that cache can hit; and
# ``repeat_share_word`` by composition alone, the ceiling for the hit ratio
# of any cache of values.
ACCEL_REPEAT_KEYS = {
    "repeat_share": lambda c, eps: (c, eps),
    "repeat_share_dps": lambda c, eps: (c.parts, _accel_dps(eps)),
    "repeat_share_word": lambda c, eps: c.parts,
}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer, path in TRACED:
        name = "%s.%s" % (layer, path)
        out += [(name + ".calls", "count"), (name + ".self_s", "s"),
                (name + ".errors", "count")]
        out += [("%s.%s" % (name, w), "count") for w in WORK.get(name, ())]
        if name == "numerics.eval_mzv_accel":
            out += [(name + "." + k, "ratio") for k in ACCEL_REPEAT_KEYS]
    for layer, path in COUNTED:
        out.append(("%s.%s.calls" % (layer, path), "count"))
    out.append(("diagrams.canonical_key.hit_ratio", "ratio"))
    out += [("trace.ops_per_s_traced", "1/s"),
            ("trace.ops_per_s_untraced", "1/s"),
            ("trace.overhead", "ratio")]
    return out


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.spans = []          # (id, parent, op, name, start, end)
        self.stack = []          # [span id, child seconds]
        self.next_id = 0
        self.op = -1
        self.stats = {}          # name -> {"calls", "self_s", "errors", ...}
        self.accel_seen = {k: set() for k in ACCEL_REPEAT_KEYS}
        self.accel_repeats = dict.fromkeys(ACCEL_REPEAT_KEYS, 0)

    # -- op root spans --------------------------------------------------
    def begin_op(self, op_id):
        self.op = op_id
        self.stack.append([self._new_id(), 0.0, time.perf_counter()])

    def end_op(self):
        sid, _, start = self.stack.pop()
        self.spans.append((sid, -1, self.op, "op", start, time.perf_counter()))

    def _new_id(self):
        self.next_id += 1
        return self.next_id - 1

    # -- wrappers -------------------------------------------------------
    def wrap(self, name, fn):
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "errors": 0})
        work = WORK.get(name, {})
        for w in work:
            st[w] = 0
        spans = self.spans
        stack = self.stack
        accel = name == "numerics.eval_mzv_accel"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st["calls"] += 1
            sid = self._new_id()
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st["errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st["self_s"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, self.op, name, start, end))
            for w, count in work.items():
                st[w] += count(args, kwargs, result)
            if accel:
                c = args[0] if args else kwargs["c"]
                eps = args[1] if len(args) > 1 else kwargs["eps"]
                for k, key in ACCEL_REPEAT_KEYS.items():
                    key = key(c, eps)
                    if key in self.accel_seen[k]:
                        self.accel_repeats[k] += 1
                    self.accel_seen[k].add(key)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        st = self.stats.setdefault(name, {"calls": 0})

        def counted(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results --------------------------------------------------------
    def metrics(self, canonical_key_info):
        out = {}
        for name, st in self.stats.items():
            for k, v in st.items():
                out["%s.%s" % (name, k)] = v
        calls = self.stats["numerics.eval_mzv_accel"]["calls"]
        for k, repeats in self.accel_repeats.items():
            out["numerics.eval_mzv_accel." + k] = (
                repeats / calls if calls else 0.0)
        looked_up = canonical_key_info.hits + canonical_key_info.misses
        out["diagrams.canonical_key.hit_ratio"] = (
            canonical_key_info.hits / looked_up if looked_up else 0.0)
        return out

    def write_spans(self, path):
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_us\tend_us\n")
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write("%d\t%d\t%d\t%s\t%.1f\t%.1f\n" % (
                    sid, parent, op, name, (start - t0) * 1e6,
                    (end - t0) * 1e6))


def install(tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    import importlib

    mods = {m: importlib.import_module("mzv." + m) for m in MODULES}
    holders = [importlib.import_module("mzv")] + list(mods.values())
    undo = []

    def patch(layer, path, make):
        owner = mods[layer]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        wrapper = make("%s.%s" % (layer, path), fn)
        if outer:            # a method: patch the class attribute
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, fn))
            return
        for mod in holders:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, fn))

    for layer, path in TRACED:
        patch(layer, path, tracer.wrap)
    for layer, path in COUNTED:
        patch(layer, path, tracer.count)

    def uninstall():
        for owner, name, fn in reversed(undo):
            setattr(owner, name, fn)

    return uninstall
