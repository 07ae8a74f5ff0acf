"""Benchmark of the mzv package: one closed-loop client, four workloads.

    python3 bench/run.py --workload verify-stream --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16
    python3 bench/run.py --self-check

Run from the root of a checkout; the package is imported from ``src/``.
One process, no threads: each op (an in-process ``mzv.cli.main(argv)``, or
a library call where no CLI command exists) starts only after the previous
one returned.  A run does a fixed amount of work, the number of op blocks
(see ``workloads.py``) that ``--seconds`` buys at the workload's rate, and
measures how long it takes.  Times are reported at reference speed, so
that the drift of a shared machine's speed divides out (``calibrate.py``).
The process starts cold, as an ``mzv`` invocation does, so the module-level
caches of ``numerics`` fill during the run.  Every output is checked by
``oracle.py`` after the timed loop.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layer
functions (``tracing.py``), runs the same blocks traced, starts the
``--trace 0`` run of the same blocks in a fresh interpreter to measure the
tracing overhead, and prints the per-layer metrics.  Spans go to
``.bench_out/``.  The last line of stdout is one JSON object; the exit code
is 1 when an output is wrong and 2 when the benchmark cannot run at all.  ``--workload all`` runs every
workload, each in its own interpreter, and exits with the worst code.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# One process, no threads: keep numpy's BLAS pools to one thread in this
# process and in the set-up probes, before anything imports numpy.  No op
# of the package does BLAS work; the pools only start threads at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 8
SAMPLE_EVERY_S = 0.25
CHILD_TIMEOUT = 150


def checkpoints(n_blocks):
    """How many set-up probes run before each block (index ``n_blocks``:
    after the last one): SETUP_PROBES, spread evenly over the loop, so that
    set-up time and the ops sample the machine over the same stretch of
    time."""
    return Counter(k * n_blocks // (SETUP_PROBES - 1)
                   for k in range(SETUP_PROBES))


def run_loop(workload, seed, n_blocks, tracer=None, checkpoint=None,
             sample=lambda: None):
    """Closed loop over ``n_blocks`` blocks.  ``checkpoint()`` runs at the
    points of ``checkpoints``.  ``sample()`` runs before the first op, after
    the last one, and after each op that completes SAMPLE_EVERY_S of loop
    time since the previous call; the calls cut the loop into intervals.
    Neither is in the measured time.  Returns (ops, results, latencies,
    interval of each op, measured seconds of each interval)."""
    from ops import execute

    ops, results, latencies, interval_of = [], [], [], []
    clock = time.perf_counter
    stream = workloads.blocks(workload, seed)
    points = checkpoints(n_blocks) if checkpoint else Counter()
    sample()
    seconds = [0.0]
    for i in range(n_blocks):
        for _ in range(points[i]):
            checkpoint()
        t = clock()
        block = next(stream)
        seconds[-1] += clock() - t
        for op in block:
            t = clock()
            if tracer:
                tracer.begin_op(len(ops))
            t0 = clock()
            res = execute(op)
            latencies.append(clock() - t0)
            if tracer:
                tracer.end_op()
            ops.append(op)
            results.append(res)
            interval_of.append(len(seconds) - 1)
            seconds[-1] += clock() - t
            if seconds[-1] >= SAMPLE_EVERY_S:
                sample()
                seconds.append(0.0)
    for _ in range(points[n_blocks]):
        checkpoint()
    sample()
    return ops, results, latencies, interval_of, seconds


def judge(ops, results):
    """Oracle outcome per op, in op order."""
    check = oracle.Oracle().check
    return [check(op, res) for op, res in zip(ops, results)]


def summary(workload, ops, outcomes, latencies, elapsed):
    counts = Counter(o for o, _ in outcomes)
    refused = Counter(op["defect"] for op, (o, _) in zip(ops, outcomes)
                      if o == oracle.REFUSED)
    n = len(ops)
    lines = ["workload %s: %d ops in %.3f s at reference speed (closed "
             "loop, 1 client)"
             % (workload, n, elapsed),
             "  outcomes: %s" % ", ".join("%s %d" % kv
                                          for kv in sorted(counts.items()))]
    for defect, k in sorted(refused.items()):
        lines.append("  refused %-18s %4d  (%.1f %%)  %s"
                     % (defect, k, 100.0 * k / n, workloads.DEFECTS[defect]))
    per_class = defaultdict(lambda: [0, 0.0])
    for op, dt in zip(ops, latencies):
        per_class[op["cls"]][0] += 1
        per_class[op["cls"]][1] += dt
    top = sorted(per_class.items(), key=lambda kv: -kv[1][1])[:6]
    lines.append("  heaviest classes: " + ", ".join(
        "%s %.2f s/%d" % (cls, t, k) for cls, (k, t) in top))
    for (o, detail), op in zip(outcomes, ops):
        if o in (oracle.WRONG, oracle.FAILED):
            lines.append("  %s: %s: %s" % (o.upper(), op.get("argv") or
                                           op.get("derive") or op["kind"],
                                           detail[:200]))
    return counts, lines


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def result_line(counts, attempted, metrics):
    """Print the closing JSON object; returns the exit code."""
    wrong = counts[oracle.WRONG]
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": counts[oracle.FAILED], "metrics": metrics}))
    return 0 if wrong == 0 else 1


def untraced(args):
    calibrate.probe(calibrate.SETUP_BODY, SRC)  # untimed: writes bytecode
    calibrate.speed_sample()                    # untimed: imports mpmath
    import mzv  # noqa: F401  (import cost is setup_s, not op latency)

    setup_pairs, samples = [], []
    ops, results, raw_latencies, interval_of, seconds = run_loop(
        args.workload, args.seed,
        workloads.block_count(args.workload, args.seconds),
        checkpoint=lambda: setup_pairs.append(calibrate.setup_pair(SRC)),
        sample=lambda: samples.append(calibrate.speed_sample()))
    raw_elapsed = sum(seconds)
    elapsed, latencies = calibrate.at_reference_speed(
        seconds, interval_of, raw_latencies, samples)
    setup_raw = statistics.median(raw for raw, _ in setup_pairs)
    setup_s = statistics.median(ref for _, ref in setup_pairs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = judge(ops, results)
    counts, lines = summary(args.workload, ops, outcomes, latencies, elapsed)
    n = len(ops)
    wrong = counts[oracle.WRONG]
    failed_share = (counts[oracle.REFUSED] + counts[oracle.FAILED]) / n
    ms = [1e3 * t for t in latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "ok_share": (counts[oracle.OK] / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for line in lines:
        print(line)
    print("  times at reference speed: the machine ran %.3fx slower than "
          "reference (%d speed samples); raw loop %.3f s"
          % (raw_elapsed / elapsed, len(samples), raw_elapsed))
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("latency"):
            note = "  (n=%d)" % n
        elif name == "setup_s":
            note = ("  (median of %d fresh interpreters spread over the "
                    "run; raw %.4f s)" % (len(setup_pairs), setup_raw))
        print("  %-15s %12.4f %s%s" % (name, value, unit, note))
    print("  %-15s %12.4f ratio  (refused or failed, of attempted)"
          % ("failed_share", failed_share))
    print("  %-15s %12d %s" % ("wrong_outputs", wrong,
                               "(gate: must be 0)" if wrong else ""))
    return result_line(counts, n, {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()})


def traced(args):
    import tracing
    from mzv import diagrams

    calibrate.speed_sample()
    samples = []
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        ops, results, latencies, interval_of, seconds = run_loop(
            args.workload, args.seed,
            workloads.block_count(args.workload, args.seconds),
            tracer=tracer,
            sample=lambda: samples.append(calibrate.speed_sample()))
    finally:
        uninstall()
    # At reference speed, as the untraced run reports its ops_per_s.
    elapsed, _ = calibrate.at_reference_speed(seconds, interval_of, [],
                                              samples)
    layer = tracer.metrics(diagrams.canonical_key.cache_info())
    reference = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if reference.returncode not in (0, 1):
        sys.stderr.write(reference.stderr)
        raise SystemExit("bench: untraced reference run failed")
    base = json.loads(reference.stdout.strip().splitlines()[-1])["metrics"]
    untraced_rate = base["ops_per_s"]["value"]
    layer["trace.ops_per_s_traced"] = len(ops) / elapsed
    layer["trace.ops_per_s_untraced"] = untraced_rate
    layer["trace.overhead"] = untraced_rate * elapsed / len(ops) - 1
    outcomes = judge(ops, results)
    counts, lines = summary(args.workload, ops, outcomes, latencies, elapsed)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("spans-%s-seed%d.tsv" % (args.workload, args.seed))
    tracer.write_spans(spans_path)
    for line in lines:
        print(line)
    print("  %d spans written to %s" % (len(tracer.spans),
                                        spans_path.relative_to(ROOT)))
    print("  tracing overhead %.1f %% (traced %.3f s, untraced %.3f s, "
          "same %d ops)" % (100 * layer["trace.overhead"], elapsed,
                            len(ops) / untraced_rate, len(ops)))
    metrics = {}
    for name, unit in tracing.metric_names():
        value = layer.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print("  %-48s %14.6g %s" % (name, value, unit))
    return result_line(counts, len(ops), metrics)


def run_all(args):
    worst = 0
    for w in workloads.WORKLOADS:
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=4 * CHILD_TIMEOUT).returncode
        worst = max(worst, code)
    return worst


def self_check():
    """Generator determinism and a planted wrong answer per workload."""
    ok = True
    for w in workloads.WORKLOADS:
        here = workloads.digest(w, 1)
        env = dict(os.environ, PYTHONHASHSEED="12345")
        code = ("import sys; sys.path.insert(0, %r); import workloads; "
                "print(workloads.digest(%r, 1))"
                % (str(Path(__file__).resolve().parent), w))
        there = subprocess.run([sys.executable, "-c", code], env=env,
                               check=True, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT).stdout.strip()
        same = here == there and here != workloads.digest(w, 2)
        ok &= same
        print("%-17s op list digest %s... %s" % (
            w, here[:16], "stable across interpreters, differs by seed"
            if same else "NOT DETERMINISTIC"))
    for w in workloads.WORKLOADS:
        ops, results, _, _, _ = run_loop(w, 1, 1)
        outcomes = judge(ops, results)
        clean = sum(o == oracle.WRONG for o, _ in outcomes)
        good = [i for i, (o, _) in enumerate(outcomes) if o == oracle.OK]
        # one planted wrong answer in the whole block must count once ...
        planted = list(results)
        planted[good[0]] = oracle.plant_wrong(ops[good[0]], results[good[0]])
        once = sum(o == oracle.WRONG for o, _ in judge(ops, planted))
        # ... and every op the oracle passed must be caught when wrong
        check = oracle.Oracle().check
        caught = sum(check(ops[i], oracle.plant_wrong(ops[i], results[i]))[0]
                     == oracle.WRONG for i in good)
        # ... and a known-defect op that fails another way is not refused
        slice_ops = [i for i, op in enumerate(ops) if op["defect"]]
        other = sum(check(ops[i], oracle.plant_other_failure(
            ops[i], results[i]))[0] == oracle.FAILED for i in slice_ops)
        passed = (clean == 0 and once == 1 and caught == len(good)
                  and other == len(slice_ops))
        ok &= passed
        print("%-17s wrong_outputs %d clean, %d with one planted wrong "
              "answer; planted answers caught in %d of %d ops; other "
              "failures of known-defect ops counted failed in %d of %d: %s"
              % (w, clean, once, caught, len(good), other, len(slice_ops),
                 "ok" if passed else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="check generator determinism and the oracle")
    args = p.parse_args(argv)
    if not args.self_check and not args.workload:
        p.error("--workload is required")
    if not (SRC / "mzv" / "__init__.py").is_file():
        print("bench: no package at %s; run from the root of a checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload == "all":
        return run_all(args)
    return traced(args) if args.trace else untraced(args)


if __name__ == "__main__":
    sys.exit(main())
