"""Machine-speed references, so that times are comparable across runs.

The benchmark runs on shared machines whose speed drifts by up to 2x over
tens of minutes, far more than any timing bound of ``BENCHMARK.json``.  A
run therefore also times two fixed jobs that use none of the package's
code, interleaved with its own work, and reports its times at reference
speed: a measured time is multiplied by (the job's reference time / its
time in this run).  The reference times are constants, so a change to the
package moves the reported times exactly as it moves the raw ones, while a
machine that runs everything 1.5x slower does not.

- ``IMPORT_REF_BODY``: a fresh interpreter that imports what ``mzv``
  imports (numpy, mpmath and the standard modules), timed the way the
  set-up probe times ``import mzv`` plus ``build_parser()``.  Each set-up
  probe is paired with one such reference run right before it.
- ``speed_sample()``: about 10 ms of the kinds of work the ops do (Fraction
  elimination, an mpmath sum, dict accumulation of tuple keys, a longdouble
  numpy sum), run in the benchmark's process every SAMPLE_EVERY_S of loop
  time, so that it follows the machine's speed through the run.
"""

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

CHILD_TIMEOUT = 150

# Reference times in seconds: round figures near the medians of the two jobs
# on a 2-core x86 virtual machine (2.1 GHz, Python 3.11.7, numpy 2.4, mpmath
# 1.3) in a fast stretch.  Only that they never change matters: changing one
# rescales every reported time, so results before and after do not compare.
IMPORT_REF_S = 0.100
CPU_JOB_REF_S = 0.007
NEIGHBOURS = 2

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
%s
print(repr(time.perf_counter() - t0))
"""

SETUP_BODY = "import mzv\nfrom mzv import cli\ncli.build_parser()"
IMPORT_REF_BODY = ("import argparse, collections, dataclasses, fractions, "
                   "functools, itertools, json, math, os\n"
                   "import numpy, mpmath")


def probe(body, src):
    """Seconds ``body`` takes in a fresh interpreter with ``src`` on the
    path."""
    out = subprocess.run([sys.executable, "-c", _PROBE % body, str(src)],
                         check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT).stdout
    return float(out.strip().splitlines()[-1])


def setup_pair(src):
    """(raw set-up seconds, the same at reference speed) from one set-up
    probe and the import reference run right before it."""
    ref = probe(IMPORT_REF_BODY, src)
    raw = probe(SETUP_BODY, src)
    return raw, raw * IMPORT_REF_S / ref


def _fraction_rank(n=10):
    rows = [[Fraction((3 * i + 5 * j * j + 1) % 17 - 8, 1 + (i + 2 * j) % 5)
             for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _mpmath_sum():
    import mpmath
    with mpmath.workdps(40):
        return mpmath.fsum(mpmath.mpf(1) / mpmath.mpf(k) ** 3
                           for k in range(1, 400))


def _dict_accumulate():
    acc = {}
    for i in range(6000):
        key = ((i * 7) % 13, (i * 11) % 17, i % 5)
        acc[key] = acc.get(key, 0) + (i % 3) - 1
    return {k: v for k, v in acc.items() if v}


def _longdouble_sum():
    total = np.longdouble(0)
    for start in range(1, 60001, 20000):     # small arrays: no RSS peak
        k = np.arange(start, start + 20000, dtype=np.longdouble)
        total += np.sum(1 / (k * k))
    return float(total)


def speed_sample():
    """Seconds the fixed CPU job takes in this process.  The garbage
    collector is off meanwhile, so the size of the benchmark's heap (the
    package's caches) does not change the job's time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _fraction_rank()
        _mpmath_sum()
        _dict_accumulate()
        _longdouble_sum()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(seconds, interval_of, latencies, samples):
    """Loop seconds and latencies at reference speed.  ``seconds[j]`` is
    the measured time of interval j of the loop, ``interval_of`` gives each
    latency's interval, and ``samples[j]`` and ``samples[j + 1]`` are the
    CPU job times taken right before and right after interval j.  An
    interval's speed factor is the median of those two and NEIGHBOURS more
    on each side, over CPU_JOB_REF_S, so that drift within a run is divided
    out too."""
    def factor(j):
        near = samples[max(j - NEIGHBOURS, 0):j + 2 + NEIGHBOURS]
        return statistics.median(near) / CPU_JOB_REF_S

    factors = [factor(j) for j in range(len(seconds))]
    elapsed = sum(t / f for t, f in zip(seconds, factors))
    return elapsed, [t / factors[j] for t, j in zip(latencies, interval_of)]
