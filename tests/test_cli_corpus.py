"""Byte-for-byte pins of the CLI's stdout on a small fixed command corpus.

Each command runs in-process through ``mzv.cli.main``; its stdout must equal
the file ``tests/cli_corpus/<name>.out`` exactly.  The files were written by
``python tests/test_cli_corpus.py --write`` and are meant to stay unchanged:
a refactor that keeps behaviour keeps these bytes.  ``--write`` only creates
files that are missing, so re-running it never re-pins changed output; write
a new entry's file before the source change it is meant to guard.
"""

import contextlib
import importlib.util
import io
import pathlib
import sys

import pytest

from mzv import cli, diagrams
from mzv.cli import main

CORPUS_DIR = pathlib.Path(__file__).resolve().parent / "cli_corpus"

CORPUS = {
    "rank-length-1": ["rank", "--length", "1", "--json"],
    "rank-length-2": ["rank", "--length", "2", "--json"],
    "rank-length-3": ["rank", "--length", "3", "--json"],
    "rank-length-4": ["rank", "--length", "4", "--json"],
    "rank-length-5": ["rank", "--length", "5", "--json"],
    "rank-pattern-aa": ["rank", "--pattern", "a,a", "--json"],
    "rank-pattern-abb": ["rank", "--pattern", "a,b,b", "--json"],
    "rank-pattern-aabc": ["rank", "--pattern", "a,a,b,c", "--json"],
    "rank-pattern-abbcc": ["rank", "--pattern", "a,b,b,c,c", "--json"],
    "rank-pattern-aabbcd": ["rank", "--pattern", "a,a,b,b,c,d", "--json"],
    "rank-pattern-aabbcc": ["rank", "--pattern", "a,a,b,b,c,c", "--json"],
    "rank-pattern-abcdee": ["rank", "--pattern", "a,b,c,d,e,e", "--json"],
    "rank-length-6": ["rank", "--length", "6", "--json"],
    # past six symbols: a degenerate system of 210 unknowns, and nine equal
    # symbols, one unknown
    "rank-pattern-aabbbcc": ["rank", "--pattern", "a,a,b,b,b,c,c", "--json"],
    "rank-pattern-aaaaaaaaa": [
        "rank", "--pattern", "a,a,a,a,a,a,a,a,a", "--json"],
    "rank-length-4-text": ["rank", "--length", "4"],
    **{
        "reduce-seashell-%s-%s" % (comp.replace(",", ""), strategy): [
            "reduce", "--seashell", comp, "--strategy", strategy,
            "--trace", "--json"]
        for comp in ("3,1,2", "2,2,1")
        for strategy in ("auto", "structural", "rightward")
    },
    "reduce-peacock-022-shuffle": [
        "reduce", "--peacock", "0", "2", "2", "--strategy", "shuffle",
        "--json"],
    "derive-three-point-234": ["derive", "three-point", "2", "3", "4", "--json"],
    "derive-reflection-23": ["derive", "reflection", "2", "3", "--json"],
    "derive-partial-int-2-21": ["derive", "partial-int-2", "2", "1", "--json"],
    "derive-partial-int-2-43": ["derive", "partial-int-2", "4", "3", "--json"],
    "derive-partial-int-312-rightward": [
        "derive", "partial-int", "3,1,2", "--variant", "rightward", "--json"],
    "derive-partial-int-221-leftward": [
        "derive", "partial-int", "2,2,1", "--variant", "leftward", "--json"],
    # the generic rightward expansion past depth 3, leading 1 included
    **{
        "derive-partial-int-%s-rightward" % comp.replace(",", ""): [
            "derive", "partial-int", comp, "--json"]
        for comp in ("1,2,1,3", "2,1,1,2,3")
    },
    **{
        "derive-partial-int-3-212-%s" % variant: [
            "derive", "partial-int-3", "2", "1", "2", "--variant", variant,
            "--json"]
        for variant in ("rightward", "alternative")
    },
    **{
        "derive-partial-int-%s-leftward" % comp.replace(",", ""): [
            "derive", "partial-int", comp, "--variant", "leftward", "--json"]
        for comp in ("3,1,2", "1,2,2")
    },
    "derive-partial-int-3-413-alternative": [
        "derive", "partial-int-3", "4", "1", "3", "--variant", "alternative",
        "--json"],
    "derive-trailing-one-31": ["derive", "trailing-one", "3,1", "--json"],
    "derive-trailing-one-213": ["derive", "trailing-one", "2,1,3", "--json"],
    "reduce-seashell-2112-rightward": [
        "reduce", "--seashell", "2,1,1,2", "--strategy", "rightward",
        "--trace", "--json"],
    **{
        "sweep-partial-int-%d" % w: [
            "sweep", "partial-int", "--max-weight", str(w), "--json"]
        for w in (7, 9)
    },
    "eval-312-eps-1e-12": ["eval", "3,1,2", "--eps", "1e-12", "--json"],
    "eval-51112-eps-1e-15": ["eval", "5,1,1,1,2", "--eps", "1e-15", "--json"],
    "eval-22-eps-1e-30": ["eval", "2,2", "--eps", "1e-30", "--json"],
    "eval-233-trunc-1000000": [
        "eval", "--json", "--trunc", "1000000", "--", "2,3,3"],
    "eval-m3m11-trunc-100000": [
        "eval", "--json", "--trunc", "100000", "--", "-3,-1,1"],
    **{
        "sweep-%s-8" % family: [
            "sweep", family, "--max-weight", "8", "--json"]
        for family in ("stuffle", "shuffle")
    },
    "reduce-half-moon-212-auto": [
        "reduce", "--half-moon", "2,1,2", "--trace", "--json"],
    "reduce-seashell-21111111-auto": [
        "reduce", "--seashell", "2,1,1,1,1,1,1,1", "--trace", "--json"],
    "reduce-peacock-20-21-3-auto": [
        "reduce", "--peacock", "2,0", "2,1", "3", "--trace", "--json"],
    # a zero branch head pushed onto the trunk, and a fan with no chords
    "reduce-peacock-2-03-21-auto": [
        "reduce", "--peacock", "2", "0,3", "2,1", "--trace", "--json"],
    "reduce-seashell-3-rightward": [
        "reduce", "--seashell", "3", "--strategy", "rightward", "--trace",
        "--json"],
    "derive-shuffle-21-3": ["derive", "shuffle", "2,1", "3", "--json"],
    "derive-permutation-2m1-3": [
        "derive", "permutation", "2,-1", "3", "--json"],
    "derive-three-point-234-text": ["derive", "three-point", "2", "3", "4"],
    "derive-trailing-one-221-text": ["derive", "trailing-one", "2,2,1"],
    **{
        "verify-" + name: [
            "verify", "--json", "--eps", "1e-12",
            str(CORPUS_DIR / ("derive-%s.out" % name))]
        for name in ("partial-int-312-rightward", "partial-int-122-leftward",
                     "partial-int-221-leftward")
    },
    # the accelerated evaluator near its dps-30 floor, and above dps 45
    **{
        "verify-%s-eps-%s" % (name, eps): [
            "verify", "--json", "--eps", eps,
            str(CORPUS_DIR / ("derive-%s.out" % name))]
        for name in ("three-point-234", "shuffle-21-3", "trailing-one-213",
                     "partial-int-3-413-alternative")
        for eps in ("1e-9", "1e-15")
    },
    "verify-three-point-234-eps-1e-30": [
        "verify", "--json", "--eps", "1e-30",
        str(CORPUS_DIR / "derive-three-point-234.out")],
    # signed compositions on the accelerated path
    "eval-2m1-eps-1e-12": ["eval", "2,-1", "--eps", "1e-12", "--json"],
    "eval-m11-eps-1e-30": ["eval", "--eps", "1e-30", "--json", "--", "-1,1"],
    **{
        "verify-permutation-2m1-3-eps-%s" % eps: [
            "verify", "--json", "--eps", eps,
            str(CORPUS_DIR / "derive-permutation-2m1-3.out")]
        for eps in ("1e-12", "1e-30")
    },
    # signed compositions through the branch recursion
    "derive-shuffle-2m1-3": ["derive", "shuffle", "2,-1", "3", "--json"],
    "verify-shuffle-2m1-3-eps-1e-30": [
        "verify", "--json", "--eps", "1e-30",
        str(CORPUS_DIR / "derive-shuffle-2m1-3.out")],
    "derive-trailing-one-2m1": ["derive", "trailing-one", "2,-1", "--json"],
    "derive-partial-int-2m13-leftward": [
        "derive", "partial-int", "2,-1,3", "--variant", "leftward", "--json"],
    # hand-edited identity files: terms out of order, repeated, or with
    # coefficient 0; a divergent factor as written is reported eliminated
    # even when its terms cancel or have coefficient 0
    **{
        "verify-edited-%s" % name: [
            "verify", "--json", "--eps", "1e-12",
            str(CORPUS_DIR / ("edited-%s.json" % name))]
        for name in ("unsorted", "duplicate", "zero", "zero-divergent",
                     "cancelling-divergent")
    },
}


def run_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_stdout_pinned(name):
    expected = (CORPUS_DIR / (name + ".out")).read_bytes()
    assert run_stdout(CORPUS[name]) == expected


def test_corpus_files_are_the_corpus():
    # --write never removes a file, so a renamed entry would leave its old
    # pin behind, unread
    assert sorted(p.stem for p in CORPUS_DIR.glob("*.out")) == sorted(CORPUS)


def test_bench_tracer_finds_every_traced_name():
    # the traced benchmark run wraps package functions by name and reads
    # canonical_key's cache; a renamed or deleted one breaks only that run
    path = CORPUS_DIR.parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert callable(diagrams.canonical_key.cache_info)
        # the shuffle is traced under its diagrams name and called under its
        # algebra one: both names must hold the one wrapper
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["derive", "shuffle", "2", "3"]) == 0
        assert tracer.stats["diagrams.shuffle_expansion"]["calls"] == 1
    finally:
        uninstall()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_corpus.py --write")
    CORPUS_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CORPUS.items()):
        path = CORPUS_DIR / (name + ".out")
        if not path.exists():
            path.write_bytes(run_stdout(argv))
            print("wrote %s" % path.name)
