import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import mzv
from mzv import (
    derive,
    normalize,
    one,
    shuffle,
    zeta,
)
from mzv import cli
from mzv.cli import main
from mzv.identities import Identity
from test_cli_corpus import CORPUS, CORPUS_DIR
from test_diagrams import CUT_BY_A_CONSTRAINT

# Root of the source tree the tests imported ``mzv`` from, so that the
# ``python -m mzv`` children check this checkout, not an installed copy.
SOURCE_ROOT = pathlib.Path(mzv.__file__).resolve().parent.parent
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture(autouse=True)
def _default_precision(monkeypatch):
    """The expected outputs assume the built-in default precision."""
    monkeypatch.delenv("MZV_PRECISION_DIGITS", raising=False)


def run(argv, stdin=None):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_eval_pinned_example():
    code, out, err = run(["eval", "2,1", "--eps", "1e-12"])
    assert code == 0
    assert out == "1.202056903159594\n"


def test_eval_digits_flag():
    code, out, _ = run(["eval", "2,1", "--digits", "6"])
    assert code == 0
    assert out == "1.20206\n"


@pytest.mark.parametrize("argv, expected", [
    (["eval", "2,1", "--digits", "6", "--json"],
     '{"bound": "1.000e-24", "composition": [2, 1], "method": "accelerated", '
     '"value": "1.20206"}\n'),
    (["eval", "2", "--digits", "24"], "1.64493406684822643647242\n"),
    # a float from the direct evaluator is rounded too, not printed whole
    (["eval", "--trunc", "1000", "--digits", "3", "--", "2"], "1.64\n"),
    # --eps with --trunc is met when the direct bound (1.0e-6) is inside it
    (["eval", "2", "--trunc", "1000000", "--eps", "1e-3"],
     "1.6449330668487265\n"),
])
def test_digits_up_to_the_bound_are_printed(argv, expected):
    code, out, _ = run(argv)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("argv, message", [
    (["eval", "2", "--digits", "100000"],
     "--digits 100000 exceeds the 24 digits that the bound 1.000e-24 "
     "supports"),
    (["eval", "2", "--digits", "25"], "exceeds the 24 digits"),
    (["eval", "--trunc", "1000000", "--digits", "5", "--", "2,-1"],
     "exceeds the 4 digits that the bound 1.582e-05 supports"),
    (["eval", "--trunc", "1000", "--digits", "4", "--", "2"],
     "exceeds the 3 digits that the bound 1.000e-03 supports"),
    (["eval", "2", "--trunc", "100", "--eps", "1e-12"],
     "mzv: error: requested eps=1e-12 not reached (bound 0.01)\n"),
])
def test_digits_beyond_the_bound_are_refused(argv, message):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_eval_json_report():
    code, out, _ = run(["eval", "2,1", "--eps", "1e-12", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "accelerated"
    assert payload["value"].startswith("1.2020569031595")
    assert float(payload["bound"]) < 1e-11
    assert payload["composition"] == [2, 1]


def test_eval_truncated_direct():
    code, out, _ = run(["eval", "3", "--trunc", "10000", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "direct"
    assert abs(float(payload["value"]) - 1.2020569031595942) < 1e-7


def test_eval_alternating_is_accelerated():
    # zeta(2,-1) = zeta(3) - 3/2 zeta(2) ln 2 = -0.50821521280468485081...
    code, out, _ = run(["eval", "2,-1", "--eps", "1e-12", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "accelerated"
    assert float(payload["bound"]) <= 1e-12
    assert payload["value"].startswith("-0.508215212804684")


def test_eval_divergent_is_an_input_error():
    code, _, err = run(["eval", "1,2"])
    assert code == 2
    assert "diverges" in err


def test_eval_oversized_truncation_is_an_input_error(monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("array allocated for an oversized truncation")

    monkeypatch.setattr(np, "arange", no_arrays)
    code, out, err = run(["eval", "3", "--trunc", "1000000000"])
    assert code == 2
    assert out == ""
    assert "truncation N = 1000000000 exceeds the limit" in err


def test_eval_deep_composition_is_refused():
    code, out, err = run(["eval", "2" + ",1" * 150, "--eps", "1e-12", "--json"])
    assert code == 2
    assert out == ""
    assert "requested eps=1e-12 not reached" in err
    assert "nan" not in err


def test_eval_malformed_composition():
    code, _, err = run(["eval", "2,x"])
    assert code == 2
    assert "mzv: error" in err


def test_rank_lengths():
    assert run(["rank", "--length", "2"])[1] == "1\n"
    assert run(["rank", "--length", "4"])[1] == "18\n"


def test_rank_pattern_json():
    code, out, _ = run(["rank", "--pattern", "a,b,b", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["length"] == 3
    assert payload["rows"] == 6
    assert payload["symbols"] == ["a", "b", "b"]


def test_rank_needs_a_system():
    code, _, err = run(["rank"])
    assert code == 2
    assert "rank needs" in err


def test_rank_length_zero_is_out_of_range():
    code, out, err = run(["rank", "--length", "0"])
    assert code == 2
    assert out == ""
    assert "supported symbol counts are 1..9" in err


def test_rank_length_and_pattern_exclude_each_other():
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["rank", "--length", "3", "--pattern", "a,b"])
    assert exc.value.code == 2
    assert "not allowed with argument --length" in err.getvalue()


@pytest.mark.parametrize("argv, count", [
    (["rank", "--length", "7"], 5040),
    (["rank", "--pattern", "a,b,c,d,e,f,f"], 2520),
])
def test_rank_refuses_oversized_system_before_assembly(monkeypatch, argv, count):
    def no_assembly(symbols):
        raise AssertionError("oversized system assembled")

    monkeypatch.setattr(mzv.linalg, "assemble_permutation_system", no_assembly)
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "permutation system has %d unknowns, above the limit 720" % count in err


@pytest.mark.parametrize("name, argv", [
    ("rank-length-1", ["rank", "--length", "1", "--json"]),
    ("rank-pattern-aa", ["rank", "--pattern", "a,a", "--json"]),
    ("rank-pattern-aabbcc", ["rank", "--pattern", "a,a,b,b,c,c", "--json"]),
    ("rank-length-5", ["rank", "--length", "5", "--json"]),
    ("rank-length-4-text", ["rank", "--length", "4"]),
])
def test_rank_never_assembles_the_system(monkeypatch, name, argv):
    def no_assembly(symbols):
        raise AssertionError("permutation system assembled")

    monkeypatch.setattr(mzv.linalg, "assemble_permutation_system", no_assembly)
    expected = (pathlib.Path(__file__).resolve().parent / "cli_corpus"
                / (name + ".out")).read_text()
    assert run(argv) == (0, expected, "")


def test_rank_refuses_too_many_symbols_at_once():
    # one unknown, but the splits of twelve symbols would take minutes
    t0 = time.monotonic()
    code, out, err = run(["rank", "--pattern", ",".join("a" * 12)])
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "permutation system has 12 symbols, above the limit 9" in err


def test_derive_human_output():
    code, out, _ = run(["derive", "reflection", "2", "3"])
    assert code == 0
    ident = derive("reflection", ["2", "3"])
    assert out == "%s\n" % ident


def test_derive_unknown_family():
    code, _, err = run(["derive", "bogus", "2"])
    assert code == 2


# The argument count is checked before any argument is read as an integer,
# so the integer families below are refused on the count even for "x".
@pytest.mark.parametrize("args, message", [
    (["reflection", "x"], "reflection takes 2 integer arguments"),
    (["permutation", "2"], "permutation takes two compositions"),
    (["three-point", "x", "y"], "three-point takes 3 integer arguments"),
    (["partial-int-2", "2"], "partial-int-2 takes 2 integer arguments"),
    (["partial-int-3", "2", "1"], "partial-int-3 takes 3 integer arguments"),
    (["partial-int", "2,1", "3"], "partial-int takes one composition"),
    (["trailing-one"], "trailing-one takes one composition"),
    (["shuffle", "2"], "shuffle takes two compositions"),
    (["reflection", "2", "x"], "invalid literal for int() with base 10: 'x'"),
    (["bogus", "2"], "unknown family 'bogus' (have: partial-int, "
     "partial-int-2, partial-int-3, permutation, reflection, shuffle, "
     "three-point, trailing-one)"),
] + [
    (args + ["--variant", "leftward"], "%s takes no variant" % args[0])
    for args in (["reflection", "2", "3"], ["permutation", "2", "3"],
                 ["three-point", "2", "3", "4"], ["partial-int-2", "2", "1"],
                 ["trailing-one", "2,1"], ["shuffle", "2", "3"])
] + [
    (["partial-int", "2,-1,3"],
     "rightward partial integration takes unsigned exponents"),
])
def test_derive_refusal_texts(args, message):
    code, out, err = run(["derive"] + args)
    assert (code, out, err) == (2, "", "mzv: error: %s\n" % message)


# argv, and the arguments derive must see in it.  The family's arguments may
# sit before, between or after the flags; a composition with a leading minus
# is taken only after "--".
@pytest.mark.parametrize("argv, args", [
    (["derive", "permutation", "2", "3", "--json"], ("2", "3")),
    (["derive", "--json", "permutation", "2", "3"], ("2", "3")),
    (["derive", "--json", "--", "permutation", "-1,1", "1,-2"],
     ("-1,1", "1,-2")),
    (["derive", "--json", "permutation", "2", "--", "-1"], ("2", "-1")),
    (["derive", "permutation", "--json", "2", "3"], ("2", "3")),
    (["derive", "permutation", "2", "--json", "3"], ("2", "3")),
    (["derive", "permutation", "--json", "--", "-1,1", "1,-2"],
     ("-1,1", "1,-2")),
    (["derive", "partial-int", "--variant", "leftward", "2,-1,3", "--json"],
     ("2,-1,3",)),
])
def test_derive_takes_its_arguments_around_the_flags(argv, args):
    family = "partial-int" if "--variant" in argv else "permutation"
    variant = "leftward" if "--variant" in argv else None
    expected = derive(family, args, variant=variant).to_json()
    assert run(argv) == (0, json.dumps(expected, sort_keys=True) + "\n", "")


@pytest.mark.parametrize("argv, leftover", [
    (["derive", "permutation", "--json", "-x", "3"], "-x 3"),
    (["derive", "permutation", "2", "3", "--bogus"], "--bogus"),
    (["derive", "permutation", "2", "-1,1"], "-1,1"),
    (["eval", "2", "junk"], "junk"),
    (["verify", "-", "--", "x"], "x"),
])
def test_other_leftover_arguments_are_unrecognized(argv, leftover):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert err.getvalue().endswith(
        "mzv: error: unrecognized arguments: %s\n" % leftover)


def test_derive_verify_round_trip(tmp_path):
    code, out, _ = run(["derive", "permutation", "2,1", "3", "--json"])
    assert code == 0
    f = tmp_path / "identity.json"
    f.write_text(out)
    code, out, _ = run(["verify", str(f)])
    assert code == 0
    assert out.startswith("PASS")


def test_verify_stdin():
    _, payload, _ = run(["derive", "reflection", "2", "3", "--json"])
    code, out, _ = run(["verify", "-", "--json"], stdin=payload)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_perturbed_identity_fails(tmp_path):
    ident = derive("reflection", ["2", "3"])
    bad = Identity(family=ident.family, parameters=ident.parameters,
                   lhs=ident.lhs, rhs=normalize(ident.rhs + one("1/1000000")))
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad.to_json()))
    code, out, _ = run(["verify", str(f), "--eps", "1e-9"])
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_regularized_identity_eliminates_first():
    _, payload, _ = run(["derive", "partial-int", "2,1", "--json"])
    assert json.loads(payload)["regularized"] is True
    code, out, _ = run(["verify", "-", "--json"], stdin=payload)
    assert code == 0
    report = json.loads(out)
    assert report["eliminated"] is True
    assert report["pass"] is True


@pytest.mark.parametrize("argv", [
    ["shuffle", "2,-1", "3"],
    ["trailing-one", "2,-1"],
    ["partial-int", "2,-1,3", "--variant", "leftward"],
])
def test_signed_shuffle_families_verify_at_1e_30(argv):
    _, payload, _ = run(["derive", *argv, "--json"])
    code, out, _ = run(["verify", "-", "--eps", "1e-30", "--json"],
                       stdin=payload)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_three_point_with_an_exponent_one():
    _, payload, _ = run(["derive", "three-point", "1", "2", "3", "--json"])
    code, out, _ = run(["verify", "-", "--json"], stdin=payload)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv, message", [
    (["shuffle", "1", "1"], "shuffle regularization"),
    (["partial-int", "1,1,2", "--variant", "leftward"],
     "shuffle regularization"),
    (["partial-int", "1,1", "--variant", "rightward"],
     "shuffle regularization"),
    (["partial-int", "3,1,2", "--variant", "leftward"],
     "divergent terms survive elimination"),
])
def test_verify_refuses_a_shuffle_family_it_cannot_regularize(argv, message):
    _, payload, _ = run(["derive", *argv, "--json"])
    code, out, err = run(["verify", "-", "--json"], stdin=payload)
    assert (code, out) == (2, "")
    assert message in err


def test_verify_missing_or_malformed_file(tmp_path):
    assert run(["verify", str(tmp_path / "nope.json")])[0] == 2
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    assert run(["verify", str(f)])[0] == 2


@pytest.mark.parametrize("via_stdin", [True, False])
def test_verify_names_invalid_json_the_same_way_from_a_file_and_stdin(
        tmp_path, via_stdin):
    f = tmp_path / "x.json"
    f.write_text("x")
    argv, stdin = (["verify", "-"], "x") if via_stdin else (["verify", str(f)], None)
    assert run(argv, stdin=stdin) == (
        2, "", "mzv: error: identity file is not valid JSON: "
        "Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("argv, payload", [
    (["verify"], []),
    (["verify"], {}),
    (["verify"], {"family": "x", "lhs": [{"coefficient": "1"}], "rhs": []}),
    (["reduce", "--file"], []),
    (["reduce", "--file"], {}),
    (["reduce", "--file"], {"vertices": 3}),
])
def test_malformed_json_file_is_an_input_error(tmp_path, argv, payload):
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(argv + [str(f)])
    assert code == 2
    assert out == ""
    what = "identity" if argv[0] == "verify" else "diagram"
    assert "mzv: error: malformed %s file" % what in err


@pytest.mark.parametrize("source, error", [
    # a reduce output piped into verify
    (["reduce", "--seashell", "2,2,2", "--json"],
     "a reduce output holds a diagram and its value, not the lhs and rhs of "
     "an identity"),
    ({"family": "x", "lhs": []}, "missing identity keys: rhs"),
    ({"value": [], "rhs": []}, "missing identity keys: family, lhs"),
])
def test_verify_names_what_its_file_lacks(source, error):
    stdin = (run(source)[1] if isinstance(source, list)
             else json.dumps(source))
    assert run(["verify", "-"], stdin=stdin) == (
        2, "", "mzv: error: malformed identity file: %r\n" % TypeError(error))


def test_reduce_seashell_human():
    code, out, _ = run(["reduce", "--seashell", "2,1"])
    assert code == 0
    assert out == "%s\n" % normalize(zeta(2, 1))
    code, out, _ = run(["reduce", "--seashell", "2,1", "--strategy", "rightward"])
    assert code == 0
    assert out == "%s\n" % normalize(zeta(3))


def test_reduce_trace_lines():
    code, out, _ = run(["reduce", "--seashell", "2,1", "--strategy",
                        "rightward", "--trace"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) > 1
    assert all(line.startswith("# ") for line in lines[:-1])


def test_reduce_trace_on_a_refusal(tmp_path):
    # the steps taken before the refusal go to stderr ahead of the error;
    # the exit code and stdout are those without --trace
    f = tmp_path / "cut.json"
    f.write_text(json.dumps(CUT_BY_A_CONSTRAINT.to_json()))
    for argv, error, steps in [
        (["--file", str(f), "--strategy", "auto"],
         "not a cycle-with-chords diagram",
         ["order expansion over 4 cycle positions",
          "order expansion not applicable; matching known shapes",
          "branch recursion not applicable: not a double-branch diagram"]),
        # auto passes through all three strategies before the refusal
        (["--peacock", "2,0", "0,3", "2"],
         "only the last chord may start nonzero for the rightward sweep",
         ["order expansion over 4 cycle positions",
          "order expansion not applicable; matching known shapes",
          "double-branch structure: trunk [2, 0], branches [2] | [0, 3]",
          "zero branch head pushed onto the trunk",
          "branch recursion not applicable: interior zero labels are not "
          "reducible",
          "fan structure: cycle [2, 0, 0, 3], chords [0, 2, 0]"]),
        (["--peacock", "0", "0,3", "2,1", "--strategy", "shuffle"],
         "interior zero labels are not reducible",
         ["double-branch structure: trunk [0], branches [0, 3] | [2, 1]",
          "zero branch head pushed onto the trunk"]),
    ]:
        error = "mzv: error: %s\n" % error
        assert run(["reduce"] + argv) == (2, "", error)
        for extra in ([], ["--json"]):
            assert run(["reduce"] + argv + ["--trace"] + extra) == (
                2, "", "".join("# %s\n" % line for line in steps) + error)


@pytest.mark.parametrize("edges, out", [
    # vertex 1 is a component without edges
    ([(0, 0, 5)], "1·ζ(5)\n"),
    ([(0, 0, 2), (1, 1, 5)], "1·ζ(2)·ζ(5)\n")])
def test_reduce_file_of_a_disconnected_diagram(tmp_path, edges, out):
    f = tmp_path / "diagram.json"
    f.write_text(json.dumps({
        "vertices": [0, 1], "root": 0,
        "edges": [{"from": a, "to": b, "label": k} for a, b, k in edges]}))
    assert run(["reduce", "--file", str(f)]) == (0, out, "")


def test_reduce_peacock_shuffle():
    code, out, _ = run(["reduce", "--peacock", "0", "2", "2",
                        "--strategy", "shuffle"])
    assert code == 0
    assert out == "%s\n" % shuffle((2,), (2,))


def test_reduce_json_file_round_trip(tmp_path):
    code, out, _ = run(["reduce", "--half-moon", "3,0,2", "--json"])
    assert code == 0
    payload = json.loads(out)
    f = tmp_path / "diagram.json"
    f.write_text(json.dumps(payload["diagram"]))
    code, out2, _ = run(["reduce", "--file", str(f), "--json"])
    assert code == 0
    assert json.loads(out2)["value"] == payload["value"]


def test_reduce_bad_labels():
    assert run(["reduce", "--half-moon", "3,0"])[0] == 2


# A diagram file's text (None: no file at all), or the diagram's flags.
@pytest.mark.parametrize("text, message", [
    (None, "cannot read diagram file: [Errno 2] No such file or directory: "
     "'/does/not/exist.json'"),
    ("x", "diagram file is not valid JSON: "
     "Expecting value: line 1 column 1 (char 0)"),
    ('{"vertices": 3}', "malformed diagram file: KeyError('edges')"),
    (["--half-moon", "1,2"], "--half-moon takes three labels a,b,c, got '1,2'"),
    (["--half-moon", "1,2,3,4"],
     "--half-moon takes three labels a,b,c, got '1,2,3,4'"),
    # a momentum constraint cuts an ordering cell: no structural value, and
    # no other strategy reads the diagram
    (json.dumps({"vertices": [0, 1, 2, 3], "root": 0, "edges": [
        {"from": a, "to": b, "label": k} for a, b, k in (
            (0, 1, 0), (0, 2, 1), (1, 3, 3), (2, 1, 1), (3, 0, 2),
            (3, 2, 0))]}),
     "not a cycle-with-chords diagram"),
])
def test_reduce_file_refusal_texts(tmp_path, text, message):
    if isinstance(text, list):
        argv = text
    else:
        path = "/does/not/exist.json"
        if text is not None:
            path = str(tmp_path / "diagram.json")
            pathlib.Path(path).write_text(text)
        argv = ["--file", path]
    assert run(["reduce"] + argv) == (2, "", "mzv: error: %s\n" % message)


def complete_digraph(n):
    return [(a, b) for a in range(n) for b in range(n) if a != b]


def ladder(n):
    return ([(i, (i + 1) % n) for i in range(n)]
            + [(i, i + 2) for i in range(n - 2)])


@pytest.mark.parametrize("strategy", ["rightward", "auto"])
@pytest.mark.parametrize("n, edges", [(11, complete_digraph(11)),
                                      (40, ladder(40))], ids=["K11", "ladder40"])
def test_reduce_file_refuses_dense_diagrams_fast(tmp_path, strategy, n, edges):
    # the fan reader walks the cycle once instead of enumerating every
    # Hamiltonian cycle: 12 s on the complete digraph on 11 vertices
    f = tmp_path / "dense.json"
    f.write_text(json.dumps({
        "vertices": list(range(n)), "root": 0,
        "edges": [{"from": a, "to": b, "label": 1} for a, b in edges]}))
    t0 = time.monotonic()
    assert run(["reduce", "--file", str(f), "--strategy", strategy]) == (
        2, "", "mzv: error: not a cycle-with-chords diagram\n")
    assert time.monotonic() - t0 < 1.0


def test_reduce_reads_a_diagram_file_from_stdin():
    # "-" reads stdin, as verify's identity file does
    code, out, _ = run(["reduce", "--seashell", "2,1", "--json"])
    diagram = json.dumps(json.loads(out)["diagram"])
    assert code == 0
    assert run(["reduce", "--file", "-", "--json"], stdin=diagram) == (
        0, out, "")


@pytest.mark.parametrize("text, error", [
    ("2.9", "TypeError('expected an integer, got 2.9')"),
    ('"2"', "TypeError(\"expected an integer, got '2'\")"),
    ("true", "TypeError('expected an integer, got True')")])
def test_json_files_take_integers_only(tmp_path, text, error):
    _, payload, _ = run(["derive", "reflection", "2", "3", "--json"])
    f = tmp_path / "identity.json"
    f.write_text(payload.replace("[[2], [3]]", "[[%s], [3]]" % text, 1))
    assert run(["verify", str(f)]) == (
        2, "", "mzv: error: malformed identity file: %s\n" % error)
    # a vertex, the root, a label and an endpoint in turn
    template = ('{"vertices": [0, %s], "root": %s, "edges": ['
                '{"from": 0, "to": 1, "label": %s}, '
                '{"from": %s, "to": 0, "label": 0}, '
                '{"from": 1, "to": 0, "label": 2}]}')
    for i in range(4):
        fields = ["1", "0", "3", "1"]
        fields[i] = text
        f.write_text(template % tuple(fields))
        assert run(["reduce", "--file", str(f)]) == (
            2, "", "mzv: error: malformed diagram file: %s\n" % error), i


@pytest.mark.parametrize("coefficient, code", [
    ("1/0", 2), ("", 2), ("1.5", 2), ("x/2", 2), ("/2", 2), (1, 2), (None, 2),
    # forms that parse: the identity holds at 1 and fails at 2
    ("-4/-4", 0), ("1", 0), ("+2/2", 0), ("2/", 1), ("-2/-1", 1)])
def test_identity_files_refuse_malformed_coefficients(
        tmp_path, coefficient, code):
    _, payload, _ = run(["derive", "reflection", "2", "3", "--json"])
    f = tmp_path / "identity.json"
    f.write_text(payload.replace('"1/1"', json.dumps(coefficient), 1))
    error = TypeError("expected a coefficient p or p/q in integers, q "
                      "nonzero, got %r" % coefficient)
    assert run(["verify", "--json", str(f)])[::2] == (code, (
        "mzv: error: malformed identity file: %r\n" % error
        if code == 2 else ""))


def test_sweep_stuffle_small():
    code, out, _ = run(["sweep", "stuffle", "--max-weight", "6"])
    assert code == 0
    assert out.startswith("17/17 passed")


def test_sweep_partial_int_json():
    code, out, _ = run(["sweep", "partial-int", "--max-weight", "6", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 26
    assert payload["failures"] == []


@pytest.mark.parametrize("family, max_weight", [
    ("stuffle", "-1"), ("shuffle", "3"), ("partial-int", "0")])
def test_empty_sweep_is_refused(family, max_weight):
    code, out, err = run(["sweep", family, "--max-weight", max_weight])
    assert code == 2
    assert out == ""
    assert "--max-weight %s leaves no %s identity" % (max_weight, family) in err


@pytest.mark.parametrize("family, max_weight", [
    ("stuffle", "14"), ("shuffle", "30"), ("partial-int", "1000")])
def test_oversized_sweep_is_refused_before_enumerating(family, max_weight):
    t0 = time.monotonic()
    code, out, err = run(["sweep", family, "--max-weight", max_weight])
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "mzv: error: --max-weight %s is above the limit 13\n" % max_weight)


def test_sweep_at_the_weight_limit_is_not_refused(monkeypatch):
    # with nothing to enumerate, weight 13 gets as far as the empty sweep
    monkeypatch.setattr(cli, "iter_admissible", lambda *args, **kw: iter(()))
    code, _, err = run(["sweep", "partial-int", "--max-weight", "13"])
    assert code == 2
    assert "--max-weight 13 leaves no partial-int identity" in err


def _twos(depth):
    return ",".join(["2"] * depth)


@pytest.mark.parametrize("argv, message", [
    (["derive", "permutation", _twos(8), _twos(8)],
     "the quasi-shuffle of 8 parts with 8 parts has 265729 terms, above the "
     "limit 65536"),
    (["derive", "permutation", _twos(9), _twos(9)],
     "the quasi-shuffle of 9 parts with 9 parts has 1462563 terms, above the "
     "limit 65536"),
    (["derive", "shuffle", _twos(8), _twos(8)],
     "the branch recursion makes more than 16384 terms in one state"),
    (["derive", "shuffle", _twos(10), _twos(10)],
     "the branch recursion makes more than 16384 terms in one state"),
])
def test_deep_products_are_refused_fast(argv, message):
    t0 = time.monotonic()
    code, out, err = run(argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err == "mzv: error: %s\n" % message


@pytest.mark.parametrize("family", ["permutation", "shuffle"])
def test_deep_products_below_the_limits_derive(family):
    # 2^7 by 2^7: 48,639 quasi-shuffle terms, 8192 shuffle terms
    code, out, _ = run(["derive", family, _twos(7), _twos(7)])
    assert code == 0
    assert out


def _deep_command(family, parts):
    """A command whose branch recursion gets ``parts`` parts."""
    def ones(n):
        return ",".join(["2"] + ["1"] * (n - 1))
    return {
        "shuffle": ["derive", "shuffle", "2", ones(parts - 1)],
        "leftward": ["derive", "partial-int", ones(parts),
                     "--variant", "leftward"],
        "trailing-one": ["derive", "trailing-one", ones(parts - 1)],
        "peacock": ["reduce", "--peacock", "0", ones(parts // 2),
                    ones(parts - parts // 2)],
    }[family]


DEEP_FAMILIES = ["shuffle", "leftward", "trailing-one", "peacock"]


@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_deep_branch_recursion_is_refused(family):
    t0 = time.monotonic()
    code, out, err = run(_deep_command(family, 300))
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "at most 256 parts, got 300" in err


@pytest.mark.parametrize("family", DEEP_FAMILIES)
def test_branch_recursion_below_the_limit_derives(family):
    code, out, _ = run(_deep_command(family, 255))
    assert code == 0
    assert out


# 2,1^11,12 expands into 3,409,588 raw rightward terms
OVERSIZED_RIGHTWARD = ",".join(["2"] + ["1"] * 11 + ["12"])


@pytest.mark.parametrize("argv", [
    ["derive", "partial-int", OVERSIZED_RIGHTWARD],
    ["reduce", "--seashell", OVERSIZED_RIGHTWARD, "--strategy", "rightward"],
    ["derive", "partial-int-3", "2", "1", "3000"],     # 4,507,501 raw terms
])
def test_oversized_rightward_expansion_is_refused(argv):
    t0 = time.monotonic()
    code, out, err = run(argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "mzv: error: the rightward expansion makes more than 32768 raw terms\n")


def test_rightward_expansion_below_the_limit_derives():
    # 30,745 raw terms, the most of any input the tests, corpus or bench use
    code, out, _ = run(["derive", "partial-int", "2,1,1,1,1,1,1,1,1,8"])
    assert code == 0
    assert out


def test_sweep_rejects_unknown_family():
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "2", "--eps", "0"],
    ["eval", "2", "--eps", "-1"],
    ["eval", "2", "--eps", "nan"],
    ["eval", "2", "--eps", "inf"],
    ["verify", "-", "--eps", "0"],
    ["sweep", "stuffle", "--max-weight", "4", "--eps", "0"],
])
def test_eps_must_be_positive_and_finite(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --eps: must be a positive finite number" in err.getvalue()


# below 1e-307 the accelerated bound and an atom's share of eps underflowed
# to 0.0, and the commands failed with float errors instead of a refusal
@pytest.mark.parametrize("argv", [
    ["eval", "2", "--eps", "1e-315"],
    ["eval", "2", "--eps", "1e-308"],
    ["verify", "-", "--eps", "1e-323"],
    ["sweep", "stuffle", "--max-weight", "4", "--eps", "5e-324"],
])
def test_eps_below_the_least_normal_power_of_ten_is_refused(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert ("argument --eps: must be at least 1e-307, got %r" % argv[-1]
            in err.getvalue())


def test_eps_at_the_least_normal_power_of_ten_is_met():
    identity = json.dumps(derive("permutation", ["2,1", "3"]).to_json())
    assert run(["eval", "2", "--eps", "1e-307"])[0] == 0
    assert run(["verify", "-", "--eps", "1e-307"], stdin=identity)[0] == 0


@pytest.mark.parametrize("argv, message", [
    (["eval", "2", "--trunc", "0"], "truncation N = 0 is below 2"),
    (["eval", "2", "--trunc", "-5"], "truncation N = -5 is below 2"),
    (["eval", "2", "--digits", "0"], "--digits must be positive"),
    (["eval", "2", "--digits", "-3"], "--digits must be positive"),
])
def test_nonpositive_trunc_and_digits_are_refused(argv, message):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.fixture
def fresh_parser():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_main_builds_its_parser_once(monkeypatch, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "mzv":
            built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["rank", "--length", "2"], ["derive", "reflection", "2", "3"],
                 ["eval", "2,1"], ["rank", "--pattern", "a,b"]):
        assert run(argv)[0] == 0
    assert len(built) == 1


def test_usage_error_leaves_the_parser_intact(fresh_parser):
    expected = run(["rank", "--length", "4", "--json"])
    cli.build_parser.cache_clear()
    with contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as exc:
        main(["rank", "--length", "3", "--pattern", "a,b"])
    assert exc.value.code == 2
    assert run(["rank", "--length", "4", "--json"]) == expected


def test_precision_environment_is_read_per_call(monkeypatch):
    monkeypatch.setenv("MZV_PRECISION_DIGITS", "6")
    assert run(["eval", "2,1"])[1] == "1.202056903\n"
    monkeypatch.setenv("MZV_PRECISION_DIGITS", "10")
    assert run(["eval", "2,1"])[1] == "1.2020569031596\n"


def test_derive_arguments_do_not_carry_over():
    parser = cli.build_parser()
    first = parser.parse_args(["derive", "permutation", "2", "3"])
    second = parser.parse_args(["derive", "trailing-one"])
    assert first.args == ["2", "3"]
    assert second.args == [] and second.args is not first.args
    assert run(["derive", "permutation", "2", "3"])[0] == 0
    code, out, _ = run(["derive", "trailing-one", "2,1"])
    assert code == 0
    assert out == "%s\n" % derive("trailing-one", ["2,1"])


def run_python(*args, **env):
    """Run ``python ARGS`` in a fresh child process on this checkout's
    source; ``env`` entries are added to a clean environment."""
    child_env = dict(os.environ)
    child_env.pop("MZV_PRECISION_DIGITS", None)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE_ROOT), child_env.get("PYTHONPATH")]))
    child_env.update(env)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, env=child_env, timeout=120)


def run_console(*args, **env):
    """Run ``python -m mzv ARGS``, the console script's entry point."""
    return run_python("-m", "mzv", *args, **env)


def test_console_script_wiring():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["mzv"]
    assert target == "mzv.cli:main"
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_every_source_file_parses_at_the_python_floor():
    # the floor that pyproject declares, read without tomllib (3.11+)
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      PYPROJECT.read_text(encoding="utf-8"))
    version = tuple(map(int, floor.groups()))
    assert version == (3, 10)
    files = sorted(path for top in ("src", "tests", "bench")
                   for path in (PYPROJECT.parent / top).rglob("*.py"))
    assert len(files) >= 25
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=version)


# The package's layers, lowest first.  A module imports only from layers
# below its own, so algebra and linalg never reach diagrams.
LAYERS = (("compositions",), ("algebra",), ("diagrams", "linalg", "numerics"),
          ("identities",), ("cli",), ("__init__", "__main__"))


def package_imports(path):
    """The mzv modules that a source file imports, at any depth in it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "mzv" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            yield from ([node.module] if node.module
                        else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "mzv", path


def test_package_imports_follow_the_layers():
    rank = {m: i for i, layer in enumerate(LAYERS) for m in layer}
    files = sorted((SOURCE_ROOT / "mzv").glob("*.py"))
    assert [p.stem for p in files] == sorted(rank)
    for path in files:
        for module in package_imports(path):
            assert rank[module] < rank[path.stem], (path.stem, module)


def test_console_script_pinned_example():
    r = run_console("eval", "2,1", "--eps", "1e-12")
    assert r.returncode == 0
    assert r.stdout == b"1.202056903159594\n"


def test_console_script_json_is_byte_deterministic():
    # Different hash seeds, so set and dict ordering cannot leak into the
    # output unnoticed.
    args = ("derive", "permutation", "2,1", "2", "--json")
    a = run_console(*args, PYTHONHASHSEED="1")
    b = run_console(*args, PYTHONHASHSEED="2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_symbolic_json_is_independent_of_hash_seed():
    # one child per hash seed runs derive and reduce over the symbolic
    # layer: stuffle, both regularization paths, the branch recursion, the
    # rightward sweep, order expansion and the three-point rewrite
    commands = [
        ["derive", "permutation", "--json", "--", "2,1,1", "-3,1"],
        ["derive", "shuffle", "2,-1", "2,1", "--json"],
        ["derive", "partial-int", "1,2,1,1,3", "--json"],
        ["derive", "partial-int", "3,1,1,2", "--variant", "leftward",
         "--json"],
        ["derive", "partial-int-3", "3", "1", "2", "--json"],
        ["derive", "three-point", "2", "1", "3", "--json"],
        ["derive", "trailing-one", "2,1,-2", "--json"],
        ["reduce", "--seashell", "2,1,1,3", "--strategy", "rightward",
         "--trace", "--json"],
        ["reduce", "--seashell", "3,2,1,2", "--trace", "--json"],
        ["reduce", "--peacock", "2,0", "2,1", "1,3", "--trace", "--json"],
        ["reduce", "--half-moon", "2,0,3", "--trace", "--json"],
    ]
    code = "import sys\nfrom mzv.cli import main\n" + "".join(
        "assert main(%r) == 0\n" % argv for argv in commands)
    outputs = []
    for seed in ("1", "2"):
        r = run_python("-c", code, PYTHONHASHSEED=seed)
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0].count(b"\n") == len(commands)
    assert outputs[0] == outputs[1]


def test_numpy_free_commands_leave_numpy_unloaded():
    # only the direct evaluator imports numpy
    commands = [
        ["derive", "permutation", "2,1", "2", "--json"],
        ["reduce", "--seashell", "3,1,2", "--json"],
        ["verify", "--json", "--eps", "1e-12",
         str(CORPUS_DIR / "derive-partial-int-312-rightward.out")],
        ["eval", "2,1", "--eps", "1e-12"],
        ["sweep", "stuffle", "--max-weight", "5"],
        ["rank", "--length", "4"],
        ["rank", "--pattern", "a,b,b"],
    ]
    code = ("import sys\nimport mzv\nfrom mzv import cli\n"
            "cli.build_parser()\n"
            + "".join("assert cli.main(%r) == 0\n" % argv for argv in commands)
            + "assert 'numpy' not in sys.modules\n")
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr


def assert_first_command_matches_pin(name):
    """Run corpus command ``name`` first in a fresh ``python -m mzv``."""
    r = run_console(*CORPUS[name])
    assert r.returncode == 0, r.stderr
    assert r.stdout == (CORPUS_DIR / (name + ".out")).read_bytes()


@pytest.mark.parametrize("name", ["rank-length-4", "eval-m3m11-trunc-100000"])
def test_numpy_kernel_as_first_command(name):
    # the direct evaluator, which imports numpy, and the rank elimination,
    # each run first in a fresh interpreter
    assert_first_command_matches_pin(name)


def test_mpmath_free_commands_leave_mpmath_unloaded():
    # only the numeric kernels of numerics and cmd_eval import mpmath
    commands = [
        ["derive", "permutation", "2,1", "2", "--json"],
        ["reduce", "--seashell", "3,1,2", "--json"],
        ["rank", "--length", "3"],
        ["sweep", "partial-int", "--max-weight", "6"],
    ]
    code = ("import sys\nimport mzv\nfrom mzv import cli\n"
            "cli.build_parser()\n"
            "assert not {'mpmath', 'numpy'} & sys.modules.keys()\n"
            + "".join("assert cli.main(%r) == 0\n" % argv for argv in commands)
            + "assert 'mpmath' not in sys.modules\n")
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("name", [
    "eval-2m1-eps-1e-12", "eval-233-trunc-1000000",
    "verify-partial-int-312-rightward"])
def test_mpmath_kernel_as_first_command(name):
    # each command that imports mpmath, run first in a fresh interpreter
    assert_first_command_matches_pin(name)


def test_precision_environment_variable(monkeypatch):
    r = run_console("eval", "2,1", MZV_PRECISION_DIGITS="6")
    assert r.returncode == 0
    assert r.stdout == b"1.202056903\n"
    r = run_console("eval", "2,1", MZV_PRECISION_DIGITS="abc")
    assert r.returncode == 2
    # 10.0 ** -400 is 0.0 and 1e-308 is subnormal: both refused by name
    identity = json.dumps(derive("reflection", ["2", "3"]).to_json())
    commands = ((["eval", "2"], None), (["verify", "-"], identity))
    for digits in ("400", "308"):
        monkeypatch.setenv("MZV_PRECISION_DIGITS", digits)
        for argv, stdin in commands:
            assert run(argv, stdin=stdin) == (2, "", (
                "mzv: error: MZV_PRECISION_DIGITS must be 1..307, got %r\n"
                % digits))
    monkeypatch.setenv("MZV_PRECISION_DIGITS", "307")
    for argv, stdin in commands:
        assert run(argv, stdin=stdin)[0] == 0
