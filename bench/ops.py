"""Execution of one benchmark op against the package under test.

CLI ops go through ``mzv.cli.main(argv)`` in-process, with stdin, stdout
and stderr swapped for in-memory buffers; ops with no CLI command call the
public library function.  Functions are looked up on their module at call
time, so the wrappers of the traced run take effect.
"""

import contextlib
import io
import json
import sys
import traceback
from fractions import Fraction


def run_cli(argv, stdin=None):
    """(exit code, stdout, stderr) of one in-process ``mzv`` invocation."""
    from mzv import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:          # argparse usage errors
                code = exc.code
            except Exception:
                code = None
                traceback.print_exc(file=err)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def perturb(identity_json, choice):
    """The same identity with one rhs coefficient increased by 1."""
    obj = json.loads(identity_json)
    term = obj["rhs"][choice % len(obj["rhs"])]
    num, _, den = term["coefficient"].partition("/")
    q = Fraction(int(num), int(den or 1)) + 1
    term["coefficient"] = "%d/%d" % (q.numerator, q.denominator)
    return json.dumps(obj, sort_keys=True)


def _library_call(op):
    from mzv import identities, linalg, numerics

    kind = op["kind"]
    if kind == "propagator":
        return numerics.eval_propagator(op["k"], Fraction(op["p"], op["q"]),
                                        op["N"])
    if kind == "basis":
        return linalg.reduce_to_basis(op["l"])
    if kind == "cross-check":
        return identities.partial_integration_cross_check(tuple(op["parts"]))
    raise ValueError("unknown op kind %r" % kind)


def execute(op):
    """Run one op; returns its result record for the oracle."""
    kind = op["kind"]
    if kind == "cli":
        code, out, err = run_cli(op["argv"])
        return {"code": code, "out": out, "err": err}
    if kind == "derive-verify":
        code, out, err = run_cli(["derive"] + op["derive"] + ["--json"])
        if code != 0:
            return {"stage": "derive", "code": code, "out": out, "err": err}
        if op["perturb"] is not None:
            out = perturb(out, op["perturb"])
        code, out, err = run_cli(["verify", "-", "--eps", op["eps"], "--json"],
                                 stdin=out)
        return {"stage": "verify", "code": code, "out": out, "err": err}
    try:
        return {"code": 0, "value": _library_call(op)}
    except Exception:
        return {"code": None, "err": traceback.format_exc()}
