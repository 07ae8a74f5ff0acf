"""Command-line front end.

Subcommands: eval (numeric value of one nested sum), derive (emit an
identity), verify (check an identity file numerically), rank (permutation
identity systems), reduce (diagram to combination), sweep (batch verify a
family up to a weight bound).

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import diagrams, identities, linalg, numerics
from .compositions import iter_admissible, parse_composition


def _default_digits():
    raw = os.environ.get("MZV_PRECISION_DIGITS")
    if raw is None:
        return 12
    try:
        digits = int(raw)
    except ValueError:
        raise ValueError("MZV_PRECISION_DIGITS must be an integer, got %r" % raw)
    if not 1 <= digits <= 307:  # 1e-307 is the least normal power of ten
        raise ValueError("MZV_PRECISION_DIGITS must be 1..307, got %r" % raw)
    return digits


def _positive_float(text):
    """argparse type for accuracy targets: a finite number >= 1e-307."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            "must be a positive finite number, got %r" % text)
    if value < 1e-307:  # below it an atom's share of eps underflows to 0.0
        raise argparse.ArgumentTypeError(
            "must be at least 1e-307, got %r" % text)
    return value


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True))


def _parse_int_list(text, what):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError("malformed %s: %r (expected comma-separated integers)"
                         % (what, text))


def _read_json_file(path, what, parse):
    """``parse`` of the JSON in the ``what`` file at ``path`` ("-" reads
    stdin); a file that cannot be read or parsed is a ValueError."""
    try:
        if path == "-":
            payload = json.load(sys.stdin)
        else:
            with open(path) as fh:
                payload = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s file: %s" % (what, exc))
    except json.JSONDecodeError as exc:
        raise ValueError("%s file is not valid JSON: %s" % (what, exc))
    try:
        return parse(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError("malformed %s file: %r" % (what, exc))


def cmd_eval(args):
    from mpmath import mp
    c = parse_composition(args.composition)
    if args.digits is not None and args.digits < 1:
        raise ValueError("--digits must be positive, got %d" % args.digits)
    digits = args.digits if args.digits is not None else _default_digits() + 4
    if args.trunc is not None:
        pv = numerics.eval_mzv_direct(c, args.trunc)
        method = "direct"
        if args.eps is not None and not pv.bound <= args.eps:
            raise ArithmeticError("requested eps=%g not reached (bound %g)"
                                  % (args.eps, pv.bound))
    else:
        if not c.admissible:
            raise ValueError("%s diverges; no numeric value" % c.zeta_str())
        eps = (args.eps if args.eps is not None
               else 10.0 ** (-_default_digits()))
        pv = numerics.eval_mzv_accel(c, eps)
        method = "accelerated"
    supported = int(max(0, mp.log10(abs(pv.value)) - mp.log10(pv.bound)))
    if args.digits is not None and args.digits > supported:
        raise ValueError("--digits %d exceeds the %d digits that the bound "
                         "%.3e supports" % (args.digits, supported, pv.bound))
    value = pv.value if args.digits is None else mp.mpmathify(pv.value)
    if args.json:
        _print_json({
            "bound": "%.3e" % pv.bound,
            "composition": c.to_json(),
            "method": method,
            "value": mp.nstr(value, digits),
        })
    else:
        print(mp.nstr(value, digits))
    return 0


def cmd_derive(args):
    identity = identities.derive(args.family, args.args, variant=args.variant)
    if args.json:
        _print_json(identity.to_json())
    else:
        print(identity)
    return 0


def cmd_verify(args):
    identity = _read_json_file(args.file, "identity",
                               identities.identity_from_json)
    eps = args.eps if args.eps is not None else 10.0 ** (-_default_digits())
    report = numerics.verify_identity(identity, eps=eps)
    if args.json:
        _print_json(report)
    else:
        status = "PASS" if report["pass"] else "FAIL"
        print("%s  residual %s  (bound %s, eps %.1e)"
              % (status, report["residual"], report["bound"], eps))
    return 0 if report["pass"] else 1


def cmd_rank(args):
    if args.pattern is not None:
        symbols = tuple(t.strip() for t in args.pattern.split(","))
        if not all(symbols):
            raise ValueError("malformed pattern %r" % args.pattern)
    elif args.length is not None:
        symbols = linalg.generic_symbols(args.length)
    else:
        raise ValueError("rank needs --length or --pattern")
    rank = linalg.permutation_rank(symbols)
    if args.json:
        rows, columns = linalg.permutation_system_size(symbols)
        _print_json({
            "columns": columns,
            "length": len(symbols),
            "rank": rank,
            "rows": rows,
            "symbols": list(symbols),
        })
    else:
        print(rank)
    return 0


def _diagram_from_args(args):
    if args.seashell:
        return diagrams.build_seashell(parse_composition(args.seashell))
    if args.half_moon:
        labels = _parse_int_list(args.half_moon, "half-moon labels")
        if len(labels) != 3:
            raise ValueError("--half-moon takes three labels a,b,c, got %r"
                             % args.half_moon)
        return diagrams.build_half_moon(*labels)
    if args.peacock:
        trunk, b1, b2 = (_parse_int_list(t, "peacock labels")
                         for t in args.peacock)
        return diagrams.build_peacock(trunk, b1, b2)
    return _read_json_file(args.file, "diagram", diagrams.diagram_from_json)


def cmd_reduce(args):
    d = _diagram_from_args(args)
    steps = []
    try:
        comb = diagrams.reduce(d, strategy=args.strategy, steps=steps)
    except ValueError:              # the steps before the refusal
        for line in steps if args.trace else ():
            print("# %s" % line, file=sys.stderr)
        raise
    if args.json:
        value = comb.to_json()
        out = {
            "diagram": d.to_json(),
            "strategy": args.strategy,
            "terms": len(value),
            "value": value,
        }
        if args.trace:
            out["trace"] = steps
        _print_json(out)
    else:
        for line in steps if args.trace else ():
            print("# %s" % line)
        print(comb)
    return 0


# Each weight step costs a sweep 2.5-2.8x: at 13, sweep stuffle and shuffle
# take about 10 s on a Xeon core, and iter_admissible doubles in time and
# memory with every step, before any identity is checked.
MAX_SWEEP_WEIGHT = 13


def _sweep_pairs(max_weight):
    comps = list(iter_admissible(max_weight - 2))
    for left in comps:
        for right in comps:
            if left.weight + right.weight <= max_weight:
                yield left, right


def cmd_sweep(args):
    if args.max_weight > MAX_SWEEP_WEIGHT:
        raise ValueError("--max-weight %d is above the limit %d"
                         % (args.max_weight, MAX_SWEEP_WEIGHT))
    eps = args.eps if args.eps is not None else 1e-9
    failures = []
    worst = 0.0
    count = 0
    if args.family in ("stuffle", "shuffle"):
        emit = (identities.permutation_identity if args.family == "stuffle"
                else identities.shuffle_identity)
        for left, right in _sweep_pairs(args.max_weight):
            identity = emit(left, right)
            count += 1
            label = "%s * %s" % (left.zeta_str(), right.zeta_str())
            report = numerics.verify_identity(identity, eps=eps)
            worst = max(worst, float(report["residual"]))
            if not report["pass"]:
                failures.append({"item": label, "reason": "residual",
                                 "report": report})
    elif args.family == "partial-int":
        for c in iter_admissible(args.max_weight, min_depth=2):
            count += 1
            residual = identities.partial_integration_cross_check(c.parts)
            if not residual.is_zero():
                failures.append({"item": c.zeta_str(),
                                 "reason": "nonzero symbolic residual",
                                 "terms": len(residual.terms)})
    else:
        raise ValueError("sweep families: stuffle, shuffle, partial-int")
    if not count:
        # an empty sweep checked nothing, so it must not report a pass
        raise ValueError("--max-weight %d leaves no %s identity to check"
                         % (args.max_weight, args.family))
    summary = {
        "count": count,
        "failures": failures,
        "family": args.family,
        "max_weight": args.max_weight,
    }
    if args.family != "partial-int":
        summary["worst_residual"] = "%.3e" % worst
    if args.json:
        _print_json(summary)
    else:
        if failures:
            for f in failures:
                print("FAIL  %s (%s)" % (f["item"], f["reason"]))
        tail = ("" if args.family == "partial-int"
                else ", worst residual %.3e" % worst)
        print("%d/%d passed%s" % (count - len(failures), count, tail))
    return 1 if failures else 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The ``mzv`` argument parser, built once per process.

    It holds nothing that can change between calls: the precision default
    is read from the environment when a command runs, and argparse looks
    up ``sys.stdout``/``sys.stderr`` when it prints, so redirection works.
    """
    parser = argparse.ArgumentParser(
        prog="mzv",
        description="Nested harmonic sums: evaluation, identities, diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="numeric value of one nested sum")
    p.add_argument("composition", help='exponent list, e.g. "2,1" or "2,-1"')
    p.add_argument("--eps", type=_positive_float, help="accuracy target")
    p.add_argument("--trunc", type=int, metavar="N",
                   help="truncated direct sum over indices up to N")
    p.add_argument("--digits", type=int, help="printed digits")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("derive", help="emit one identity")
    p.add_argument("family", help="one of: %s" % ", ".join(sorted(identities.FAMILIES)))
    p.add_argument("args", nargs="*", help="family parameters")
    p.add_argument("--variant",
                   choices=["rightward", "leftward", "alternative"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("verify", help="check an identity file numerically")
    p.add_argument("file", help='identity JSON (from derive --json), or "-"')
    p.add_argument("--eps", type=_positive_float, help="accuracy target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rank", help="rank of a permutation identity system")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--length", type=int, help="number of generic exponents")
    g.add_argument("--pattern", help='degenerate exponents, e.g. "a,b,b"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("reduce", help="reduce a diagram to nested sums")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--seashell", metavar="COMP",
                   help='cycle labels from the root, e.g. "2,1"')
    g.add_argument("--half-moon", metavar="A,B,C", dest="half_moon",
                   help="two-vertex diagram with labels a; b, c")
    g.add_argument("--peacock", nargs=3, metavar=("TRUNK", "B1", "B2"),
                   help='three label lists, e.g. 0 2 2')
    g.add_argument("--file", help='diagram JSON file, or "-"')
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "structural", "rightward", "shuffle"])
    p.add_argument("--trace", action="store_true",
                   help="print the rewrite steps taken")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("sweep", help="batch-verify a family up to a weight")
    p.add_argument("family", choices=["stuffle", "shuffle", "partial-int"])
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--eps", type=_positive_float,
                   help="accuracy target per identity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # derive's arguments may follow a flag, and after "--" may start with "-"
    cut = extra.index("--") if "--" in extra else len(extra)
    if args.command == "derive" and not any(t[:1] == "-" for t in extra[:cut]):
        args.args += extra[:cut] + extra[cut + 1:]
    elif extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print("mzv: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
