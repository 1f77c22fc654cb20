"""Command line surface.

Exit codes: 0 when all requested checks pass, 2 when a check ran and
failed, 1 for usage or I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import entanglement, invariants, oa as oa_mod, states, witness as witness_mod
from .errors import Error


class CliError(Exception):
    """Usage-level failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_angle(text):
    """Radians from a decimal literal or a pi expression.

    Accepted forms: ``1.25``, ``pi``, ``-pi``, ``2*pi``, ``pi/3``,
    ``3*pi/4``.  The pi literal expands to full double precision.  A zero
    divisor and a value that is not finite (``inf``, ``nan``) are refused.
    """
    t = str(text).strip().lower().replace(" ", "")
    if not t:
        raise CliError("empty angle")
    sign = 1.0
    if t[0] in "+-":
        if t[0] == "-":
            sign = -1.0
        t = t[1:]
    try:
        if "pi" in t:
            pre, _, post = t.partition("pi")
            coef = 1.0
            if pre:
                coef = float(pre[:-1] if pre.endswith("*") else pre)
            div = 1.0
            if post:
                if not post.startswith("/"):
                    raise ValueError(post)
                div = float(post[1:])
            value = sign * coef * math.pi / div
        else:
            value = sign * float(t)
    except (ValueError, ZeroDivisionError):
        raise CliError("cannot parse angle %r" % (text,))
    if not math.isfinite(value):
        raise CliError("angle %r is not finite" % (text,))
    return value


def _parse_grid(text):
    if not text:
        return witness_mod.DEFAULT_THETA_GRID
    values = [parse_angle(part) for part in str(text).split(",") if part.strip()]
    if not values:
        raise CliError("empty theta grid")
    return tuple(values)


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_state(path, allow_unnormalized=False):
    try:
        data = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise CliError("bad state JSON in %s: %s" % (path, exc))
    return states.state_from_dict(data, allow_unnormalized=allow_unnormalized)


def _positive_tol(value):
    if not 0 < value < math.inf:
        raise CliError("tolerance must be finite and > 0")
    return value


def cmd_oa_validate(args):
    array = oa_mod.parse_oa(_read(args.file), local_dim=args.d)
    result = {
        "r": array.r,
        "num_parties": array.num_parties,
        "local_dim": array.local_dim,
    }
    ok = True
    if args.strength is not None:
        rep = oa_mod.check_strength(array, args.strength)
        ok = ok and rep.holds
        result["strength"] = {
            "k": rep.k,
            "holds": rep.holds,
            "index_lambda": rep.index_lambda,
        }
    if args.irredundant is not None:
        holds = oa_mod.is_irredundant(array, args.irredundant)
        ok = ok and holds
        result["irredundant"] = {"k": args.irredundant, "holds": holds}
    if args.json:
        _emit(json.dumps(result, indent=2) + "\n", None)
    else:
        print(
            "OA(r=%d, N=%d, d=%d)"
            % (array.r, array.num_parties, array.local_dim)
        )
        if "strength" in result:
            rep = result["strength"]
            if rep["holds"]:
                print("strength %d: holds, lambda=%d" % (rep["k"], rep["index_lambda"]))
            else:
                print("strength %d: fails" % rep["k"])
        if "irredundant" in result:
            rep = result["irredundant"]
            print("irredundant k=%d: %s" % (rep["k"], "yes" if rep["holds"] else "no"))
    return 0 if ok else 2


def _parse_phase_flag(spec):
    key_part, sep, angle_part = spec.partition("=")
    if not sep:
        raise CliError("bad --phase %r, expected 'j,k,...=theta'" % spec)
    try:
        key = tuple(int(v) for v in key_part.split(","))
    except ValueError:
        raise CliError("bad --phase key %r" % key_part)
    return key, parse_angle(angle_part)


def cmd_state_build(args):
    if (args.from_oa is None) == (args.catalog is None):
        raise CliError("pick exactly one source: --from-oa or --catalog")
    if args.from_oa:
        array = oa_mod.parse_oa(_read(args.from_oa), local_dim=args.d)
        phases = {}
        for spec in args.phase or []:
            key, angle = _parse_phase_flag(spec)
            phases[key] = angle
        state = states.from_iroa(array, phases)
    else:
        theta = parse_angle(args.theta) if args.theta is not None else 0.0
        state = states.catalog_state(args.catalog, d=args.d, theta=theta)
    _emit(json.dumps(states.state_to_dict(state), indent=2) + "\n", args.out)
    return 0


def cmd_ent_check(args):
    if (args.k is None) == (not args.ame):
        raise CliError("pick exactly one check: --k K or --ame")
    tol = _positive_tol(args.tol)
    state = _load_state(args.file, allow_unnormalized=args.allow_unnormalized)
    if args.ame:
        report = entanglement.is_ame(state, tol=tol)
    else:
        report = entanglement.is_k_uniform(state, args.k, tol=tol)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            "k=%d uniform: %s (max deviation %.3e, worst subset %s)"
            % (
                report.k,
                "pass" if report.passed else "fail",
                report.max_deviation,
                list(report.worst_subset),
            )
        )
    return 0 if report.passed else 2


def cmd_inv_compute(args):
    state = _load_state(args.state, allow_unnormalized=args.allow_unnormalized)
    perms = invariants.parse_perms(_read(args.perms))
    if args.engine == "dense":
        result = invariants.invariant_dense(state, perms)
    else:
        # a state file is always a SparseState, which auto sends to sparse
        result = invariants.invariant_sparse(state, perms)
    if args.json:
        print(
            json.dumps(
                {
                    "re": result.value.real,
                    "im": result.value.imag,
                    "engine": result.engine,
                    "term_count": result.term_count,
                }
            )
        )
    else:
        print("value: %.17g%+.17gj" % (result.value.real, result.value.imag))
        print("engine: %s" % result.engine)
        print(
            "term_count: %s"
            % ("-" if result.term_count is None else result.term_count)
        )
    return 0


def _find_witness(args):
    array = oa_mod.parse_oa(_read(args.file), local_dim=args.d)
    found = witness_mod.find_witness(array, kernel_index=args.kernel_index)
    if found is None:
        print("no witness: the symbol-count kernel is trivial", file=sys.stderr)
    return array, found


def cmd_witness_find(args):
    array, found = _find_witness(args)
    if found is None:
        _emit(json.dumps({"witness": None}, indent=2) + "\n", args.out)
        return 2
    grid = _parse_grid(args.theta_grid)
    report = witness_mod.verify_witness(array, found, theta_grid=grid)
    _emit(
        json.dumps(witness_mod.witness_to_dict(found, report), indent=2) + "\n",
        args.out,
    )
    return 0


def cmd_witness_scan(args):
    array, found = _find_witness(args)
    if found is None:
        return 2
    grid = _parse_grid(args.theta_grid)
    lines = ["theta,re,im"]
    for theta, value in zip(grid, witness_mod.theta_values(array, found, grid)):
        lines.append("%.17g,%.17g,%.17g" % (theta, value.real, value.imag))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser():
    parser = _Parser(prog="luinv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_oa = sub.add_parser("oa", help="orthogonal array checks")
    oa_sub = p_oa.add_subparsers(dest="subcommand", required=True)
    p_val = oa_sub.add_parser("validate", help="strength and irredundancy")
    p_val.add_argument("file")
    p_val.add_argument("--strength", type=int, default=None, metavar="K")
    p_val.add_argument("--irredundant", type=int, default=None, metavar="K")
    p_val.add_argument("--d", type=int, default=None)
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_oa_validate)

    p_state = sub.add_parser("state", help="state construction")
    state_sub = p_state.add_subparsers(dest="subcommand", required=True)
    p_build = state_sub.add_parser("build", help="write a state JSON file")
    p_build.add_argument("--from-oa", dest="from_oa", default=None, metavar="FILE")
    p_build.add_argument(
        "--phase",
        action="append",
        default=None,
        metavar="SPEC",
        help="row phase 'j,k,...=theta', repeatable",
    )
    p_build.add_argument("--catalog", default=None, metavar="NAME")
    p_build.add_argument("--d", type=int, default=None)
    p_build.add_argument("--theta", default=None, metavar="ANGLE")
    p_build.add_argument("--out", default=None, metavar="FILE")
    p_build.set_defaults(func=cmd_state_build)

    p_ent = sub.add_parser("ent", help="uniformity checks")
    ent_sub = p_ent.add_subparsers(dest="subcommand", required=True)
    p_check = ent_sub.add_parser("check", help="k-uniformity / AME report")
    p_check.add_argument("file")
    p_check.add_argument("--k", type=int, default=None)
    p_check.add_argument("--ame", action="store_true")
    p_check.add_argument("--tol", type=float, default=entanglement.UNIFORMITY_TOL)
    p_check.add_argument("--allow-unnormalized", action="store_true")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_ent_check)

    p_inv = sub.add_parser("inv", help="invariant evaluation")
    inv_sub = p_inv.add_subparsers(dest="subcommand", required=True)
    p_comp = inv_sub.add_parser("compute", help="evaluate one invariant")
    p_comp.add_argument("state")
    p_comp.add_argument("perms")
    p_comp.add_argument(
        "--engine", choices=("auto", "dense", "sparse"), default="auto"
    )
    p_comp.add_argument("--allow-unnormalized", action="store_true")
    p_comp.add_argument("--json", action="store_true")
    p_comp.set_defaults(func=cmd_inv_compute)

    p_wit = sub.add_parser("witness", help="witness synthesis")
    wit_sub = p_wit.add_subparsers(dest="subcommand", required=True)
    wit_common = _Parser(add_help=False)
    wit_common.add_argument("file")
    wit_common.add_argument("--d", type=int, default=None)
    wit_common.add_argument("--kernel-index", type=int, default=0)
    wit_common.add_argument("--theta-grid", default=None, metavar="A,B,C")
    wit_common.add_argument("--out", default=None, metavar="FILE")
    wit_sub.add_parser(
        "find", parents=[wit_common], help="synthesize and certify a witness"
    ).set_defaults(func=cmd_witness_find)
    wit_sub.add_parser(
        "scan", parents=[wit_common], help="CSV theta scan of the invariant"
    ).set_defaults(func=cmd_witness_scan)

    return parser


@functools.cache
def _parser():
    """The parser, built on the first call and reused by every later
    ``main`` in the process; parse_args returns a fresh namespace, so no
    option carries over between calls."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (CliError, Error, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
