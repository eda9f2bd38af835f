"""Command-line front end running the verification suites.

Exit codes: 0 when every checked item passes, 1 on a quantitative
failure, 2 on usage errors (including q = 0 for the float commands,
which have a dedicated exact counterpart in verify-q0, and sizes over
MAX_POINTS).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time

from . import coefficients, equivalence, representations
from .report import ReportItem, VerificationReport, render

DEFAULT_CAP = 12
DEFAULT_TOL_RELATIONS = 1e-12
DEFAULT_TOL_CROSSCHECK = 1e-13
TAIL_SLACK = 1e-8
# Largest number of basis points (k values for estimates) a command may
# enumerate; verify-q0 --cap 40 needs 23,821.
MAX_POINTS = 50_000
# Least value of the flag that sizes a command: below it there is no
# interior column to check (for estimates, no k).
LEAST_SIZE = {"verify-q0": 1, "verify-relations": 2, "estimates": 1, "irrep": 3}


def _point_str(p) -> str | None:
    return None if p is None else str(p)


def cmd_verify_q0(args) -> VerificationReport:
    rep = equivalence.verify_q0_equivalence(args.cap)
    items = []
    for gen, count in rep.mismatches.items():
        items.append(ReportItem(f"intertwine/{gen}", count, 0, count == 0,
                                _point_str(rep.witness[gen]), f"intertwine/{gen}"))
    for label, rel in rep.relations.items():
        for row in rel.rows:
            items.append(ReportItem(
                f"relations/{label}/{row.name}", row.residual, 0.0,
                row.residual == 0.0, _point_str(row.witness), row.name,
            ))
    return VerificationReport("verify-q0", {"cap": args.cap}, items)


def cmd_verify_relations(args) -> VerificationReport:
    items = []
    for label, build in (("lambda", representations.build_lambda), ("pi", representations.build_pi)):
        rel = representations.check_relations({g: build(args.q, args.cap, g) for g in ("alpha", "beta")})
        for row in rel.rows:
            items.append(ReportItem(
                f"{label}/{row.name}", row.residual, args.tol,
                row.residual < args.tol, _point_str(row.witness), row.name,
            ))
    params = {"q": args.q, "cap": args.cap, "tol": args.tol}
    return VerificationReport("verify-relations", params, items)


def cmd_verify_equivalence(args) -> VerificationReport:
    items = []
    for gen in ("alpha", "beta"):
        res = equivalence.crosscheck_decomposition(args.q, args.cap, gen)
        witness = "no interior" if res.vacuous else _point_str(res.witness)
        items.append(ReportItem(gen, res.deviation, args.tol, res.deviation < args.tol, witness, gen))
    params = {"q": args.q, "cap": args.cap, "tol": args.tol}
    return VerificationReport("verify-equivalence", params, items)


def cmd_estimates(args) -> VerificationReport:
    rep = coefficients.verify_g_estimates(args.q, args.kmax)
    items = []
    for row in rep.rows:
        items.append(ReportItem(f"k={row.k}:|1-g|", row.lhs1, row.bound1,
                                row.pass1, None, row.k))
        items.append(ReportItem(f"k={row.k}:|1-1/g|", row.lhs2, row.bound2,
                                row.pass2, None, row.k))
    params = {"q": args.q, "kmax": args.kmax, "c": rep.c}
    return VerificationReport("estimates", params, items)


def cmd_decay(args) -> VerificationReport:
    rep = equivalence.decay_report(args.q, args.cap, args.target)
    minp = equivalence.shell_min_pattern(args.cap, args.target)
    items = []
    for m, v in rep.shell_max:
        bound = rep.normalized_constant * abs(args.q) ** minp[m]
        items.append(ReportItem(f"shell={m}", v, bound, v <= bound * (1 + 1e-12), None, m))
    items.append(ReportItem("normalized_constant", rep.normalized_constant, None,
                            math.isfinite(rep.normalized_constant), None, "C"))
    items.append(ReportItem("fitted_ratio", rep.fitted_ratio, None,
                            math.isfinite(rep.fitted_ratio), None, "ratio"))
    params = {"q": args.q, "cap": args.cap, "target": args.target, "pattern": rep.pattern}
    return VerificationReport("decay", params, items)


def cmd_tails(args) -> VerificationReport:
    norms = equivalence.tail_norms(args.q, args.cap, args.gen)
    items = []
    prev = None
    for m, v in norms:
        bound = v if prev is None else prev + TAIL_SLACK
        items.append(ReportItem(f"m={m}", v, bound, v <= bound, None, m))
        prev = v
    params = {"q": args.q, "cap": args.cap, "gen": args.gen}
    return VerificationReport("tails", params, items)


def cmd_irrep(args) -> VerificationReport:
    z = complex(args.z_re, args.z_im)
    alpha, beta = representations.build_irrep(args.q, z, args.dim)
    rel = representations.check_relations({"alpha": alpha, "beta": beta})
    items = [
        ReportItem(row.name, row.residual, args.tol, row.residual < args.tol,
                   _point_str(row.witness), row.name)
        for row in rel.rows
    ]
    params = {"q": args.q, "z_re": args.z_re, "z_im": args.z_im, "dim": args.dim, "tol": args.tol}
    return VerificationReport("irrep", params, items)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsu2",
        description="Verification suites for the quantum SU(2) representation equivalence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-q0", help="exact crystal-limit intertwining and relations")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(handler=cmd_verify_q0, needs_q=False)
    _add_common(p)

    p = sub.add_parser("verify-relations", help="defining relation residuals for lambda_q and pi_q")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_RELATIONS)
    p.set_defaults(handler=cmd_verify_relations, needs_q=True)
    _add_common(p)

    p = sub.add_parser("verify-equivalence", help="closed form vs conjugation difference")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_CROSSCHECK)
    p.set_defaults(handler=cmd_verify_equivalence, needs_q=True)
    _add_common(p)

    p = sub.add_parser("estimates", help="analytic bounds on g(k)")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--kmax", type=int, default=500)
    p.set_defaults(handler=cmd_estimates, needs_q=True)
    _add_common(p)

    p = sub.add_parser("decay", help="per-shell decay of a difference target")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--target", choices=equivalence.DECAY_TARGETS, required=True)
    p.set_defaults(handler=cmd_decay, needs_q=True)
    _add_common(p)

    p = sub.add_parser("tails", help="tail norms of a difference in the (s,t) factor")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--gen", choices=("alpha", "beta"), required=True)
    p.set_defaults(handler=cmd_tails, needs_q=True)
    _add_common(p)

    p = sub.add_parser("irrep", help="relation residuals of a unit-circle irreducible")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--z-re", type=float, default=1.0, dest="z_re")
    p.add_argument("--z-im", type=float, default=0.0, dest="z_im")
    p.add_argument("--dim", type=int, default=30)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_RELATIONS)
    p.set_defaults(handler=cmd_irrep, needs_q=True)
    _add_common(p)

    return parser


def _size(args) -> tuple[str, int]:
    """The flag that sizes a command and the points it makes it enumerate."""
    if args.command == "estimates":
        return "kmax", args.kmax
    if args.command == "irrep":
        return "dim", args.dim
    # Shell m of the Gamma and full lattices holds (m + 1)^2 points.
    return "cap", (args.cap + 1) * (args.cap + 2) * (2 * args.cap + 3) // 6


def _usage_error(message: str) -> int:
    print(f"qsu2: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.needs_q:
        if args.q == 0.0:
            return _usage_error("q=0 is exact; use verify-q0")
        if not abs(args.q) < 1.0:
            return _usage_error("q must satisfy |q| < 1")
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0.0):
        return _usage_error("tol must be positive and finite")
    for flag in ("z_re", "z_im"):
        if not math.isfinite(getattr(args, flag, 0.0)):
            return _usage_error(f"--{flag.replace('_', '-')} must be finite")
    if (args.command == "irrep"
            and abs(abs(complex(args.z_re, args.z_im)) - 1.0) > representations.UNIT_CIRCLE_TOL):
        return _usage_error("--z-re and --z-im must put z on the unit circle")
    flag, size = _size(args)
    least = LEAST_SIZE.get(args.command, 0)
    if getattr(args, flag) < least:
        return _usage_error(f"no interior: {args.command} needs --{flag} >= {least}")
    if size > MAX_POINTS:
        return _usage_error(f"--{flag} {getattr(args, flag)} enumerates {size} points, "
                            f"over the budget of {MAX_POINTS}")

    # an unwritable --out is refused before any work is done
    try:
        out = (contextlib.nullcontext(sys.stdout) if args.out is None
               else open(args.out, "w", encoding="utf-8", newline="\n"))
    except OSError as exc:
        return _usage_error(f"cannot write --out {args.out}: {exc.strerror or exc}")
    with out as fh:
        started = time.perf_counter()
        try:
            report = args.handler(args)
        except ValueError as exc:
            return _usage_error(str(exc))
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        fh.write(render(report, args.format))
    print(f"qsu2 {report.command}: {'pass' if report.passed else 'FAIL'} "
          f"({elapsed_ms:.1f} ms)", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
