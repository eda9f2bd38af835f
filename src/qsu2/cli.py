"""Command-line front end running the verification suites.

Exit codes: 0 when every checked item passes, 1 on a quantitative
failure, 2 on usage errors (including q = 0 for the float commands,
which have a dedicated exact counterpart in verify-q0, and sizes over
MAX_POINTS).  Every command is declared once in COMMANDS, which the
parser, the usage checks and the report params all read.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from typing import Callable, NamedTuple

from . import coefficients, equivalence, representations
from .report import ReportItem, VerificationReport, render

DEFAULT_CAP = 12
DEFAULT_TOL_RELATIONS = 1e-12
DEFAULT_TOL_CROSSCHECK = 1e-13
TAIL_SLACK = 1e-8
# Largest number of basis points (k values for estimates) a command may
# enumerate; verify-q0 --cap 40 needs 23,821.
MAX_POINTS = 50_000


def _point_str(p) -> str | None:
    return None if p is None else str(p)


def _report(args, items: list[ReportItem], **extra) -> VerificationReport:
    """The report of a command; its params are its flags in declaration order, then ``extra``."""
    keys = [flag[2:].replace("-", "_") for flag, _ in COMMANDS[args.command].flags]
    return VerificationReport(args.command, {k: getattr(args, k) for k in keys} | extra, items)


def _relation_items(rel, prefix: str, bound, exact: bool = False) -> list[ReportItem]:
    """One item per relation row, passing on residual == bound when exact
    and on residual < bound otherwise; CSV indexes it by its full name."""
    return [ReportItem(prefix + row.name, row.residual, bound,
                       row.residual == bound if exact else row.residual < bound,
                       _point_str(row.witness))
            for row in rel.rows]


def cmd_verify_q0(args) -> VerificationReport:
    rep = equivalence.verify_q0_equivalence(args.cap)
    items = [ReportItem(f"intertwine/{gen}", count, 0, count == 0, _point_str(rep.witness[gen]))
             for gen, count in rep.mismatches.items()]
    for label, rel in rep.relations.items():
        items += _relation_items(rel, f"relations/{label}/", 0.0, exact=True)
    return _report(args, items)


def cmd_verify_relations(args) -> VerificationReport:
    items = []
    for label, build in (("lambda", representations.build_lambda), ("pi", representations.build_pi)):
        rel = representations.check_relations(
            {g: build(args.q, args.cap, g) for g in representations.GENERATORS})
        items += _relation_items(rel, f"{label}/", args.tol)
    return _report(args, items)


def cmd_verify_equivalence(args) -> VerificationReport:
    items = []
    for gen in representations.GENERATORS:
        deviation, witness = equivalence.crosscheck_decomposition(args.q, args.cap, gen)
        items.append(ReportItem(gen, deviation, args.tol, deviation < args.tol, _point_str(witness), gen))
    return _report(args, items)


def cmd_estimates(args) -> VerificationReport:
    rep = coefficients.verify_g_estimates(args.q, args.kmax)
    items = [item for row in rep.rows for item in (
        ReportItem(f"k={row.k}:|1-g|", row.lhs1, row.bound1, row.pass1, None, row.k),
        ReportItem(f"k={row.k}:|1-1/g|", row.lhs2, row.bound2, row.pass2, None, row.k))]
    return _report(args, items, c=rep.c)


def cmd_decay(args) -> VerificationReport:
    rep = equivalence.decay_report(args.q, args.cap, args.target)
    items = []
    for (m, v), exponent in zip(rep.shell_max, rep.shell_exponent):
        bound = rep.normalized_constant * abs(args.q) ** exponent
        items.append(ReportItem(f"shell={m}", v, bound, v <= bound * (1 + 1e-12), None, m))
    items.append(ReportItem("normalized_constant", rep.normalized_constant, None,
                            math.isfinite(rep.normalized_constant), None, "C"))
    items.append(ReportItem("fitted_ratio", rep.fitted_ratio, None,
                            math.isfinite(rep.fitted_ratio), None, "ratio"))
    return _report(args, items, pattern=rep.pattern)


def cmd_tails(args) -> VerificationReport:
    items, prev = [], None
    for m, v in equivalence.tail_norms(args.q, args.cap, args.gen):
        bound = v if prev is None else prev + TAIL_SLACK
        items.append(ReportItem(f"m={m}", v, bound, v <= bound, None, m))
        prev = v
    return _report(args, items)


def cmd_irrep(args) -> VerificationReport:
    z = complex(args.z_re, args.z_im)
    alpha, beta = representations.build_irrep(args.q, z, args.dim)
    rel = representations.check_relations({"alpha": alpha, "beta": beta})
    return _report(args, _relation_items(rel, "", args.tol))


class Command(NamedTuple):
    """A subcommand: its handler and help, its flags with their argparse
    keywords in declaration order (--out and --format are added to every
    command), and the flag that sizes it with its least value, below which
    there is no interior column to check (for estimates, no k)."""

    handler: Callable
    help: str
    flags: tuple[tuple[str, dict], ...]
    size: str = "cap"
    least: int = 0


_Q = ("--q", dict(type=float, required=True))
_CAP = ("--cap", dict(type=int, default=DEFAULT_CAP))

COMMANDS = {
    "verify-q0": Command(cmd_verify_q0, "exact crystal-limit intertwining and relations",
                         (_CAP,), least=1),
    "verify-relations": Command(
        cmd_verify_relations, "defining relation residuals for lambda_q and pi_q",
        (_Q, _CAP, ("--tol", dict(type=float, default=DEFAULT_TOL_RELATIONS))), least=2),
    "verify-equivalence": Command(
        cmd_verify_equivalence, "closed form vs conjugation difference",
        (_Q, _CAP, ("--tol", dict(type=float, default=DEFAULT_TOL_CROSSCHECK))), least=1),
    "estimates": Command(cmd_estimates, "analytic bounds on g(k)",
                         (_Q, ("--kmax", dict(type=int, default=500))), "kmax", 1),
    "decay": Command(cmd_decay, "per-shell decay of a difference target",
                     (_Q, _CAP, ("--target", dict(choices=equivalence.DECAY_TARGETS, required=True)))),
    "tails": Command(cmd_tails, "tail norms of a difference in the (s,t) factor",
                     (_Q, _CAP, ("--gen", dict(choices=representations.GENERATORS, required=True)))),
    "irrep": Command(
        cmd_irrep, "relation residuals of a unit-circle irreducible",
        (_Q, ("--z-re", dict(type=float, default=1.0)), ("--z-im", dict(type=float, default=0.0)),
         ("--dim", dict(type=int, default=30)), ("--tol", dict(type=float, default=DEFAULT_TOL_RELATIONS))),
        "dim", 3),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsu2",
        description="Verification suites for the quantum SU(2) representation equivalence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, keywords in command.flags:
            p.add_argument(flag, **keywords)
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _size(args) -> tuple[str, int]:
    """The flag that sizes a command and the points it makes it enumerate."""
    flag = COMMANDS[args.command].size
    n = getattr(args, flag)
    # Shell m of the Gamma and full lattices holds (m + 1)^2 points.
    return flag, (n + 1) * (n + 2) * (2 * n + 3) // 6 if flag == "cap" else n


def _usage_error(message: str) -> int:
    print(f"qsu2: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    command = COMMANDS[args.command]
    if hasattr(args, "q"):
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
    if getattr(args, flag) < command.least:
        return _usage_error(f"no interior: {args.command} needs --{flag} >= {command.least}")
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
            # looked up by name, so a handler patched on this module is the one that runs
            report = globals()[command.handler.__name__](args)
        except ValueError as exc:
            return _usage_error(str(exc))
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        fh.write(render(report, args.format))
    print(f"qsu2 {report.command}: {'pass' if report.passed else 'FAIL'} "
          f"({elapsed_ms:.1f} ms)", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
