"""Command-line front end running the verification suites.

Exit codes: 0 when every checked item passes, 1 on a quantitative
failure, 2 only on a usage error refused before any work is done
(including q = 0 for the float commands, which have a dedicated exact
counterpart in verify-q0, sizes over MAX_POINTS and an unwritable
--out), so an existing --out survives it.  A fault during the work is
not a usage error: it raises with its traceback, and --out is left
empty.  Every command is declared once in COMMANDS, which the parser,
the usage checks and the report params all read.

``main`` first pins glibc's malloc thresholds (``_pin_heap``), so freed
numpy temporaries are reused from the heap instead of being handed back
to the kernel and faulted in again.  Only ``main``, the program's entry
point, touches the allocator; importing the package does not.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import math
import sys
import time
from typing import Callable, NamedTuple

from . import coefficients, equivalence, representations
from .lattice import points_below
from .report import ReportItem, VerificationReport, render

DEFAULT_CAP = 12
DEFAULT_TOL_RELATIONS = 1e-12
DEFAULT_TOL_CROSSCHECK = 1e-13
TAIL_SLACK = 1e-8
# Largest number of basis points (k values for estimates) a command may
# enumerate; verify-q0 --cap 40 needs 23,821.
MAX_POINTS = 50_000
# glibc's mallopt parameters (malloc.h) and the ceiling of its dynamic mmap
# threshold on 64-bit hosts (DEFAULT_MMAP_THRESHOLD_MAX).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


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
    """The g estimates, reported rather than certified: the verdicts
    1/(1 + g) < 1 and g(1)/(g(1 + g)) < 1 hold for any g table with
    0 < g(1) <= g(k) <= 1, so every item passes by construction."""
    rep = coefficients.verify_g_estimates(args.q, args.kmax)
    items = [item for k, lhs1, bound1, lhs2, bound2, pass1, pass2 in zip(*(a.tolist() for a in rep[1:]))
             for item in (ReportItem(f"k={k}:|1-g|", lhs1, bound1, pass1, None, k),
                          ReportItem(f"k={k}:|1-1/g|", lhs2, bound2, pass2, None, k))]
    return _report(args, items, c=rep.c)


def cmd_decay(args) -> VerificationReport:
    """Per-shell maxima of a decay target, reported rather than certified:
    each shell=m bound is the normalized constant fitted on the same columns
    times |q| to the shell's least exponent, so the shell items pass by
    construction and only a NaN or infinite constant or ratio fails."""
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
    for m, v in equivalence.tail_norms(equivalence.difference(args.q, args.cap, args.gen)):
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


def _add_flags(parser: argparse.ArgumentParser, command: Command) -> argparse.ArgumentParser:
    for flag, keywords in command.flags:
        parser.add_argument(flag, **keywords)
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command's sub-parser under the top-level usage."""
    parser = argparse.ArgumentParser(
        prog="qsu2",
        description="Verification suites for the quantum SU(2) representation equivalence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=command.help), command)
    return parser


def _parse(argv) -> argparse.Namespace:
    """``argv`` parsed by the invoked command's parser alone, which builds
    several times faster than the full parser; whatever that parser cannot
    take whole goes to the full parser, so every message and exit code is its."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        parser = _add_flags(argparse.ArgumentParser(prog=f"qsu2 {argv[0]}"), COMMANDS[argv[0]])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _size(args) -> tuple[str, int]:
    """The flag that sizes a command and the points it makes it enumerate."""
    flag = COMMANDS[args.command].size
    n = getattr(args, flag)
    return flag, points_below(n + 1) if flag == "cap" else n


def _usage_error(message: str) -> int:
    print(f"qsu2: error: {message}", file=sys.stderr)
    return 2


def _pin_heap() -> None:
    """Hold glibc's mmap threshold at 32 MiB and its trim threshold at twice
    that: glibc's own dynamic rule (trim at twice an mmap threshold that
    rises with the largest freed mapping) held at its 64-bit ceiling.  From
    the defaults of 128 KiB, arrays over the thresholds (each temporary of
    verify-q0 --cap 40 is 190 KB) are unmapped or trimmed when freed, and
    their pages are zero-filled and faulted in again when taken back.  Both
    are set, because setting either one turns the dynamic rule off.
    mallopt is read from ctypes.pythonapi, the handle on the process's own
    symbols that ctypes opens on import, so no call opens a library.
    Without mallopt (a C library other than glibc) nothing is set."""
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def main(argv=None) -> int:
    _pin_heap()
    args = _parse(argv)
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
        # looked up by name, so a handler patched on this module is the one that runs
        report = globals()[command.handler.__name__](args)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        fh.write(render(report, args.format))
    print(f"qsu2 {report.command}: {'pass' if report.passed else 'FAIL'} "
          f"({elapsed_ms:.1f} ms)", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
