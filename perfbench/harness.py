"""One benchmark run of one workload, in this process.

A pass runs every invocation of the workload once, each as a fresh
``qsu2`` process would: the cached lattice bases are cleared, earlier
garbage is collected and the surviving objects of the benchmark itself are
frozen out of the collector's view, so that collections inside the timed
region traverse only the invocation's own objects.  The report of each
invocation is captured and must be byte-identical in every pass.  Outputs
are checked once per run: exit codes against verdicts, and for ``tails``
every norm against the dense-SVD oracle.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import qsu2
from qsu2 import cli, lattice, representations

import oracle
from hostspeed import HostSpeed
from tracer import Tracer, layer_totals
from workloads import CAPS, Invocation, draw_q, invocations

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

MIN_PASSES = 3  # untraced passes per run: a median, and two reports to compare
SETUP_SAMPLES = 5
RELATION_TOL = 1e-12  # coproduct residual bound, the CLI's default relation tolerance
CSV_HEADER = "index,value,bound,pass"

_CACHED_BUILDERS = tuple(
    builder for builder in (getattr(lattice, name, None) for name in (
        "gamma_basis", "full_basis", "pi_basis", "nat_basis", "pi_tensor_basis"))
    if hasattr(builder, "cache_clear")
)

# Child interpreter for one set-up sample: import the package and the CLI,
# generate the workload and parse its argv; print the seconds this took.
_SETUP_SNIPPET = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from hostspeed import HostSpeed
with HostSpeed() as speed:
    start = time.perf_counter()
    import qsu2.cli, workloads
    parser = qsu2.cli.build_parser()
    for inv in workloads.invocations(sys.argv[3], int(sys.argv[4])):
        if inv.argv:
            parser.parse_args(list(inv.argv))
    wall = time.perf_counter() - start
print(speed.reference_seconds(wall))
"""


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def fresh_state() -> None:
    for builder in _CACHED_BUILDERS:
        builder.cache_clear()
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def _coproduct(inv: Invocation) -> int:
    d_alpha, d_beta = representations.coproduct_images(inv.q, inv.cap)
    rows = representations.check_relations({"alpha": d_alpha, "beta": d_beta}).rows
    lines = [CSV_HEADER] + [
        f"{row.name},{row.residual!r},{RELATION_TOL!r},{str(row.residual < RELATION_TOL).lower()}"
        for row in rows
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all(row.residual < RELATION_TOL for row in rows) else 1


class Outcome(NamedTuple):
    code: object  # exit code, None if the invocation raised
    text: str  # the report
    wall_s: float
    ref_s: float  # wall_s at the reference host speed
    stderr: str  # the traceback if it raised, else what it wrote to stderr


def call(inv: Invocation, tracer: Tracer | None = None) -> Outcome:
    """Run one invocation as a fresh process would, timing it."""
    fresh_state()
    out, err = io.StringIO(), io.StringIO()
    root = tracer.root(f"cli.{inv.name}") if tracer else nullcontext()
    error = ""
    with HostSpeed() as speed:
        start = time.perf_counter()
        try:
            with root, redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(inv.argv)) if inv.argv else _coproduct(inv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # a crash is a failed invocation, not a benchmark crash
            code, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
    return Outcome(code, out.getvalue(), wall, speed.reference_seconds(wall), error or err.getvalue())


def run_pass(invs: list[Invocation], tracer: Tracer | None = None) -> dict[str, Outcome]:
    return {inv.name: call(inv, tracer) for inv in invs}


def pass_seconds(outputs: dict[str, Outcome], field: str = "ref_s") -> float:
    return sum(getattr(outcome, field) for outcome in outputs.values())


def report_items(inv: Invocation, code, text: str, problems: list[str]):
    """(name, value, pass) of every item of a report, or None if there is none."""
    if code not in (0, 1):
        problems.append(f"{inv.name}: exit code {code}")
        return None
    try:
        if inv.csv:
            lines = text.splitlines()
            if not lines or lines[0] != CSV_HEADER:
                raise ValueError("missing CSV header")
            rows = [line.split(",") for line in lines[1:]]
            items = [(index, float(value) if value else None, flag == "true")
                     for index, value, _, flag in rows]
        else:
            report = json.loads(text)
            items = [(it["name"], it["value"], it["pass"]) for it in report["items"]]
            if report["pass"] != all(passed for *_, passed in items):
                problems.append(f"{inv.name}: report verdict disagrees with its items")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{inv.name}: unreadable report ({exc})")
        return None
    if code != (0 if all(passed for *_, passed in items) else 1):
        problems.append(f"{inv.name}: exit code {code} disagrees with the report verdict")
    return items


def check_outputs(invs: list[Invocation], passes: list[dict], problems: list[str]):
    """Determinism across passes, then (attempted, failed) items of one pass."""
    first = passes[0]
    for k, outputs in enumerate(passes[1:], start=2):
        for inv in invs:
            if outputs[inv.name][:2] != first[inv.name][:2]:  # exit code and report
                problems.append(f"{inv.name}: report of pass {k} differs from pass 1")
    attempted = failed = 0
    for inv in invs:
        outcome = first[inv.name]
        items = report_items(inv, outcome.code, outcome.text, problems)
        if items is None:
            if outcome.stderr:
                print(outcome.stderr, file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        exact = oracle.tail_norms(inv.q, inv.cap, inv.tail_gen) if inv.tail_gen else None
        for name, value, passed in items:
            attempted += 1
            if exact is not None and (value is None or oracle.rejects(value, exact[int(name[2:])])):
                passed = False
            failed += not passed
    return attempted, failed


def setup_sample(workload: str, seed: int) -> float:
    """Reference seconds a fresh interpreter takes to set up the workload."""
    cmd = [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), str(BENCH_DIR), workload, str(seed)]
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    child = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return float(child.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    """Where a result was measured; recorded with it, gated on nothing."""
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*")) if path.suffix in (".py", ".pyx")
    )
    backend = getattr(qsu2, "kernel_backend", None)
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_backend": backend() if backend else None,
        "src_lines": src_lines,
    }


def _spread(samples: list[float]) -> str:
    return f"median of {len(samples)} (min {min(samples):.4f}, max {max(samples):.4f})"


def _timed_passes(invs, budget: float, min_passes: int, tracer: Tracer | None = None,
                  before_pass=None):
    """Passes until the budget is spent; traced passes come with their spans."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < budget:
        if before_pass is not None:
            before_pass()
        outputs = run_pass(invs, tracer)
        if tracer is None:
            passes.append(outputs)
        else:
            passes.append((outputs, tracer.spans))
            tracer.spans = []
    return passes


def run(workload: str, seed: int, seconds: float, trace: bool, caps: dict = CAPS,
        spans_out: Path | None = None) -> dict:
    """Measure one workload; returns the result and human-readable lines."""
    spec = load_spec()
    invs = invocations(workload, seed, caps)
    lines = [f"workload {workload}, seed {seed}, q = {draw_q(seed)!r}, invocations: "
             + "; ".join(" ".join(inv.argv) or f"coproduct q={inv.q!r} cap={inv.cap}" for inv in invs)]
    problems: list[str] = []
    # Set-up samples are spread between the passes: host contention comes
    # in bursts of seconds, which back-to-back samples would share.
    setup: list[float] = []
    sample_setup = None if trace else lambda: setup.append(setup_sample(workload, seed))
    untraced = _timed_passes(invs, seconds / 2 if trace else seconds, 1 if trace else MIN_PASSES,
                             before_pass=sample_setup)
    rss = peak_rss_mb()
    while sample_setup and len(setup) < SETUP_SAMPLES:
        sample_setup()
    traced = []
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = _timed_passes(invs, seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
    gc.unfreeze()
    all_passes = untraced + [outputs for outputs, _ in traced]
    attempted, failed = check_outputs(invs, all_passes, problems)

    untraced_s = [pass_seconds(p) for p in untraced]
    for inv in invs:
        times = [p[inv.name].ref_s for p in untraced]
        lines.append(f"  {inv.name:<24} {statistics.median(times):.4f} s  {_spread(times)}")
    wall_s = [pass_seconds(p, "wall_s") for p in untraced]
    lines.append(f"wall seconds per pass, without host-speed correction: {_spread(wall_s)}")
    if trace:
        traced_s = [pass_seconds(p) for p, _ in traced]
        names = [m["name"] for m in spec["per_layer"]]
        totals = [layer_totals(spans) for _, spans in traced]
        values = {name: statistics.median(t.get(name, 0) for t in totals) for name in names}
        values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        lines.append(f"traced suite_s {statistics.median(traced_s):.4f} s  {_spread(traced_s)}")
        # Spans hold wall times, so compare with the traced wall seconds.
        traced_wall = statistics.median(pass_seconds(p, "wall_s") for p, _ in traced)
        lines.append(f"cli.unattributed_s is {values['cli.unattributed_s'] / traced_wall:.2%} "
                     "of the traced wall seconds per pass (limit 5%)")
        metrics_spec = spec["per_layer"]
        if spans_out is not None:
            write_spans(spans_out, lines[0], traced)
    else:
        values = {"suite_s": statistics.median(untraced_s),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss}
        lines.append(f"suite_s {values['suite_s']:.4f} s  {_spread(untraced_s)} passes")
        lines.append(f"setup_s {values['setup_s']:.4f} s  {_spread(setup)} fresh-process set-ups")
        lines.append(f"peak_rss_mb {rss:.1f} MB  one sample, the high-water mark of the timed passes")
        metrics_spec = spec["end_to_end"]
    lines.append(f"failed_item_ratio {failed / attempted:.6f} ratio  {failed} of {attempted} items of one pass"
                 " fail their verdict or the tails oracle")
    lines.extend(f"problem: {p}" for p in problems)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
        "environment": environment(),
    }


def write_spans(path: Path, header: str, traced) -> None:
    """JSON lines: the run's header, then every span of every traced pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"run": header, "environment": environment()}) + "\n")
        for k, (_, spans) in enumerate(traced, start=1):
            ids = {id(span): n for n, span in enumerate(spans)}
            for n, span in enumerate(spans):
                fh.write(json.dumps({
                    "pass": k, "id": n, "parent": ids.get(id(span.parent)), "name": span.name,
                    "start": span.start, "end": span.end, "self_s": span.self_s,
                    "counts": span.counts,
                }) + "\n")
