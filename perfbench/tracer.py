"""In-memory span tracer installed around qsu2's public functions.

The benchmark, not the program, records the spans: ``Tracer.install``
replaces each target function by a timing wrapper in every qsu2 namespace
that holds it (modules import each other's functions by name, as in
``from .operator_core import compose``), and ``uninstall`` puts the
originals back.  A span records name, start, end, parent and counts; a
span's self time is its duration minus the time of its children.

Scalar coefficient calls and mat-vec steps run hundreds of thousands of
times per pass, so they are not spans of their own: the enclosing span
counts them and accumulates their time (``<layer>.calls`` and
``<layer>.self_s`` in its counts), which keeps the tracer's cost and
memory small.  Targets missing from the program are skipped and their
metrics read zero.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0  # time of child spans and counted leaf calls
        self.counts: dict[str, float] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _nnz_out(span: Span, result) -> None:
    nnz = getattr(result, "nnz", None)  # operators have it, comparison tuples do not
    if nnz is not None:
        _add(span.counts, "operator_core.nnz_out", nnz)


def _norm_counts(span: Span, est) -> None:
    _add(span.counts, "operator_core.power_norm.iterations", est.iterations)
    _add(span.counts, "operator_core.power_norm.unconverged", int(not est.converged))


def _report_bytes(span: Span, text: str) -> None:
    _add(span.counts, "report.bytes", len(text.encode()))


def _basis_points(span: Span, basis) -> None:
    _add(span.counts, "lattice.points", len(basis))


def _step_bytes(plan) -> int:
    """Bytes one mat-vec step touches, computed from the plan's array sizes.

    The forward product A x and the adjoint product A* y each read the
    values, row and column indices once and gather one vector entry per
    nonzero; x is read, y and z are written.
    """
    item = plan.data.itemsize
    nnz = len(plan.data)
    arrays = plan.data.nbytes + plan.rows.nbytes + plan.cols.nbytes
    return 2 * arrays + (2 * nnz + 2 * plan.n + plan.m) * item


_OPERATOR_CORE = ("build_from_rule", "diagonal", "compose", "add", "adjoint", "tensor",
                  "restrict_tail", "max_entry_difference", "columns_equal_exact")
_REPRESENTATIONS = ("build_lambda", "build_pi", "build_ipi", "build_lambda0", "build_pi0",
                    "build_ipi0", "build_irrep", "coproduct_images", "check_relations")
_EQUIVALENCE = ("unitary_u", "conjugate", "difference", "closed_form", "decay_report",
                "tail_norms", "verify_q0_equivalence")

# (module, attribute, kind, span or layer name, counter)
TARGETS = (
    [("lattice", f, "cached", "lattice.basis", _basis_points)
     for f in ("gamma_basis", "full_basis", "pi_basis", "nat_basis", "pi_tensor_basis")]
    + [("coefficients", f, "leaf", "coefficients", None)
       for f in ("g", "a_plus", "a_minus", "b_plus", "b_minus")]
    + [("operator_core", f, "span", f"operator_core.{f}", _nnz_out) for f in _OPERATOR_CORE]
    + [("operator_core", "power_norm", "span", "operator_core.power_norm", _norm_counts),
       ("kernels", "MatvecPlan.step", "leaf", "kernels.step", _step_bytes)]
    + [("representations", f, "span", f"representations.{f}", None) for f in _REPRESENTATIONS]
    + [("equivalence", f, "span", f"equivalence.{f}", None) for f in _EQUIVALENCE]
    + [("report", "render", "span", "report.render", _report_bytes)]
)


class Tracer:
    """Span recorder; ``install`` and ``uninstall`` bracket a traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def root(self, name: str):
        span = Span(name, None, _clock())
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = _clock()
            self._stack.pop()
            self.spans.append(span)

    def _span(self, name, fn, counter, cached=False):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            misses = fn.cache_info().misses if cached else None
            span = Span(name, parent, _clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
            if cached and fn.cache_info().misses == misses:
                return result  # cache hit: no work, no span
            if counter is not None:
                counter(span, result)
            # Bookkeeping after span.end belongs to no layer's self time.
            parent.child_s += _clock() - span.start
            self.spans.append(span)
            return result

        return wrapper

    def _leaf(self, layer, fn, bytes_of):
        stack = self._stack
        calls, seconds, nbytes = f"{layer}.calls", f"{layer}.self_s", f"{layer}.bytes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = stack[-1].counts
            counts[calls] = counts.get(calls, 0) + 1
            if self._in_leaf:  # nested in the same layer, e.g. g inside a_plus
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self._in_leaf = False
                counts[seconds] = counts.get(seconds, 0.0) + elapsed
                if bytes_of is not None:
                    counts[nbytes] = counts.get(nbytes, 0) + bytes_of(args[0])
                stack[-1].child_s += _clock() - start

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qsu2" or name.startswith("qsu2."))]
        for module_name, attr, kind, name, counter in TARGETS:
            module = sys.modules.get(f"qsu2.{module_name}")
            owner_name, _, method = attr.partition(".")
            original = getattr(module, owner_name, None)
            if method:
                owner = original
                original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                continue
            if kind == "leaf":
                wrapper = self._leaf(name, original, counter)
            else:
                cached = kind == "cached" and hasattr(original, "cache_info")
                wrapper = self._span(name, original, counter, cached)
            if method:
                self._patches.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name ``<name>.self_s`` and ``<name>.calls``, plus summed counts.

    Root spans (no parent) give ``<name>.s`` for their duration and add
    their self time to ``cli.unattributed_s``.
    """
    totals: dict[str, float] = {}
    for span in spans:
        if span.parent is None:
            _add(totals, f"{span.name}.s", span.end - span.start)
            _add(totals, "cli.unattributed_s", span.self_s)
        else:
            _add(totals, f"{span.name}.self_s", span.self_s)
            _add(totals, f"{span.name}.calls", 1)
        for key, value in span.counts.items():
            _add(totals, key, value)
    return totals
