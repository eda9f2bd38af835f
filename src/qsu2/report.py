"""Deterministic report objects and their JSON/CSV serialization.

Reports are regression artifacts: field order is fixed, floats are
written with 17 significant digits (enough to round-trip float64
exactly), CSV uses '.' decimals and no locale, and repeated runs with
identical flags produce byte-identical output.  The elapsed_ms field is
therefore pinned to 0 in the serialized report; wall time goes to
stderr instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class ReportItem:
    name: str
    value: float | int
    bound: float | int | None
    passed: bool
    witness: str | None = None
    index: object = None  # CSV index column (shell, k, or relation label)


@dataclass
class VerificationReport:
    command: str
    params: dict
    items: list[ReportItem] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def max_residual(self) -> float:
        """Largest bounded |value|; a NaN value propagates instead of hiding."""
        values = [abs(item.value) for item in self.items
                  if item.bound is not None and isinstance(item.value, (int, float))]
        return float("nan") if any(v != v for v in values) else max(values, default=0.0)


def _fmt_number(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v) or math.isinf(v):
            return "null"
        return format(v, ".17g")
    return json.dumps(v)


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, (bool, int, float)):
        return _fmt_number(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    return json.dumps(str(v))


def to_json(report: VerificationReport) -> str:
    items = []
    for it in report.items:
        items.append(
            "{"
            + f"\"name\":{json.dumps(it.name)},"
            + f"\"value\":{_json_value(it.value)},"
            + f"\"bound\":{_json_value(it.bound)},"
            + f"\"pass\":{_json_value(it.passed)},"
            + f"\"witness\":{_json_value(it.witness)}"
            + "}"
        )
    return (
        "{"
        + f"\"command\":{json.dumps(report.command)},"
        + f"\"params\":{_json_value(report.params)},"
        + "\"items\":[" + ",".join(items) + "],"
        + f"\"pass\":{_json_value(report.passed)},"
        + f"\"max_residual\":{_json_value(report.max_residual)},"
        + f"\"elapsed_ms\":{report.elapsed_ms}"
        + "}\n"
    )


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def to_csv(report: VerificationReport) -> str:
    lines = ["index,value,bound,pass"]
    for it in report.items:
        idx = it.index if it.index is not None else it.name
        lines.append(
            f"{_csv_cell(idx)},{_csv_cell(it.value)},{_csv_cell(it.bound)},{_csv_cell(it.passed)}"
        )
    return "\n".join(lines) + "\n"


def render(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")
