"""Deterministic report objects and their JSON/CSV serialization.

Reports are regression artifacts: field order is fixed, floats are
written with 17 significant digits (enough to round-trip float64
exactly), CSV uses '.' decimals and no locale, and repeated runs with
identical flags produce byte-identical output.  The elapsed_ms field is
therefore pinned to 0 in the serialized report; wall time goes to
stderr instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
# json.dumps of a str, without the encoder set-up around it
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


@dataclass
class ReportItem:
    name: str
    value: float | int
    bound: float | int | None
    passed: bool
    witness: str | None = None
    index: object = None  # CSV index column (shell, k or a short label); the name if unset


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
                  if item.bound is not None and isinstance(item.value, numbers.Real)]
        return float("nan") if any(v != v for v in values) else max(values, default=0.0)


def _json_value(v) -> str:
    """JSON text of a report value, dispatched once on its type (numpy
    scalars as Python ones); floats keep 17 digits, non-finite ones null."""
    if isinstance(v, float):
        return format(v, ".17g") if math.isfinite(v) else "null"
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, dict):
        return "{" + ",".join(f"{_quote(str(k))}:{_json_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    return _quote(str(v))


def to_json(report: VerificationReport) -> str:
    items = ",".join(
        f'{{"name":{_quote(it.name)},"value":{_json_value(it.value)},'
        f'"bound":{_json_value(it.bound)},"pass":{_json_value(it.passed)},'
        f'"witness":{_json_value(it.witness)}}}'
        for it in report.items
    )
    return (
        f'{{"command":{_quote(report.command)},"params":{_json_value(report.params)},'
        f'"items":[{items}],"pass":{_json_value(report.passed)},'
        f'"max_residual":{_json_value(report.max_residual)},"elapsed_ms":{report.elapsed_ms}}}\n'
    )


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
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
