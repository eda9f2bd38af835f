"""Test-side views of qsu2 objects that the package itself never needs."""

import math

import numpy as np

from qsu2.equivalence import decay_report
from qsu2.operator_core import compose


def basis_points(basis) -> list:
    """Point objects of a basis in rank order, built from its coordinate arrays."""
    return list(map(basis.point, *(c.tolist() for c in basis.coords)))


def entries(op) -> list:
    """(row rank, column rank, value) of every stored entry of an operator."""
    return list(zip(op.rows.tolist(), op.entry_cols().tolist(), op.vals.tolist()))


def to_dense(op) -> np.ndarray:
    """Dense matrix of an operator (complex if its entries are)."""
    out = np.zeros(op.shape, dtype=complex if op.vals.dtype.kind == "c" else float)
    out[op.rows, op.entry_cols()] = op.vals
    return out


def product(a, b):
    """The full matrix product a @ b: compose over every column of b."""
    return compose(a, b, np.arange(len(b.domain)))


def sheet_of(p) -> int:
    """Doubled sheet label 2k of the sheet Gamma_k = {n - max(i, j) = k}.

    Sheet 0 is the right-and-rear face of the pyramid; removing it leaves a
    replica of the whole lattice, whose face is sheet 1, and so on.
    """
    return p.n2 - max(p.i2, p.j2)


def decay_loglog_slope(q_grid, cap: int, target: str, noise_floor: float = 1e-13) -> float:
    """Pooled log-log regression slope of per-shell maxima against the
    claimed q-power, across shells and the q grid; ~1 when the claimed
    exponents match the measured decay.

    Shells whose claimed exponent is 0 carry no scaling information (the
    bound there is a constant) and are left out, as are values below the
    noise floor: the diagonal entries come from differences of O(1)
    quantities, so values near machine epsilon are cancellation noise, not
    decay data.
    """
    xs, ys = [], []
    for q in q_grid:
        rep = decay_report(q, cap, target)
        if max(rep.shell_exponent) == 0:
            raise ValueError(f"target {target!r} has no shellwise-decaying claimed pattern to fit")
        for (_, v), exponent in zip(rep.shell_max, rep.shell_exponent):
            if v > noise_floor and exponent > 0:
                xs.append(exponent * math.log(abs(q)))
                ys.append(math.log(v))
    if len(xs) < 2:
        raise ValueError("not enough nonzero shells for a slope fit")
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
