"""Test-side views of qsu2 objects that the package itself never needs."""

import math

import numpy as np

from qsu2.equivalence import decay_report
from qsu2.operator_core import build_from_rule, compose


def basis_points(basis) -> list:
    """Point objects of a basis in rank order, built from its coordinate arrays."""
    return list(map(basis.point, *(c.tolist() for c in basis.coords)))


def entries(op) -> list:
    """(row rank, column rank, value) of every nonzero value of an operator, in
    (column, row) rank order; each value is a numpy scalar of the operator's dtype."""
    found = [(int(t.targets[j]), j, t.values[j])
             for t in op.terms for j in np.flatnonzero(t.values).tolist()]
    return sorted(found, key=lambda e: (e[1], e[0]))


def entry_bits(op) -> list:
    """The entries with each value as its dtype and bytes, for bitwise comparisons."""
    return [(i, j, v.dtype, v.tobytes()) for i, j, v in entries(op)]


def column(op, j: int) -> list:
    """(row rank, value) of the nonzero values of column j, rows ascending."""
    return sorted((int(t.targets[j]), t.values[j].item()) for t in op.terms if t.values[j] != 0)


def to_dense(op) -> np.ndarray:
    """Dense matrix of an operator (complex if its entries are)."""
    out = np.zeros(op.shape, dtype=complex if op.dtype.kind == "c" else float)
    for t in op.terms:
        cols = np.flatnonzero(t.values)
        out[t.targets[cols], cols] = t.values[cols]
    return out


def term_shifts(op) -> list:
    """The shift of every term of an operator, in term order."""
    return [t.shift for t in op.terms]


def diagonal(basis, values, mode):
    """Diagonal operator with entry values[k] at the basis point of rank k:
    one rule term of zero shift."""
    return build_from_rule(basis, basis, lambda *p: [((0,) * len(p), values)], mode)


def coefficient(term, n2: int, i2: int, j2: int, q: float) -> float:
    """A coefficient function's value at one Gamma point, as a float."""
    _, values = term(np.array([n2]), np.array([i2]), np.array([j2]), q)
    return values.item()


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
