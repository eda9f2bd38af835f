"""Scalar formulas: g(k), the Clebsch-Gordan column coefficients of the
GNS action, and the analytic estimates on g used by the compactness
diagnostics.  The formulas hold at q = 0 too, where they take the crystal
values in {-1, 0, +1} (with 0**0 = 1).

The coefficient functions take arrays of Gamma points in doubled
coordinates and return the rule term ``(step, values)`` of their part of
the GNS action: the Clebsch-Gordan step, written only there, and the
coefficient at every point from per-call tables of g(k, q) and q**e.
They apply the validity-first rule: where point + step violates the Gamma
invariants the target basis vector does not exist, so the coefficient is
0 by definition and no division is attempted.  These are exactly the
sites where the raw formulas degenerate to 0/0, and a rule of these terms
never emits an invalid target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import is_valid_gamma


def g(k: int, q: float) -> float:
    """sqrt(1 - q^(2k)); strictly increasing in k with g(0) = 0.

    Evaluated as sqrt(-expm1(2k log|q|)): the subtraction 1 - q^(2k)
    cancels catastrophically as |q| -> 1, the expm1 form does not.  At
    q = 0 the definition gives g(k) = 1 for every k >= 1.
    """
    if k < 0:
        raise ValueError("negative q-index")
    if k == 0:
        return 0.0
    if q == 0.0:
        return 1.0
    return math.sqrt(-math.expm1(2 * k * math.log(abs(q))))


def g_table(q: float, kmax: int) -> np.ndarray:
    """g(k, q) for k = 0..kmax."""
    return np.array([g(k, q) for k in range(kmax + 1)])


def power_table(x: float, emax: int) -> np.ndarray:
    """x**e for e = 0..emax, each by the scalar power (0**0 = 1)."""
    return np.array([x**e for e in range(emax + 1)])


def t_parts(t):
    """Positive and negative parts (t_plus, t_minus) of integers, elementwise."""
    return np.maximum(t, 0), np.maximum(-t, 0)


@dataclass(frozen=True)
class Mode:
    """Scalar mode of an operator: exact integers at q = 0, floats otherwise."""

    q: float

    @property
    def exact(self) -> bool:
        return self.q == 0.0


EXACT_ZERO = Mode(0.0)


def float_mode(q: float) -> Mode:
    if not -1.0 < q < 1.0:
        raise ValueError("deformation parameter must satisfy |q| < 1")
    if q == 0.0:
        raise ValueError("q=0 has a dedicated exact mode (EXACT_ZERO)")
    return Mode(q)


def _coefficient(n2, i2, j2, q: float, step: tuple[int, int, int], formula):
    """The rule term (step, values): ``formula(gt, qp, n2, i2, j2)`` where
    the target point (n2, i2, j2) + step exists, 0.0 elsewhere."""
    n2, i2, j2 = (np.asarray(c, dtype=np.int64) for c in (n2, i2, j2))
    bad = ~is_valid_gamma(n2, i2, j2)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"invalid Gamma point ({n2[k]}, {i2[k]}, {j2[k]})")
    ok = is_valid_gamma(n2 + step[0], i2 + step[1], j2 + step[2])
    out = np.zeros(n2.shape)
    if ok.any():
        top = int(n2.max()) + 2
        out[ok] = formula(g_table(q, top), power_table(q, 2 * top), n2[ok], i2[ok], j2[ok])
    return step, out


def a_plus(n2, i2, j2, q: float):
    """Raising term of the alpha action."""
    return _coefficient(n2, i2, j2, q, (1, -1, -1), lambda gt, qp, n2, i2, j2: (
        qp[n2 + (i2 + j2) // 2 + 1]  # q^(2n + i + j + 1)
        * (gt[(n2 - j2) // 2 + 1] * gt[(n2 - i2) // 2 + 1])
        / (gt[n2 + 1] * gt[n2 + 2])))


def a_minus(n2, i2, j2, q: float):
    """Lowering term of the alpha action."""
    return _coefficient(n2, i2, j2, q, (-1, -1, -1), lambda gt, qp, n2, i2, j2: (
        (gt[(n2 + j2) // 2] * gt[(n2 + i2) // 2])
        / (gt[n2] * gt[n2 + 1])))


def b_plus(n2, i2, j2, q: float):
    """Raising term of the beta action."""
    return _coefficient(n2, i2, j2, q, (1, 1, -1), lambda gt, qp, n2, i2, j2: (
        -(qp[(n2 + j2) // 2])  # q^(n + j)
        * (gt[(n2 - j2) // 2 + 1] * gt[(n2 + i2) // 2 + 1])
        / (gt[n2 + 1] * gt[n2 + 2])))


def b_minus(n2, i2, j2, q: float):
    """Lowering term of the beta action."""
    return _coefficient(n2, i2, j2, q, (-1, 1, -1), lambda gt, qp, n2, i2, j2: (
        qp[(n2 + i2) // 2]  # q^(n + i)
        * (gt[(n2 + j2) // 2] * gt[(n2 - i2) // 2])
        / (gt[n2] * gt[n2 + 1])))


@dataclass(frozen=True)
class GEstimateRow:
    k: int
    lhs1: float  # |1 - g(k)|
    bound1: float  # q^(2k)
    lhs2: float  # |1 - 1/g(k)|
    bound2: float  # c * q^(2k)
    pass1: bool
    pass2: bool


@dataclass(frozen=True)
class GEstimateReport:
    c: float
    rows: tuple[GEstimateRow, ...]


def verify_g_estimates(q: float, kmax: int) -> GEstimateReport:
    """Check |1 - g(k)| < q^(2k) and |1 - 1/g(k)| < c q^(2k) for k = 1..kmax.

    The constant is c = (1 - q^2)^(-1/2) = 1/g(1), the smallest k-uniform
    constant of this shape: (1 - g(k))/g(k) <= q^(2k)/g(1).

    The left-hand sides are evaluated through the cancellation-free
    identities 1 - g = q^(2k)/(1 + g) and 1 - 1/g = q^(2k)/(g(1 + g));
    the naive subtraction 1 - sqrt(1 - x) carries no significant digits
    once x drops near machine epsilon and would fake violations there.
    Each verdict is decided on the ratio lhs/bound, 1/(1 + g) and
    g(1)/(g(1 + g)), which stays meaningful after q^(2k) underflows to 0.
    """
    float_mode(q)  # refuses q = 0, where the estimates are vacuous, and |q| >= 1
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    g1 = g(1, q)
    c = 1.0 / g1
    rows = []
    for k in range(1, kmax + 1):
        gk = g(k, q)
        bound = q ** (2 * k)
        lhs1 = bound / (1.0 + gk)
        lhs2 = bound / (gk * (1.0 + gk))
        pass1 = 1.0 / (1.0 + gk) < 1.0
        pass2 = g1 / (gk * (1.0 + gk)) < 1.0
        rows.append(GEstimateRow(k, lhs1, bound, lhs2, c * bound, pass1, pass2))
    return GEstimateReport(c, tuple(rows))
