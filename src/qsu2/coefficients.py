"""Scalar formulas: g(k), the Clebsch-Gordan column coefficients of the
GNS action, and the analytic estimates on g used by the compactness
diagnostics.  The formulas hold at q = 0 too, where they take the crystal
values in {-1, 0, +1} (with 0**0 = 1).

The coefficient functions take a Gamma basis and return the rule term
``(step, values)`` of their part of the GNS action: the Clebsch-Gordan
step, written only there, and the coefficient at every point of the
basis from per-call tables of g(k, q) and q**e up to its cap.  They
apply the validity-first rule: where point + step violates the Gamma
invariants the target basis vector does not exist, so the coefficient is
0 by definition and no division is attempted.  These are exactly the
sites where the raw formulas degenerate to 0/0, and a rule of these terms
never emits an invalid target.  A formula reads a point through n2 and
the integers a = n + i = (n2 + i2) >> 1 and b = n + j = (n2 + j2) >> 1,
each halved once per call; a shift right by one is floor division by 2
on every integer, and n2 + i2 is even on Gamma, so nothing is rounded.

An operator carries the q it was built at, and q == 0 is its exact mode;
``float_mode`` admits every other q, 0 < |q| < 1, and returns it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    """g(k, q) for k = 0..kmax, one scalar g per k.

    It stays scalar: numpy 2.4's vectorized expm1 (SIMD) and libm's differ
    in the last bit for some arguments, 1,693 of 400,000 values of g at
    4,000 random q and k = 1..100 on an x86-64 host, which would move the
    bytes of reports."""
    return np.array([g(k, q) for k in range(kmax + 1)])


def power_table(x: float, emax: int) -> np.ndarray:
    """x**e for e = 0..emax, each by the scalar power (0**0 = 1).

    It stays scalar: numpy 2.4's np.power and Python's float power differ
    in the last bit for 10,838 of 400,000 powers (4,000 random q, e =
    0..99, x86-64), which would move the bytes of reports."""
    return np.array([x**e for e in range(emax + 1)])


def t_parts(t):
    """Positive and negative parts (t_plus, t_minus) of integers, elementwise."""
    return np.maximum(t, 0), np.maximum(-t, 0)


def float_mode(q: float) -> float:
    """q itself, once checked to be a float-mode parameter: 0 < |q| < 1."""
    if not -1.0 < q < 1.0:
        raise ValueError("deformation parameter must satisfy |q| < 1")
    if q == 0.0:
        raise ValueError("q=0 has a dedicated exact mode")
    return q


def _coefficient(basis, q: float, step: tuple[int, int, int], formula, power=None):
    """The rule term (step, values) on a Gamma basis: ``formula(gt, qe, n2,
    a, b)`` at the points (n2, i2, j2) whose target point + step exists,
    0.0 elsewhere, with a = n + i and b = n + j halved from the doubled
    coordinates by one shift each; gt tabulates g(k, q) up to the cap and
    qe holds the formula's q-power factor q**power(a, b) at each point
    (None without one).  Where that power is 0 (every e >= 1 at q = 0, or a
    power that underflows) the coefficient is 0, since its other factors
    are finite, so the formula is evaluated only where it is nonzero; one
    ``all()`` over the O(cap) table of powers tells whether any is 0."""
    if basis.label != "gamma":
        raise ValueError(f"Clebsch-Gordan terms take a Gamma basis, not {basis.label!r}")
    n2, i2, j2 = basis.coords
    ok = is_valid_gamma(n2 + step[0], i2 + step[1], j2 + step[2])
    n2, i2, j2 = n2[ok], i2[ok], j2[ok]
    a, b = (n2 + i2) >> 1, (n2 + j2) >> 1
    top = basis.cap + 2
    qe = None
    if power is not None:
        qp = power_table(q, 2 * top)
        qe = qp[power(a, b)]
        if not qp.all():
            live = qe != 0
            ok[ok] = live
            n2, a, b, qe = n2[live], a[live], b[live], qe[live]
    out = np.zeros(len(basis))
    out[ok] = formula(g_table(q, top), qe, n2, a, b)
    return step, out


def a_plus(basis, q: float):
    """Raising term of the alpha action on a Gamma basis."""
    return _coefficient(basis, q, (1, -1, -1), lambda gt, qe, n2, a, b: (
        qe  # q^(2n + i + j + 1)
        * (gt[n2 - b + 1] * gt[n2 - a + 1])
        / (gt[n2 + 1] * gt[n2 + 2])), power=lambda a, b: a + b + 1)


def a_minus(basis, q: float):
    """Lowering term of the alpha action on a Gamma basis."""
    return _coefficient(basis, q, (-1, -1, -1), lambda gt, qe, n2, a, b: (
        (gt[b] * gt[a])
        / (gt[n2] * gt[n2 + 1])))


def b_plus(basis, q: float):
    """Raising term of the beta action on a Gamma basis."""
    return _coefficient(basis, q, (1, 1, -1), lambda gt, qe, n2, a, b: (
        -qe  # q^(n + j)
        * (gt[n2 - b + 1] * gt[a + 1])
        / (gt[n2 + 1] * gt[n2 + 2])), power=lambda a, b: b)


def b_minus(basis, q: float):
    """Lowering term of the beta action on a Gamma basis."""
    return _coefficient(basis, q, (-1, 1, -1), lambda gt, qe, n2, a, b: (
        qe  # q^(n + i)
        * (gt[b] * gt[n2 - a])
        / (gt[n2] * gt[n2 + 1])), power=lambda a, b: a)


class GEstimateReport(NamedTuple):
    """The estimates at k = 1..kmax, one array entry per k."""

    c: float
    k: np.ndarray
    lhs1: np.ndarray  # |1 - g(k)|
    bound1: np.ndarray  # q^(2k)
    lhs2: np.ndarray  # |1 - 1/g(k)|
    bound2: np.ndarray  # c * q^(2k)
    pass1: np.ndarray
    pass2: np.ndarray


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
    Both verdicts hold for any table with 0 < g(1) <= g(k) <= 1, so they
    are reported, not certified: an estimate passes by construction.
    """
    float_mode(q)  # refuses q = 0, where the estimates are vacuous, and |q| >= 1
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    g1 = g(1, q)
    c = 1.0 / g1
    gk = g_table(q, kmax)[1:]
    bound = power_table(q, 2 * kmax)[2::2]  # q ** (2 * k)
    return GEstimateReport(c, np.arange(1, kmax + 1), bound / (1.0 + gk), bound,
                           bound / (gk * (1.0 + gk)), c * bound,
                           1.0 / (1.0 + gk) < 1.0, g1 / (gk * (1.0 + gk)) < 1.0)
