"""Index combinatorics for the truncated basis lattices.

The GNS space of quantum SU(2) is indexed by the pyramid lattice
Gamma = {(n, i, j) : n in (1/2)N, i, j in {-n, ..., n}}.  Half-integers
are stored doubled, (n2, i2, j2) = (2n, 2i, 2j), so every index
computation is exact integer arithmetic.  The direct-integral side
lives on N x N x Z (points (r, s, t)) with the middle-and-last pair
(s, t) indexing the factor N x Z.

Everything is graded by a shell number (n2 on Gamma, r + s + |t| on the
product lattices, s + |t| on the factor); truncation keeps shells up to
a cap.  The crystal-limit unitary preserves shells exactly, so one cap
value truncates both sides consistently: shell m holds (m + 1)^2 points
on either lattice.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np


class GammaIndex(NamedTuple):
    """Point of Gamma in doubled coordinates: n2 = 2n, i2 = 2i, j2 = 2j."""

    n2: int
    i2: int
    j2: int


class FullIndex(NamedTuple):
    """Point (r, s, t) of N x N x Z (multiplicity factor r, then (s, t))."""

    r: int
    s: int
    t: int


class PiIndex(NamedTuple):
    """Point (s, t) of N x Z, the direct-integral representation space."""

    s: int
    t: int


def is_valid_gamma(p: GammaIndex) -> bool:
    n2, i2, j2 = p
    if n2 < 0 or abs(i2) > n2 or abs(j2) > n2:
        return False
    return (i2 - n2) % 2 == 0 and (j2 - n2) % 2 == 0


def is_valid_full(p: FullIndex) -> bool:
    return p.r >= 0 and p.s >= 0


def is_valid_pi(p: PiIndex) -> bool:
    return p.s >= 0


def gamma_shell(p: GammaIndex) -> int:
    return p.n2


def full_shell(p: FullIndex) -> int:
    return p.r + p.s + abs(p.t)


def pi_shell(p: PiIndex) -> int:
    return p.s + abs(p.t)


def sheet_of(p: GammaIndex) -> int:
    """Doubled sheet label 2k of the sheet Gamma_k = {n - max(i, j) = k}.

    Sheet 0 is the right-and-rear face of the pyramid; removing it leaves a
    replica of the whole lattice, whose face is sheet 1, and so on.
    """
    return p.n2 - max(p.i2, p.j2)


def gamma_points(cap: int) -> list[GammaIndex]:
    """All Gamma points with n2 <= cap, ordered by (n2, i2, j2) ascending."""
    if cap < 0:
        raise ValueError("truncation cap must be non-negative")
    pts = []
    for n2 in range(cap + 1):
        for i2 in range(-n2, n2 + 1, 2):
            for j2 in range(-n2, n2 + 1, 2):
                pts.append(GammaIndex(n2, i2, j2))
    return pts


def full_points(cap: int) -> list[FullIndex]:
    """All (r, s, t) with r + s + |t| <= cap in canonical order.

    Shell-major; within a shell r descends, then s descends, then t
    ascends, e.g. shell 1 reads (1,0,0), (0,1,0), (0,0,-1), (0,0,1).
    """
    if cap < 0:
        raise ValueError("truncation cap must be non-negative")
    pts = []
    for m in range(cap + 1):
        for r in range(m, -1, -1):
            for s in range(m - r, -1, -1):
                k = m - r - s
                if k == 0:
                    pts.append(FullIndex(r, s, 0))
                else:
                    pts.append(FullIndex(r, s, -k))
                    pts.append(FullIndex(r, s, k))
    return pts


def pi_points(cap: int) -> list[PiIndex]:
    """All (s, t) with s + |t| <= cap; shell-major, s descending, t ascending."""
    if cap < 0:
        raise ValueError("truncation cap must be non-negative")
    pts = []
    for m in range(cap + 1):
        for s in range(m, -1, -1):
            k = m - s
            if k == 0:
                pts.append(PiIndex(s, 0))
            else:
                pts.append(PiIndex(s, -k))
                pts.append(PiIndex(s, k))
    return pts


class Basis:
    """Ordered finite basis of a truncated lattice.

    Provides the rank bijection (index_of / point_of), per-point shells,
    and the point validator used when operator rules emit targets.  The
    ``cap`` attribute is the truncation parameter; interior-shell logic in
    the checkers is phrased as shell <= cap - margin.
    """

    def __init__(self, label: str, points, shell_fn: Callable, validator: Callable, cap: int):
        self.label = label
        self.points = tuple(points)
        self._rank = {p: k for k, p in enumerate(self.points)}
        self.shells = np.array([shell_fn(p) for p in self.points], dtype=np.intp)
        self.shell_fn = shell_fn
        self.validator = validator
        self.cap = cap

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator:
        return iter(self.points)

    def index_of(self, p) -> int:
        try:
            return self._rank[p]
        except KeyError:
            raise ValueError(f"index outside truncation: {p!r}") from None

    def point_of(self, k: int):
        if not 0 <= k < len(self.points):
            raise ValueError(f"index outside truncation: rank {k}")
        return self.points[k]

    def __contains__(self, p) -> bool:
        return p in self._rank

    def __repr__(self) -> str:
        return f"Basis({self.label}, cap={self.cap}, dim={len(self.points)})"


@lru_cache(maxsize=None)
def gamma_basis(cap: int) -> Basis:
    return Basis("gamma", gamma_points(cap), gamma_shell, is_valid_gamma, cap)


@lru_cache(maxsize=None)
def full_basis(cap: int) -> Basis:
    return Basis("full", full_points(cap), full_shell, is_valid_full, cap)


@lru_cache(maxsize=None)
def pi_basis(cap: int) -> Basis:
    return Basis("pi", pi_points(cap), pi_shell, is_valid_pi, cap)


@lru_cache(maxsize=None)
def nat_basis(dim: int) -> Basis:
    """Basis e_0 .. e_{dim-1} of a truncated l2(N); the shell of e_k is k."""
    if dim < 1:
        raise ValueError("nat_basis needs dim >= 1")
    return Basis("nat", range(dim), lambda k: k, lambda k: isinstance(k, int) and k >= 0, dim - 1)


@lru_cache(maxsize=None)
def pi_tensor_basis(cap: int) -> Basis:
    """Tensor of two shell-capped copies of the (s, t) lattice.

    Points are pairs ordered factor-major, so the rank of (p1, p2) is
    rank(p1) * dim + rank(p2).  The shell is the sum of factor shells and
    ``cap`` is the per-factor cap, which keeps the interior-margin rule
    sound: total shell <= cap - margin forces both factors into their own
    interiors.
    """
    factor = pi_basis(cap)
    points = [(p1, p2) for p1 in factor.points for p2 in factor.points]
    return Basis(
        "pi*pi",
        points,
        lambda pq: pi_shell(pq[0]) + pi_shell(pq[1]),
        lambda pq: is_valid_pi(pq[0]) and is_valid_pi(pq[1]),
        cap,
    )
