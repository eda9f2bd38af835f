"""Index combinatorics for the truncated basis lattices.

The GNS space of quantum SU(2) is indexed by the pyramid lattice
Gamma = {(n, i, j) : n in (1/2)N, i, j in {-n, ..., n}}.  Half-integers
are stored doubled, (n2, i2, j2) = (2n, 2i, 2j), so every index
computation is exact integer arithmetic.  Index arithmetic never
divides: a doubled coordinate is halved by a shift, x >> 1, which is
floor division by 2 on every int64 and every Python int, and a parity
is read with & 1.  The direct-integral side
lives on N x N x Z (points (r, s, t)) with the middle-and-last pair
(s, t) indexing the factor N x Z.

Everything is graded by a shell number (n2 on Gamma, r + s + |t| on the
product lattices, s + |t| on the factor); truncation keeps shells up to
a cap.  The crystal-limit unitary preserves shells exactly, so one cap
value truncates both sides consistently: shell m holds (m + 1)^2 points
on either lattice.

A basis holds its points as coordinate arrays in rank order, and the
rank of a point is a closed form in its coordinates, so operator
builders map whole arrays of target points to ranks at once; the points
below a shell are read from one table over the shells up to the cap.  The
coordinate functions below (validity, shells, ranks) act elementwise on
integers and on integer arrays alike.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

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


def is_valid_gamma(n2, i2, j2):
    """Whether (n2, i2, j2) satisfies the Gamma invariants (|i2| <= n2
    implies n2 >= 0; one & 1 tests both parities)."""
    return (abs(i2) <= n2) & (abs(j2) <= n2) & ((((i2 - n2) | (j2 - n2)) & 1) == 0)


def is_valid_full(r, s, t):
    return (r >= 0) & (s >= 0)


def is_valid_pi(s, t):
    return s >= 0


def full_shell(r, s, t):
    return r + s + abs(t)


def pi_shell(s, t):
    return s + abs(t)


def points_below(m):
    """Points below shell m on Gamma (equivalently on N x N x Z)."""
    return m * (m + 1) * (2 * m + 1) // 6


def _pi_offset(t):
    """Rank of (s, t) within its shell of N x Z: s descends, t ascends."""
    return 2 * abs(t) - (t < 0)


def _inside(shell, cap, rank):
    return np.where(shell <= cap, rank, -1)


def _below(cap: int, m):
    """points_below(m) of shells m >= 0, read from one table over the
    shells 0..cap + 1; every shell above the cap reads cap + 1's entry,
    which _inside then discards."""
    return points_below(np.arange(cap + 2))[np.minimum(m, cap + 1)]


def _gamma_rank(cap: int, n2, i2, j2):
    """Rank of valid Gamma points in gamma_basis(cap), -1 above the cap."""
    return _inside(n2, cap, _below(cap, n2) + ((i2 + n2) >> 1) * (n2 + 1) + ((j2 + n2) >> 1))


def _full_rank(cap: int, r, s, t):
    """Rank of valid (r, s, t) in full_basis(cap), -1 above the cap."""
    m = full_shell(r, s, t)
    return _inside(m, cap, _below(cap, m) + (m - r) ** 2 + _pi_offset(t))


def _pi_rank(cap: int, s, t):
    """Rank of valid (s, t) in pi_basis(cap), -1 above the cap."""
    m = pi_shell(s, t)
    return _inside(m, cap, m * m + _pi_offset(t))


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError("truncation cap must be non-negative")


def _shell_ranks(cap: int, size: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Shell m, and rank within it, of every point up to the cap in
    shell-major order, where shell m holds size(m) points."""
    _check_cap(cap)
    m = np.arange(cap + 1, dtype=np.intp)
    sizes = size(m)
    first = np.cumsum(sizes) - sizes  # rank of each shell's first point
    return np.repeat(m, sizes), np.arange(sizes.sum(), dtype=np.intp) - np.repeat(first, sizes)


def _gamma_coords(cap: int) -> tuple[np.ndarray, ...]:
    """Coordinates (n2, i2, j2) of Gamma up to the cap, (n2, i2, j2) ascending."""
    n2, k = _shell_ranks(cap, lambda m: (m + 1) ** 2)
    shell, row = _shell_ranks(cap, lambda m: m + 1)  # the m + 1 rows of every shell m
    i = np.repeat(row, shell + 1)  # each row holds m + 1 points
    j = k - i * (n2 + 1)
    return n2, 2 * i - n2, 2 * j - n2


def _full_coords(cap: int) -> tuple[np.ndarray, ...]:
    """Coordinates (r, s, t) with r + s + |t| <= cap in canonical order.

    Shell-major; within a shell r descends, then s descends, then t
    ascends, e.g. shell 1 reads (1,0,0), (0,1,0), (0,0,-1), (0,0,1).  So
    shell m is the first (m + 1)^2 points of the (s, t) lattice, its
    shells 0..m in rank order, with r = m - (s + |t|).
    """
    s, t = _pi_coords(cap)
    m, k = _shell_ranks(cap, lambda m: (m + 1) ** 2)
    s, t = s[k], t[k]
    return m - pi_shell(s, t), s, t


def _pi_coords(cap: int) -> tuple[np.ndarray, ...]:
    """Coordinates (s, t) with s + |t| <= cap; shell-major, s descending,
    t ascending: shell n reads (n, 0), (n-1, -1), (n-1, 1), ..."""
    n, k = _shell_ranks(cap, lambda m: 2 * m + 1)
    a = (k + 1) >> 1
    return n - a, np.where((k & 1) == 1, -a, a)


class Basis:
    """Ordered finite basis of a truncated lattice.

    ``coords`` holds one intp array per coordinate, in rank order, and
    ``shells`` the shell of every point.  ``valid(*coords)`` checks the
    lattice invariants and ``rank(*coords)`` maps valid points to their
    ranks, -1 outside the truncation; both act elementwise on arrays.
    ``points`` and ``point_of`` give the same bijection on point objects.
    The ``cap`` attribute is the truncation parameter; interior-shell
    logic in the checkers is phrased as shell <= cap - margin.
    """

    def __init__(self, label: str, cap: int, coords, shells, point: Callable,
                 valid: Callable, rank: Callable):
        self.label = label
        self.cap = cap
        self.coords = tuple(coords)
        self.shells = shells
        self.point = point  # coordinates -> point object
        self.valid = valid
        self.rank = rank

    def __len__(self) -> int:
        return len(self.shells)

    @property
    def points(self) -> tuple:
        return tuple(map(self.point, *(c.tolist() for c in self.coords)))

    def point_of(self, k: int):
        if not 0 <= k < len(self):
            raise ValueError(f"index outside truncation: rank {k}")
        return self.point(*(int(c[k]) for c in self.coords))

    def same_points(self, other: "Basis") -> bool:
        return self is other or (
            len(self.coords) == len(other.coords)
            and all(np.array_equal(a, b) for a, b in zip(self.coords, other.coords)))

    def __repr__(self) -> str:
        return f"Basis({self.label}, cap={self.cap}, dim={len(self)})"


@lru_cache(maxsize=None)
def gamma_basis(cap: int) -> Basis:
    coords = _gamma_coords(cap)
    return Basis("gamma", cap, coords, coords[0], GammaIndex, is_valid_gamma,
                 lambda n2, i2, j2: _gamma_rank(cap, n2, i2, j2))


@lru_cache(maxsize=None)
def full_basis(cap: int) -> Basis:
    coords = _full_coords(cap)
    return Basis("full", cap, coords, full_shell(*coords), FullIndex, is_valid_full,
                 lambda r, s, t: _full_rank(cap, r, s, t))


@lru_cache(maxsize=None)
def pi_basis(cap: int) -> Basis:
    coords = _pi_coords(cap)
    return Basis("pi", cap, coords, pi_shell(*coords), PiIndex, is_valid_pi,
                 lambda s, t: _pi_rank(cap, s, t))


@lru_cache(maxsize=None)
def nat_basis(dim: int) -> Basis:
    """Basis e_0 .. e_{dim-1} of a truncated l2(N); the shell of e_k is k."""
    if dim < 1:
        raise ValueError("nat_basis needs dim >= 1")
    k = np.arange(dim, dtype=np.intp)
    return Basis("nat", dim - 1, (k,), k, int, lambda k: k >= 0,
                 lambda k: np.where(k < dim, k, -1))


@lru_cache(maxsize=None)
def pi_tensor_basis(cap: int) -> Basis:
    """Tensor of two shell-capped copies of the (s, t) lattice.

    Points are pairs ordered factor-major, so the rank of (p1, p2) is
    rank(p1) * dim + rank(p2).  The shell is the sum of factor shells and
    ``cap`` is the per-factor cap, which keeps the interior-margin rule
    sound: total shell <= cap - margin forces both factors into their own
    interiors.
    """
    s, t = _pi_coords(cap)
    dim = len(s)
    coords = (np.repeat(s, dim), np.repeat(t, dim), np.tile(s, dim), np.tile(t, dim))

    def rank(s1, t1, s2, t2):
        r1 = _pi_rank(cap, s1, t1)
        r2 = _pi_rank(cap, s2, t2)
        return np.where((r1 >= 0) & (r2 >= 0), r1 * dim + r2, -1)

    return Basis(
        "pi*pi",
        cap,
        coords,
        pi_shell(*coords[:2]) + pi_shell(*coords[2:]),
        lambda s1, t1, s2, t2: (PiIndex(s1, t1), PiIndex(s2, t2)),
        lambda s1, t1, s2, t2: (s1 >= 0) & (s2 >= 0),
        rank,
    )
