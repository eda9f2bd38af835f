"""Lattice enumeration, ordering, bijections, and shell combinatorics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import basis_points, sheet_of
from qsu2 import lattice
from qsu2.lattice import (
    FullIndex,
    GammaIndex,
    PiIndex,
    full_basis,
    full_shell,
    gamma_basis,
    is_valid_gamma,
    nat_basis,
    pi_basis,
    pi_tensor_basis,
)


def brute_gamma(cap):
    """Enumeration oracle: filter the integer box by the Gamma invariants."""
    out = set()
    for n2 in range(cap + 1):
        for i2 in range(-cap, cap + 1):
            for j2 in range(-cap, cap + 1):
                p = GammaIndex(n2, i2, j2)
                if is_valid_gamma(*p):
                    out.add(p)
    return out


def brute_full(cap):
    out = set()
    for r in range(cap + 1):
        for s in range(cap + 1):
            for t in range(-cap, cap + 1):
                if r + s + abs(t) <= cap:
                    out.add(FullIndex(r, s, t))
    return out


def test_gamma_points_small_caps():
    assert basis_points(gamma_basis(0)) == [GammaIndex(0, 0, 0)]
    pts1 = basis_points(gamma_basis(1))
    assert len(pts1) == 5
    assert set(pts1[1:]) == {GammaIndex(1, i, j) for i in (-1, 1) for j in (-1, 1)}
    assert len(gamma_basis(2)) == 14


def test_gamma_points_match_brute_force():
    for cap in (0, 1, 2, 3, 7):
        pts = basis_points(gamma_basis(cap))
        assert set(pts) == brute_gamma(cap)
        assert len(pts) == len(set(pts))
        assert pts == sorted(pts)  # (n2, i2, j2) ascending


def test_full_points_small_caps():
    assert basis_points(full_basis(0)) == [FullIndex(0, 0, 0)]
    assert basis_points(full_basis(1)) == [
        FullIndex(0, 0, 0),
        FullIndex(1, 0, 0),
        FullIndex(0, 1, 0),
        FullIndex(0, 0, -1),
        FullIndex(0, 0, 1),
    ]
    pts2 = basis_points(full_basis(2))
    assert len(pts2) == 14
    assert sum(1 for p in pts2 if full_shell(*p) == 2) == 9


def test_full_points_match_brute_force():
    for cap in (0, 1, 2, 3, 7):
        pts = basis_points(full_basis(cap))
        assert set(pts) == brute_full(cap)
        assert len(pts) == len(set(pts))


def test_shell_count_identity():
    # Shell m holds (m+1)^2 points on either lattice.
    cap = 40
    gshells = {}
    for p in basis_points(gamma_basis(cap)):
        gshells[p.n2] = gshells.get(p.n2, 0) + 1
    fshells = {}
    for p in basis_points(full_basis(cap)):
        m = full_shell(*p)
        fshells[m] = fshells.get(m, 0) + 1
    for m in range(cap + 1):
        assert gshells[m] == fshells[m] == (m + 1) ** 2


def test_pi_points_counts():
    for cap in (0, 1, 5):
        pts = basis_points(pi_basis(cap))
        assert len(pts) == (cap + 1) ** 2
        assert len(set(pts)) == len(pts)
        counts = {}
        for p in pts:
            m = p.s + abs(p.t)
            counts[m] = counts.get(m, 0) + 1
        for m in range(cap + 1):
            assert counts[m] == 2 * m + 1


def test_rank_point_of_roundtrip():
    for basis in (gamma_basis(4), full_basis(4), pi_basis(4)):
        for k, p in enumerate(basis_points(basis)):
            assert basis.rank(*p) == k
            assert basis.point_of(k) == p


def test_rank_examples():
    assert gamma_basis(3).rank(*GammaIndex(0, 0, 0)) == 0
    assert full_basis(3).rank(*FullIndex(0, 0, 0)) == 0
    assert pi_basis(3).rank(*PiIndex(0, 0)) == 0
    assert full_basis(1).point_of(4) == FullIndex(0, 0, 1)


def test_index_outside_truncation_errors():
    assert gamma_basis(2).rank(*GammaIndex(3, 1, 1)) == -1
    with pytest.raises(ValueError, match="outside truncation"):
        full_basis(2).point_of(14)


def test_sheet_of_examples():
    assert sheet_of(GammaIndex(0, 0, 0)) == 0
    assert sheet_of(GammaIndex(2, 2, 2)) == 0  # rear/right face
    assert sheet_of(GammaIndex(2, 0, 0)) == 2  # interior point, one sheet in


def test_sheets_partition_gamma():
    cap = 12
    for p in basis_points(gamma_basis(cap)):
        k2 = sheet_of(p)
        assert 0 <= k2 <= 2 * p.n2
        assert k2 % 2 == 0  # n2 and max(i2, j2) share parity


def test_truncation_validation():
    assert basis_points(gamma_basis(0)) == [GammaIndex(0, 0, 0)]
    for basis in (gamma_basis, full_basis, pi_basis):
        with pytest.raises(ValueError, match="non-negative"):
            basis(-1)


def test_closed_form_ranks_match_enumeration():
    for cap in (0, 1, 4, 9):
        for basis in (gamma_basis(cap), full_basis(cap), pi_basis(cap), nat_basis(cap + 1),
                      pi_tensor_basis(cap)):
            assert basis.rank(*basis.coords).tolist() == list(range(len(basis)))
            assert np.all(basis.valid(*basis.coords))
            assert [basis.point_of(k) for k in range(len(basis))] == basis_points(basis)
    # valid points one shell above the cap have no rank
    assert gamma_basis(3).rank(np.array([4]), np.array([0]), np.array([2])).tolist() == [-1]
    assert full_basis(3).rank(np.array([1]), np.array([2]), np.array([-1])).tolist() == [-1]
    assert pi_tensor_basis(2).rank(*(np.array([v]) for v in (0, 3, 0, 0))).tolist() == [-1]
    # and neither do those further up, which lie past any table of the shells up to the cap
    for cap in (0, 1, 4, 9):
        for up in (1, 2, 5):
            m = cap + up
            gamma = np.array([(m, m, -m), (m, -m, m), (m, m % 2, m % 2)]).T
            full = np.array([(m, 0, 0), (0, m, 0), (0, 0, -m), (1, m - 2, -1)]).T
            for basis, points in ((gamma_basis(cap), gamma), (full_basis(cap), full)):
                points = points[:, basis.valid(*points)]
                assert points.shape[1] >= 3
                assert basis.rank(*points).tolist() == [-1] * points.shape[1]
                assert [int(basis.rank(*p)) for p in points.T.tolist()] == [-1] * points.shape[1]


def loop_coords(cap):
    """Coordinates of gamma_basis, full_basis and pi_basis by nested loops,
    shell by shell in rank order."""
    gamma, full, pi = [], [], []
    for m in range(cap + 1):
        gamma += [(m, i2, j2) for i2 in range(-m, m + 1, 2) for j2 in range(-m, m + 1, 2)]
        pi += [(m - (k + 1) // 2, -((k + 1) // 2) if k % 2 else (k + 1) // 2)
               for k in range(2 * m + 1)]
        # r descends, and (s, t) runs over the pi shell m - r in its rank order
        full += [(m - n, s, t) for n in range(m + 1) for s, t in pi if s + abs(t) == n]
    return [tuple(np.array(c, dtype=np.intp) for c in zip(*points))
            for points in (gamma, full, pi)]


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 18, 30, 40, 51])
def test_coords_match_loop_reference(cap):
    got = (lattice._gamma_coords(cap), lattice._full_coords(cap), lattice._pi_coords(cap))
    for coords, want in zip(got, loop_coords(cap)):
        assert [c.dtype for c in coords] == [np.dtype(np.intp)] * len(want)
        assert all(np.array_equal(c, w) for c, w in zip(coords, want))


def test_gamma_coords_match_the_divmod_construction():
    # each point's row i and column j in its shell, as k = i (n2 + 1) + j
    for cap in range(46):
        n2, k = lattice._shell_ranks(cap, lambda m: (m + 1) ** 2)
        i, j = np.divmod(k, n2 + 1)
        got = gamma_basis(cap).coords
        assert [c.dtype for c in got] == [np.dtype(np.intp)] * 3
        assert all(np.array_equal(c, w) for c, w in zip(got, (n2, 2 * i - n2, 2 * j - n2)))


@st.composite
def gamma_indices(draw, max_n2=40):
    n2 = draw(st.integers(min_value=0, max_value=max_n2))
    i2 = draw(st.integers(min_value=0, max_value=n2).map(lambda k: 2 * k - n2))
    j2 = draw(st.integers(min_value=0, max_value=n2).map(lambda k: 2 * k - n2))
    return GammaIndex(n2, i2, j2)


@settings(max_examples=200, deadline=None)
@given(gamma_indices())
def test_generated_gamma_points_valid(p):
    assert is_valid_gamma(*p)
    assert 0 <= p.n2 - max(p.i2, p.j2) <= 2 * p.n2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=12))
def test_basis_rank_bijection_property(cap):
    basis = full_basis(cap)
    assert len(basis) == sum((m + 1) ** 2 for m in range(cap + 1))
    ranks = [int(basis.rank(*p)) for p in basis_points(basis)]
    assert ranks == list(range(len(basis)))
