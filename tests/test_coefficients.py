"""Scalar coefficient formulas, crystal limits, and the g estimates."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crystal_oracle as oracle
from support import basis_points, coefficient
from qsu2 import coefficients as cf
from qsu2.lattice import full_basis, gamma_basis, nat_basis, pi_basis
from qsu2.representations import build_pi

Q_GRID = (0.1, -0.1, 0.5, -0.5, 0.9)


def test_g_values():
    assert cf.g(0, 0.5) == 0.0
    # oracle: direct evaluation of the definition
    assert cf.g(1, 0.5) == pytest.approx(math.sqrt(0.75), abs=0)
    assert cf.g(1, 0.5) == pytest.approx(0.8660254037844386, abs=1e-15)
    assert cf.g(2, 0.5) == pytest.approx(math.sqrt(1 - 0.5**4), abs=0)


@pytest.mark.parametrize("q", [0.9999, 0.999999, 0.99999999])
def test_g_against_mpmath_near_one(q):
    mpmath.mp.dps = 50
    for k in range(201):
        exact = mpmath.sqrt(1 - mpmath.mpf(q) ** (2 * k))
        value = cf.g(k, q)
        if k == 0:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        else:
            assert abs(value - exact) <= 1e-15 * exact, (k, value)


@pytest.mark.parametrize("q", [0.5, -0.45, 0.9999, 0.999999])
def test_cg_arrays_against_mpmath(q):
    # the array evaluation on every Gamma point to cap 12 against the
    # formulas in 50-digit arithmetic; 0 exactly where the target is missing
    mpmath.mp.dps = 50
    qm = mpmath.mpf(q)

    def gm(k):
        return mpmath.sqrt(1 - qm ** (2 * k))

    steps = {"a_plus": (1, -1, -1), "a_minus": (-1, -1, -1), "b_plus": (1, 1, -1), "b_minus": (-1, 1, -1)}

    def exact(name, n2, i2, j2):
        dn, di, dj = steps[name]
        n, i, j = n2 + dn, i2 + di, j2 + dj
        if not (n >= 0 and abs(i) <= n and abs(j) <= n):
            return mpmath.mpf(0)  # the target point does not exist
        if name == "a_plus":
            return qm ** (n2 + (i2 + j2) // 2 + 1) * gm((n2 - j2) // 2 + 1) * gm((n2 - i2) // 2 + 1) / (
                gm(n2 + 1) * gm(n2 + 2))
        if name == "a_minus":
            return gm((n2 + j2) // 2) * gm((n2 + i2) // 2) / (gm(n2) * gm(n2 + 1))
        if name == "b_plus":
            return -qm ** ((n2 + j2) // 2) * gm((n2 - j2) // 2 + 1) * gm((n2 + i2) // 2 + 1) / (
                gm(n2 + 1) * gm(n2 + 2))
        return qm ** ((n2 + i2) // 2) * gm((n2 + j2) // 2) * gm((n2 - i2) // 2) / (gm(n2) * gm(n2 + 1))

    points = basis_points(gamma_basis(12))
    for name in ("a_plus", "a_minus", "b_plus", "b_minus"):
        step, values = getattr(cf, name)(gamma_basis(12), q)
        assert step == steps[name]
        for value, p in zip(values.tolist(), points):
            ref = exact(name, *p)
            if ref == 0:
                assert value == 0.0, (name, p)
            else:
                assert abs(value - ref) <= 1e-14 * abs(ref), (name, p, value)


def test_g_exact_zero_mode():
    # the definition sqrt(1 - 0^(2k)) with 0^0 = 1
    assert cf.g(0, 0.0) == 0.0
    assert all(cf.g(k, 0.0) == 1.0 for k in range(1, 50))
    with pytest.raises(ValueError, match="negative q-index"):
        cf.g(-1, 0.0)


def test_g_negative_index_errors():
    with pytest.raises(ValueError, match="negative q-index"):
        cf.g(-1, 0.5)


def test_g_monotone_increasing_to_one():
    # strictly increasing until float saturation at 1.0, then flat
    for q in (0.5, 0.9):
        prev = 0.0
        for k in range(1, 60):
            gk = cf.g(k, q)
            assert gk > prev or (gk == 1.0 and prev == 1.0)
            prev = gk
        assert 1.0 - q ** (2 * 59) <= prev <= 1.0


def test_t_parts():
    assert cf.t_parts(3) == (3, 0)
    assert cf.t_parts(-2) == (0, 2)
    assert cf.t_parts(0) == (0, 0)
    for t in range(-5, 6):
        tp, tm = cf.t_parts(t)
        assert t == tp - tm
        assert abs(t) == tp + tm


def test_coefficient_values_at_apex():
    # a_plus(0,0,0) = q g(1)/g(2); frozen against direct evaluation
    q = 0.5
    expect = q * math.sqrt(0.75) / math.sqrt(0.9375)
    assert coefficient(cf.a_plus, 0, 0, 0, q) == pytest.approx(expect, abs=1e-15)
    assert coefficient(cf.a_plus, 0, 0, 0, q) == pytest.approx(0.4472135954999579, abs=1e-12)
    assert coefficient(cf.b_plus, 0, 0, 0, q) == pytest.approx(-0.8944271909999159, abs=1e-12)
    # normalization at the apex
    total = coefficient(cf.a_plus, 0, 0, 0, q) ** 2 + coefficient(cf.b_plus, 0, 0, 0, q) ** 2
    assert total == pytest.approx(1.0, abs=1e-14)


def test_apex_normalization_on_q_grid():
    for q in Q_GRID:
        total = coefficient(cf.a_plus, 0, 0, 0, q) ** 2 + coefficient(cf.b_plus, 0, 0, 0, q) ** 2
        assert total == pytest.approx(1.0, abs=1e-14)


def test_validity_first_rule():
    # the n - 1/2 level does not exist at the apex: raw formulas would be 0/0
    assert coefficient(cf.a_minus, 0, 0, 0, 0.5) == 0.0
    assert coefficient(cf.b_minus, 0, 0, 0, 0.5) == 0.0
    # half-spin point (n,i,j) = (1/2, 1/2, 1/2): a_minus = g(1)/g(2)
    expect = math.sqrt(0.75) / math.sqrt(0.9375)
    assert coefficient(cf.a_minus, 1, 1, 1, 0.5) == pytest.approx(expect, abs=1e-15)
    assert coefficient(cf.a_minus, 1, 1, 1, 0.5) == pytest.approx(0.8944271909999159, abs=1e-12)


def test_non_gamma_basis_refused():
    # the terms read the Gamma coordinates of their basis, so no other lattice is taken
    for basis in (full_basis(3), pi_basis(3), nat_basis(4)):
        for term in (cf.a_plus, cf.a_minus, cf.b_plus, cf.b_minus):
            with pytest.raises(ValueError, match=f"take a Gamma basis, not {basis.label!r}"):
                term(basis, 0.5)


CRYSTAL_PAIRS = (
    (cf.a_plus, oracle.a_plus0),
    (cf.a_minus, oracle.a_minus0),
    (cf.b_plus, oracle.b_plus0),
    (cf.b_minus, oracle.b_minus0),
)


def test_crystal_limits_match_small_q():
    # float coefficients at q = 1e-4 against the hand-encoded crystal indicators
    q = 1e-4
    for n2, i2, j2 in basis_points(gamma_basis(6)):
        for term, indicator in CRYSTAL_PAIRS:
            assert abs(coefficient(term, n2, i2, j2, q) - indicator(n2, i2, j2)) < 1e-3


def test_crystal_limit_indicator_values():
    # the formulas at q = 0 are the indicators exactly: b_plus fires on the
    # face j = -n, b_minus on i = -n away from it
    assert coefficient(cf.b_plus, 0, 0, 0, 0.0) == oracle.b_plus0(0, 0, 0) == -1
    assert coefficient(cf.b_minus, 0, 0, 0, 0.0) == oracle.b_minus0(0, 0, 0) == 0
    assert coefficient(cf.b_minus, 2, -2, 0, 0.0) == oracle.b_minus0(2, -2, 0) == 1
    assert coefficient(cf.a_minus, 2, 0, 0, 0.0) == oracle.a_minus0(2, 0, 0) == 1
    assert coefficient(cf.a_minus, 2, -2, 0, 0.0) == oracle.a_minus0(2, -2, 0) == 0
    assert coefficient(cf.a_plus, 4, 2, -2, 0.0) == oracle.a_plus0(4, 2, -2) == 0
    for n2, i2, j2 in basis_points(gamma_basis(12)):
        for term, indicator in CRYSTAL_PAIRS:
            assert coefficient(term, n2, i2, j2, 0.0) == indicator(n2, i2, j2), (term, n2, i2, j2)


def test_mode_constructors():
    assert cf.float_mode(0.5) == 0.5
    # float_mode stays float-only; the builders take q = 0 as the exact mode
    with pytest.raises(ValueError):
        cf.float_mode(0.0)
    with pytest.raises(ValueError):
        cf.float_mode(1.0)
    assert build_pi(0.0, 2, "alpha").q == 0
    assert build_pi(0.5, 2, "alpha").q == 0.5
    with pytest.raises(ValueError):
        build_pi(1.0, 2, "alpha")


def test_g_estimates_frozen_rows():
    rep = cf.verify_g_estimates(0.5, 2)
    assert rep.k.tolist() == [1, 2]
    assert rep.pass1.all() and rep.pass2.all()
    assert rep.c == pytest.approx(1.1547005383792517, abs=1e-15)
    assert rep.lhs1[0] == pytest.approx(0.1339745962155614, abs=1e-12)
    assert rep.bound1[0] == 0.25
    assert rep.lhs2[0] == pytest.approx(0.1547005383792515, abs=1e-12)
    assert rep.bound2[0] == pytest.approx(0.2886751345948129, abs=1e-12)
    assert rep.lhs1[1] == pytest.approx(0.0317541634481457, abs=1e-12)
    assert rep.bound1[1] == 0.0625


def test_g_estimates_pass_deep():
    # at q = 0.4, q^(2k) underflows to 0 from k = 407 on
    for q in (0.4, 0.5, 0.9):
        rep = cf.verify_g_estimates(q, 500)
        assert len(rep.k) == 500 and rep.pass1.all() and rep.pass2.all()


def test_g_estimates_reject_q_zero():
    with pytest.raises(ValueError, match="q=0 has a dedicated exact mode"):
        cf.verify_g_estimates(0.0, 10)
    with pytest.raises(ValueError):
        cf.verify_g_estimates(0.5, 0)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=0.95),  # keeps q^(2k) clear of underflow
    st.integers(min_value=1, max_value=150),
)
def test_g_estimate_inequalities_property(q, k):
    gk = cf.g(k, q)
    assert gk > 0
    # cancellation-free forms of |1-g| and |1-1/g|
    lhs1 = q ** (2 * k) / (1 + gk)
    lhs2 = q ** (2 * k) / (gk * (1 + gk))
    assert lhs1 < q ** (2 * k)
    assert lhs2 < q ** (2 * k) / cf.g(1, q)
