"""Representation builders, defining relations, and crystal-limit behaviour."""

import math

import numpy as np
import pytest

import crystal_oracle as oracle
from qsu2.coefficients import EXACT_ZERO, float_mode
from qsu2.lattice import FullIndex, GammaIndex, PiIndex, gamma_basis, nat_basis
from qsu2.operator_core import adjoint, compose, diagonal, tensor
from qsu2.representations import (
    Generator,
    _section,
    build_ipi,
    build_irrep,
    build_lambda,
    build_pi,
    check_relations,
    coproduct_images,
)

Q_GRID = (0.1, -0.1, 0.5, -0.5, 0.9)


def column_by_rank(op, j):
    lo, hi = op.indptr[j], op.indptr[j + 1]
    return {op.codomain.point_of(i): v for i, v in zip(op.rows[lo:hi].tolist(), op.vals[lo:hi].tolist())}


def column_as_dict(op, point):
    return column_by_rank(op, int(op.domain.rank(*point)))


def same_entries(x, y):
    return (np.array_equal(x.indptr, y.indptr) and np.array_equal(x.rows, y.rows)
            and np.array_equal(x.vals, y.vals))


def test_lambda_alpha_apex_column():
    op = build_lambda(0.5, 4, "alpha")
    col = column_as_dict(op, GammaIndex(0, 0, 0))
    assert set(col) == {GammaIndex(1, -1, -1)}
    assert col[GammaIndex(1, -1, -1)] == pytest.approx(0.4472135954999579, abs=1e-12)


def test_lambda_beta_apex_column():
    op = build_lambda(0.5, 4, "beta")
    col = column_as_dict(op, GammaIndex(0, 0, 0))
    assert set(col) == {GammaIndex(1, 1, -1)}
    assert col[GammaIndex(1, 1, -1)] == pytest.approx(-0.8944271909999159, abs=1e-12)


def test_lambda_boundary_column_only_lowering_term():
    cap = 4
    op = build_lambda(0.5, cap, "alpha")
    for p in gamma_basis(cap).points:
        if p.n2 == cap and p.i2 > -p.n2 and p.j2 > -p.n2:
            col = column_as_dict(op, p)
            assert set(col) == {GammaIndex(p.n2 - 1, p.i2 - 1, p.j2 - 1)}


def test_lambda_q_zero_selects_exact_mode():
    for gen in Generator:
        assert build_lambda(0.0, 4, gen).mode == EXACT_ZERO
    with pytest.raises(ValueError, match=r"\|q\| < 1"):
        build_lambda(1.0, 4, "alpha")


def test_crystal_section_refuses_non_integer_values():
    basis = gamma_basis(2)
    with pytest.raises(ValueError, match="non-integer crystal coefficient 0.5"):
        _section(basis, lambda n2, i2, j2: [((n2, i2, j2), 0.5 * (n2 == 1))], 0.0)
    op = _section(basis, lambda n2, i2, j2: [((n2, i2, j2), -1.0 * (n2 == 1))], 0.0)
    assert op.mode == EXACT_ZERO and op.vals.dtype == np.int64 and op.vals.tolist() == [-1] * 4


def test_lambda_shell_grading():
    for gen in Generator:
        op = build_lambda(0.5, 5, gen)
        for i, j, _ in op.entries():
            dn = op.codomain.points[i].n2 - op.domain.points[j].n2
            assert abs(dn) == 1


def test_pi_actions():
    op = build_ipi(0.5, 7, "alpha")
    col = column_as_dict(op, FullIndex(2, 3, -1))
    assert set(col) == {FullIndex(2, 2, -1)}
    assert col[FullIndex(2, 2, -1)] == pytest.approx(0.9921567416492215, abs=1e-12)

    pa = build_pi(0.5, 5, "alpha")
    for t in (-2, 0, 1):
        assert column_as_dict(pa, PiIndex(0, t)) == {}

    pb = build_pi(0.5, 5, "beta")
    col = column_as_dict(pb, PiIndex(0, 0))
    assert col == {PiIndex(0, -1): 1.0}


def test_pi_shell_grading():
    pa = build_pi(0.5, 6, "alpha")
    for i, j, _ in pa.entries():
        assert pa.domain.points[j].s - pa.codomain.points[i].s == 1
    pb = build_pi(0.5, 6, "beta")
    for i, j, _ in pb.entries():
        src, dst = pb.domain.points[j], pb.codomain.points[i]
        assert abs((dst.s + abs(dst.t)) - (src.s + abs(src.t))) == 1


def test_operator_norm_pi_beta_section():
    op = build_pi(0.5, 12, "beta")
    assert np.linalg.norm(op.to_dense(), 2) == pytest.approx(1.0, abs=1e-9)


def test_star_compatibility():
    for q in (0.5, -0.5):
        lam_star = build_lambda(q, 4, "alpha_star")
        assert same_entries(lam_star, adjoint(build_lambda(q, 4, "alpha")))
        pi_star = build_pi(q, 4, "beta_star")
        assert same_entries(pi_star, adjoint(build_pi(q, 4, "beta")))


@pytest.mark.parametrize("gen", [g.value for g in Generator])
@pytest.mark.parametrize(
    "build, action",
    [(build_lambda, oracle.lambda0_action), (build_pi, oracle.pi0_action), (build_ipi, oracle.ipi0_action)],
    ids=["lambda", "pi", "ipi"],
)
def test_crystal_builders_match_hand_encoding(build, action, gen):
    op = build(0.0, 10, gen)
    expected = oracle.columns(action, gen, op.domain.points)
    for j, p in enumerate(op.domain.points):
        col = column_by_rank(op, j)
        assert col == expected[p], p
        assert all(type(v) is int for v in col.values()), p


def test_crystal_generators_apex():
    lam_b0 = build_lambda(0.0, 4, "beta")
    col = column_as_dict(lam_b0, GammaIndex(0, 0, 0))
    assert col == {GammaIndex(1, 1, -1): -1}

    lam_a0 = build_lambda(0.0, 4, "alpha")
    assert column_as_dict(lam_a0, GammaIndex(0, 0, 0)) == {}

    pi_b0 = build_pi(0.0, 4, "beta")
    assert column_as_dict(pi_b0, PiIndex(1, 0)) == {}
    assert column_as_dict(pi_b0, PiIndex(0, 2)) == {PiIndex(0, 1): 1}


def test_crystal_beta_branch_priority():
    # at the corner i = j = -n the face branch j = -n applies
    op = build_lambda(0.0, 4, "beta")
    col = column_as_dict(op, GammaIndex(2, -2, -2))
    assert col == {GammaIndex(3, -1, -3): -1}


def test_crystal_entries_are_signs():
    for gen in Generator:
        for op in (build_lambda(0.0, 5, gen), build_pi(0.0, 5, gen), build_ipi(0.0, 5, gen)):
            assert op.mode.exact
            for _, _, v in op.entries():
                assert v in (-1, 1)
            assert np.diff(op.indptr).max() <= 1


def test_crystal_partial_isometries():
    # exact composition: A adjoint(A) A = A entrywise
    for gen in ("alpha", "beta"):
        for build in (build_lambda, build_pi):
            a = build(0.0, 5, gen)
            assert same_entries(compose(compose(a, adjoint(a)), a), a)


def test_relations_lambda_and_pi_float():
    # the near-1 values need the cancellation-free g(k)
    for q in Q_GRID + (0.9999, 0.999999, 0.99999999):
        lam = {gv: build_lambda(q, 8, gv) for gv in Generator}
        rep = check_relations(lam)
        assert rep.max_residual < 1e-12, (q, rep.rows)
        pi = {gv: build_pi(q, 8, gv) for gv in Generator}
        rep = check_relations(pi)
        assert rep.max_residual < 1e-12, (q, rep.rows)


def test_relations_exact_zero():
    for build in (build_lambda, build_pi):
        ops = {gv: build(0.0, 6, gv) for gv in Generator}
        rep = check_relations(ops)
        assert rep.exact
        assert rep.max_residual == 0.0


def test_relations_report_nan_residual():
    ops = {gv: build_pi(0.5, 6, gv) for gv in (Generator.ALPHA, Generator.BETA)}
    beta = ops[Generator.BETA]
    j = int(beta.domain.rank(*PiIndex(1, 0)))
    vals = beta.vals.copy()
    vals[beta.indptr[j]:beta.indptr[j + 1]] = math.nan
    ops[Generator.BETA] = type(beta)(beta.domain, beta.codomain, beta.entry_cols(), beta.rows, vals,
                                     beta.mode)
    rep = check_relations(ops)
    assert math.isnan(rep.max_residual)
    assert not rep.max_residual < 1e-12
    bad = [row for row in rep.rows if math.isnan(row.residual)]
    assert bad and all(row.witness is not None for row in bad)


def test_relations_witness_tie_goes_to_lower_rank():
    # alpha = 0 and beta diagonal: a*a+b*b-I has column norm |d_k^2 - 1|,
    # equal (0.75) at the interior columns 2 and 4 and 0 elsewhere
    basis, mode = nat_basis(8), float_mode(0.5)
    d = np.ones(8)
    d[[2, 4]] = [0.5, -0.5]
    rep = check_relations({"alpha": diagonal(basis, np.zeros(8), mode),
                           "beta": diagonal(basis, d, mode)})
    assert (rep.rows[0].name, rep.rows[0].residual, rep.rows[0].witness) == ("a*a+b*b-I", 0.75, 2)


def test_relations_need_interior():
    ops = {gv: build_lambda(0.0, 1, gv) for gv in Generator}
    with pytest.raises(ValueError, match="no interior"):
        check_relations(ops)


def test_irrep_examples():
    alpha, beta = build_irrep(0.5, 1.0, 8)
    assert beta.to_dense()[:, 0].tolist() == [1.0] + [0.0] * 7  # beta e0 = e0 at z=1
    assert not alpha.to_dense()[:, 0].any()  # alpha e0 = 0

    alpha, beta = build_irrep(0.5, 1j, 8)
    out = beta.to_dense()[:, 2]
    assert out[2] == pytest.approx(0.25j, abs=1e-15)
    assert not out[[0, 1, 3, 4, 5, 6, 7]].any()


def test_irrep_relations_over_circle():
    for theta in (0.0, 0.7, 2.1, -1.3):
        z = complex(math.cos(theta), math.sin(theta))
        alpha, beta = build_irrep(0.5, z, 20)
        rep = check_relations({"alpha": alpha, "beta": beta})
        assert rep.max_residual < 1e-12


def test_irrep_rejects_off_circle_z():
    with pytest.raises(ValueError, match="unit circle"):
        build_irrep(0.5, 1.1, 8)
    with pytest.raises(ValueError, match="unit circle"):
        build_irrep(0.5, complex(math.nan, 0.0), 8)
    with pytest.raises(ValueError):
        build_irrep(0.0, 1.0, 8)


def test_coproduct_bottom_column():
    q = 0.5
    d_alpha, _ = coproduct_images(q, 4)
    basis = d_alpha.domain
    bottom = int(basis.rank(*PiIndex(0, 0), *PiIndex(0, 0)))
    col = column_by_rank(d_alpha, bottom)
    # only -q beta* (x) beta survives at the bottom
    assert col == {(PiIndex(0, 1), PiIndex(0, -1)): pytest.approx(-q, abs=1e-15)}


def test_coproduct_relations():
    d_alpha, d_beta = coproduct_images(0.5, 8)
    rep = check_relations({"alpha": d_alpha, "beta": d_beta})
    assert rep.max_residual < 1e-12


def test_coproduct_crystal_limit():
    q = 1e-4
    d_alpha, _ = coproduct_images(q, 4)
    a0 = build_pi(0.0, 4, "alpha")
    basis = d_alpha.domain
    crystal = tensor(a0, a0, basis, basis)
    assert np.abs(d_alpha.to_dense() - crystal.to_dense()).max() < 1e-3


def test_crystal_limit_distance_linear_in_q():
    ratios = []
    for q in (1e-1, 1e-2, 1e-3, 1e-4):
        for gen in ("alpha", "beta"):
            dist = np.abs(build_lambda(q, 4, gen).to_dense()
                          - build_lambda(0.0, 4, gen).to_dense()).max()
            assert dist <= 3 * q
            ratios.append(dist / q)
    assert max(ratios) / min(ratios) <= 2.0
