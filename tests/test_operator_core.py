"""Sparse operator algebra against dense numpy oracles."""

import numpy as np
import pytest

from qsu2.coefficients import EXACT_ZERO, float_mode
from qsu2.lattice import PiIndex, full_basis, nat_basis, pi_basis
from qsu2.operator_core import (
    SparseOperator,
    add,
    adjoint,
    block_norm,
    build_from_rule,
    compose,
    diagonal,
    identity,
    max_abs_entry_per_shell,
    max_entry_difference,
)
from qsu2.representations import build_pi

MODE = float_mode(0.5)


def random_sparse(rng, basis_dom, basis_cod, per_col=2):
    cols = []
    n_cod = len(basis_cod)
    for _ in range(len(basis_dom)):
        k = rng.integers(0, per_col + 1)
        rows = rng.choice(n_cod, size=min(k, n_cod), replace=False)
        cols.append([(int(i), float(rng.normal())) for i in rows])
    return SparseOperator(basis_dom, basis_cod, cols, MODE)


def shift_down(basis):
    """S on l2(N): e_k -> e_{k-1}."""
    return build_from_rule(basis, basis, lambda k: [(k - 1, 1.0)] if k >= 1 else [], MODE)


def test_build_identity_from_rule():
    basis = full_basis(2)
    eye = build_from_rule(basis, basis, lambda p: [(p, 1.0)], MODE)
    assert eye.shape == (14, 14)
    assert np.array_equal(eye.to_dense(), np.eye(14))


def test_shift_rule_edge_column_empty():
    basis = pi_basis(3)
    op = build_from_rule(
        basis, basis, lambda p: [(PiIndex(p.s - 1, p.t), 1.0)] if p.s >= 1 else [], MODE
    )
    for j, p in enumerate(basis.points):
        if p.s == 0:
            assert op.cols[j] == ()


def test_rule_invalid_target_errors():
    basis = pi_basis(2)
    with pytest.raises(ValueError, match="rule produced invalid index"):
        build_from_rule(basis, basis, lambda p: [(PiIndex(-1, p.t), 1.0)], MODE)


def test_out_of_cap_targets_dropped():
    basis = nat_basis(4)
    up = build_from_rule(basis, basis, lambda k: [(k + 1, 1.0)], MODE)
    assert up.cols[3] == ()  # boundary-truncation convention
    assert up.to_dense()[3, 2] == 1.0


def test_compose_add_adjoint_against_dense():
    rng = np.random.default_rng(7)
    b1, b2, b3 = nat_basis(7), nat_basis(9), nat_basis(6)
    a = random_sparse(rng, b2, b3)
    b = random_sparse(rng, b1, b2)
    np.testing.assert_allclose(compose(a, b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-15)
    c = random_sparse(rng, b2, b3)
    np.testing.assert_allclose(
        add(a, c, 2.0, -3.0).to_dense(), 2.0 * a.to_dense() - 3.0 * c.to_dense(), atol=1e-15
    )
    np.testing.assert_allclose(adjoint(a).to_dense(), a.to_dense().T, atol=0)


def test_adjoint_involution_and_product_rule():
    rng = np.random.default_rng(11)
    b1, b2, b3 = nat_basis(5), nat_basis(8), nat_basis(6)
    a = random_sparse(rng, b2, b3)
    b = random_sparse(rng, b1, b2)
    assert adjoint(adjoint(a)).cols == a.cols
    lhs = adjoint(compose(a, b)).to_dense()
    rhs = compose(adjoint(b), adjoint(a)).to_dense()
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_compose_associative():
    rng = np.random.default_rng(13)
    b = nat_basis(8)
    x, y, z = (random_sparse(rng, b, b) for _ in range(3))
    lhs = compose(compose(x, y), z).to_dense()
    rhs = compose(x, compose(y, z)).to_dense()
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_identity_neutral():
    rng = np.random.default_rng(17)
    b = nat_basis(10)
    a = random_sparse(rng, b, b)
    assert compose(identity(b, MODE), a).cols == a.cols
    assert compose(a, identity(b, MODE)).cols == a.cols


def test_dimension_and_mode_mismatch_errors():
    a = identity(nat_basis(4), MODE)
    b = identity(nat_basis(5), MODE)
    with pytest.raises(ValueError, match="dimension mismatch"):
        compose(a, b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        add(a, b)
    c = identity(nat_basis(4), EXACT_ZERO)
    with pytest.raises(ValueError, match="mode mismatch"):
        compose(a, c)


def test_shift_relations_on_nat_sections():
    # S S* = I and S* S = I - P0, interior check on ranks < dim - 1
    # (the outermost column is truncated by construction)
    basis = nat_basis(20)
    s = shift_down(basis)
    sstar = adjoint(s)
    eye = np.eye(20)
    np.testing.assert_allclose(compose(s, sstar).to_dense()[:, :19], eye[:, :19], atol=0)
    expected = eye.copy()
    expected[0, 0] = 0.0
    np.testing.assert_allclose(compose(sstar, s).to_dense()[:, :19], expected[:, :19], atol=0)


def all_columns(a):
    return [range(len(a.domain))]


def test_operator_norm_trivial_cases():
    eye = identity(full_basis(2), MODE)
    assert block_norm(eye, all_columns(eye)) == pytest.approx(1.0, abs=1e-12)
    b = nat_basis(3)
    d = SparseOperator(b, b, [[(0, 3.0)], [(1, 1.0)], [(2, 0.5)]], MODE)
    assert block_norm(d, all_columns(d)) == pytest.approx(3.0, abs=1e-10)
    zero = SparseOperator(b, b, [[] for _ in range(3)], MODE)
    assert block_norm(zero, all_columns(zero)) == 0.0


def test_operator_norm_against_dense_svd():
    rng = np.random.default_rng(23)
    b1, b2 = nat_basis(12), nat_basis(15)
    for _ in range(5):
        a = random_sparse(rng, b1, b2, per_col=3)
        if a.nnz == 0:
            continue
        dense = a.to_dense()
        oracle = np.linalg.svd(dense, compute_uv=False)[0]
        value = block_norm(a, all_columns(a))
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value <= np.linalg.norm(dense, "fro") * (1 + 1e-12)


def test_operator_norm_pi_beta_section():
    op = build_pi(0.5, 12, "beta")
    assert block_norm(op, all_columns(op)) == pytest.approx(1.0, abs=1e-9)


def test_block_norm_rejects_shared_rows_and_columns():
    b = nat_basis(3)
    a = SparseOperator(b, b, [[(0, 1.0)], [(0, 1.0), (1, 1.0)], [(2, 1.0)]], MODE)
    with pytest.raises(ValueError, match="share a row"):
        block_norm(a, [[0], [1], [2]])
    with pytest.raises(ValueError, match="share a column"):
        block_norm(a, [[0, 1], [1, 2]])


def test_max_abs_entry_per_shell():
    basis = full_basis(3)
    zero = SparseOperator(basis, basis, [[] for _ in basis.points], MODE)
    assert max_abs_entry_per_shell(zero) == [(m, 0.0) for m in range(4)]
    eye = identity(basis, MODE)
    assert max_abs_entry_per_shell(eye) == [(m, 1.0) for m in range(4)]


def test_max_entry_difference_witness():
    basis = nat_basis(3)
    a = diagonal(basis, lambda k: float(k), MODE)
    b = diagonal(basis, lambda k: float(k) + (0.5 if k == 2 else 0.0), MODE)
    worst, witness = max_entry_difference(a, b)
    assert worst == 0.5
    assert witness == (2, 2)
