"""Sparse operator algebra against dense numpy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import basis_points, entries, product, to_dense
from qsu2.coefficients import EXACT_ZERO, float_mode
from qsu2.lattice import full_basis, nat_basis, pi_basis
from qsu2.operator_core import (
    SparseOperator,
    add,
    adjoint,
    build_from_rule,
    compose,
    diagonal,
    max_abs_entry_per_shell,
    max_entry_difference,
    tensor,
)
from qsu2.representations import build_irrep, build_lambda

MODE = float_mode(0.5)


def from_columns(basis_dom, basis_cod, cols, mode=MODE):
    """Operator from a list of columns, each a list of (row, value)."""
    triplets = [(j, i, v) for j, col in enumerate(cols) for i, v in col]
    c, r, v = zip(*triplets) if triplets else ((), (), ())
    return SparseOperator(basis_dom, basis_cod, list(c), list(r), list(v), mode)


def column(op, j):
    lo, hi = op.indptr[j], op.indptr[j + 1]
    return list(zip(op.rows[lo:hi].tolist(), op.vals[lo:hi].tolist()))


def same_entries(x, y):
    return (np.array_equal(x.indptr, y.indptr) and np.array_equal(x.rows, y.rows)
            and np.array_equal(x.vals, y.vals))


def eye(basis, mode=MODE):
    """The identity on a basis."""
    return diagonal(basis, np.ones(len(basis), dtype=np.int64), mode)


def random_sparse(rng, basis_dom, basis_cod, per_col=2):
    cols = []
    n_cod = len(basis_cod)
    for _ in range(len(basis_dom)):
        k = rng.integers(0, per_col + 1)
        rows = rng.choice(n_cod, size=min(k, n_cod), replace=False)
        cols.append([(int(i), float(rng.normal())) for i in rows])
    return from_columns(basis_dom, basis_cod, cols)


def shift_down(basis):
    """S on l2(N): e_k -> e_{k-1}."""
    return build_from_rule(basis, basis, lambda k: [((k - 1,), (k >= 1) * 1.0)], MODE)


def test_build_identity_from_rule():
    basis = full_basis(2)
    eye = build_from_rule(basis, basis, lambda r, s, t: [((r, s, t), 1.0)], MODE)
    assert eye.shape == (14, 14)
    assert np.array_equal(to_dense(eye), np.eye(14))


def test_shift_rule_edge_column_empty():
    basis = pi_basis(3)
    op = build_from_rule(basis, basis, lambda s, t: [((s - 1, t), (s >= 1) * 1.0)], MODE)
    for j, p in enumerate(basis_points(basis)):
        if p.s == 0:
            assert column(op, j) == []


def test_rule_invalid_target_errors():
    basis = pi_basis(2)
    with pytest.raises(ValueError, match=r"rule produced invalid index: PiIndex\(s=-1, t=0\)"):
        build_from_rule(basis, basis, lambda s, t: [((s * 0 - 1, t), 1.0)], MODE)


def test_out_of_cap_targets_dropped():
    basis = nat_basis(4)
    up = build_from_rule(basis, basis, lambda k: [((k + 1,), 1.0)], MODE)
    assert column(up, 3) == []  # boundary-truncation convention
    assert to_dense(up)[3, 2] == 1.0


def test_rule_terms_sum_in_order_and_drop_zeros():
    basis = nat_basis(3)
    op = build_from_rule(basis, basis, lambda k: [((k,), 1.0), ((k,), -1.0), ((0 * k,), 0.5 * k)], MODE)
    assert [column(op, j) for j in range(3)] == [[], [(0, 0.5)], [(0, 1.0)]]


def test_compose_add_adjoint_against_dense():
    rng = np.random.default_rng(7)
    b1, b2, b3 = nat_basis(7), nat_basis(9), nat_basis(6)
    a = random_sparse(rng, b2, b3)
    b = random_sparse(rng, b1, b2)
    np.testing.assert_allclose(to_dense(product(a, b)), to_dense(a) @ to_dense(b), atol=1e-15)
    c = random_sparse(rng, b2, b3)
    np.testing.assert_allclose(
        to_dense(add((2.0, a), (-3.0, c))), 2.0 * to_dense(a) - 3.0 * to_dense(c), atol=1e-15
    )
    np.testing.assert_allclose(to_dense(adjoint(a)), to_dense(a).T, atol=0)


def test_adjoint_involution_and_product_rule():
    rng = np.random.default_rng(11)
    b1, b2, b3 = nat_basis(5), nat_basis(8), nat_basis(6)
    a = random_sparse(rng, b2, b3)
    b = random_sparse(rng, b1, b2)
    assert same_entries(adjoint(adjoint(a)), a)
    lhs = to_dense(adjoint(product(a, b)))
    rhs = to_dense(product(adjoint(b), adjoint(a)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_compose_associative():
    rng = np.random.default_rng(13)
    b = nat_basis(8)
    x, y, z = (random_sparse(rng, b, b) for _ in range(3))
    lhs = to_dense(product(product(x, y), z))
    rhs = to_dense(product(x, product(y, z)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_identity_neutral():
    rng = np.random.default_rng(17)
    b = nat_basis(10)
    a = random_sparse(rng, b, b)
    assert same_entries(product(eye(b), a), a)
    assert same_entries(product(a, eye(b)), a)


def _compose_pairs():
    """(a, b) pairs in the float (lambda), complex (irrep) and exact (q = 0) modes."""
    lam = [build_lambda(0.47, 6, g) for g in ("alpha", "beta")]
    lam += [adjoint(op) for op in lam]
    irrep = build_irrep(-0.45, complex(0.6, 0.8), 9)
    lam0 = [build_lambda(0.0, 6, g) for g in ("alpha", "beta")]
    lam0 += [adjoint(op) for op in lam0]
    return {
        "float": [(lam[2], lam[0]), (lam[0], lam[3]), (lam[1], lam[0])],
        "complex": [(adjoint(irrep[1]), irrep[1]), (irrep[0], adjoint(irrep[1]))],
        "exact": [(lam0[2], lam0[0]), (lam0[0], lam0[3]), (lam0[1], lam0[0])],
    }


@pytest.mark.parametrize("mode", ["float", "complex", "exact"])
def test_compose_columns_keep_the_full_product_bits(mode):
    rng = np.random.default_rng(5)
    for a, b in _compose_pairs()[mode]:
        full = product(a, b)
        n, cap = len(b.domain), b.domain.cap
        for columns in (np.arange(n), np.flatnonzero(b.domain.shells <= cap - 2),
                        np.sort(rng.choice(n, n // 3, replace=False)), [n - 1], []):
            part = compose(a, b, columns)
            kept = np.zeros(n, dtype=bool)
            kept[np.asarray(columns, dtype=np.intp)] = True
            assert not np.diff(part.indptr)[~kept].any()
            mask = kept[full.entry_cols()]
            assert np.array_equal(part.entry_cols(), full.entry_cols()[mask])
            assert np.array_equal(part.rows, full.rows[mask])
            assert part.vals.dtype == full.vals.dtype
            assert part.vals.tobytes() == full.vals[mask].tobytes()


@pytest.mark.parametrize("columns", [[2, 1], [1, 1], [-1, 2], [0, 6], [[0, 1]]],
                         ids=["unsorted", "duplicate", "negative", "past-end", "2-d"])
def test_compose_columns_must_be_ascending_domain_ranks(columns):
    a = eye(nat_basis(6))
    with pytest.raises(ValueError, match="strictly ascending"):
        compose(a, a, columns)


def test_dimension_and_mode_mismatch_errors():
    a = eye(nat_basis(4))
    b = eye(nat_basis(5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        product(a, b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        add((1, a), (1, b))
    c = eye(nat_basis(4), EXACT_ZERO)
    with pytest.raises(ValueError, match="mode mismatch"):
        product(a, c)


def test_shift_relations_on_nat_sections():
    # S S* = I and S* S = I - P0, interior check on ranks < dim - 1
    # (the outermost column is truncated by construction)
    basis = nat_basis(20)
    s = shift_down(basis)
    sstar = adjoint(s)
    eye = np.eye(20)
    np.testing.assert_allclose(to_dense(product(s, sstar))[:, :19], eye[:, :19], atol=0)
    expected = eye.copy()
    expected[0, 0] = 0.0
    np.testing.assert_allclose(to_dense(product(sstar, s))[:, :19], expected[:, :19], atol=0)


def test_max_abs_entry_per_shell():
    basis = full_basis(3)
    zero = from_columns(basis, basis, [[] for _ in range(len(basis))])
    assert max_abs_entry_per_shell(zero) == [(m, 0.0) for m in range(4)]
    assert max_abs_entry_per_shell(eye(basis)) == [(m, 1.0) for m in range(4)]


def test_max_entry_difference_witness():
    basis = nat_basis(3)
    a = diagonal(basis, np.arange(3.0), MODE)
    b = diagonal(basis, np.arange(3.0) + [0.0, 0.0, 0.5], MODE)
    worst, witness = max_entry_difference(a, b, np.arange(3))
    assert worst == 0.5
    assert witness == (2, 2)


def test_max_entry_difference_tie_goes_to_first_in_rank_order():
    # equal deviations: the witness is the first in (column, row) rank order
    basis = nat_basis(10)
    zero = from_columns(basis, basis, [[]] * 10)
    a = from_columns(basis, basis, [[(9, 1.0), (2, -1.0)]] + [[]] * 9)
    everywhere = np.arange(10)
    assert max_entry_difference(a, zero, everywhere) == (1.0, (2, 0))
    b = from_columns(basis, basis, [[]] * 3 + [[(5, 2.0)]] + [[]] * 3 + [[(1, -2.0)]] + [[]] * 2)
    assert max_entry_difference(b, zero, everywhere) == (2.0, (5, 3))
    assert max_entry_difference(b, zero, columns=[7, 3]) == (2.0, (5, 3))
    assert max_entry_difference(b, zero, columns=[7]) == (2.0, (1, 7))


def test_comparisons_let_nan_win():
    basis = full_basis(2)
    values = np.ones(len(basis))
    values[[2, 5]] = [np.nan, 7.0]
    op = diagonal(basis, values, MODE)
    shells = dict(max_abs_entry_per_shell(op))
    assert np.isnan(shells[basis.shells[2]]) and shells[basis.shells[5]] == 7.0
    worst, witness = max_entry_difference(op, eye(basis), np.arange(len(basis)))
    assert np.isnan(worst)
    assert witness == (basis.point_of(2), basis.point_of(2))
    assert max_entry_difference(op, eye(basis), columns=[5]) == (
        6.0, (basis.point_of(5), basis.point_of(5)))


def test_constructor_canonicalises_entries():
    basis = nat_basis(3)
    op = SparseOperator(basis, basis, [2, 0, 2, 0, 1], [1, 2, 1, 0, 1], [1.0, 2.0, -1.0, 3.0, 0.0], MODE)
    assert op.indptr.tolist() == [0, 2, 2, 2]
    assert op.rows.tolist() == [0, 2]
    assert op.vals.tolist() == [3.0, 2.0]
    with pytest.raises(ValueError, match="outside the operator shape"):
        SparseOperator(basis, basis, [3], [0], [1.0], MODE)


def test_repeated_positions_sum_in_occurrence_order():
    # float addition is not associative: summed from 0 one term at a time,
    # 1 + 1e16 rounds back to 1e16, so the first order cancels to nothing
    # and the second keeps the trailing 1.0
    basis = nat_basis(2)
    lost = SparseOperator(basis, basis, [1, 1, 1], [0, 0, 0], [1.0, 1e16, -1e16], MODE)
    assert lost.nnz == 0 and lost.indptr.tolist() == [0, 0, 0]
    kept = SparseOperator(basis, basis, [1, 1, 1], [0, 0, 0], [1e16, -1e16, 1.0], MODE)
    assert column(kept, 1) == [(0, 1.0)]


def test_exact_mode_refuses_int64_overflow():
    basis = nat_basis(2)
    with pytest.raises(OverflowError):
        SparseOperator(basis, basis, [0], [0], [2**63], EXACT_ZERO)
    with pytest.raises(OverflowError):
        SparseOperator(basis, basis, [0], [0], [2**70], EXACT_ZERO)
    with pytest.raises(TypeError):
        SparseOperator(basis, basis, [0], [0], [1.5], EXACT_ZERO)
    big = SparseOperator(basis, basis, [0, 1], [0, 0], [2**31, 2**31], EXACT_ZERO)
    with pytest.raises(OverflowError, match="compose"):
        product(big, big)
    half = diagonal(basis, [2**61, 1], EXACT_ZERO)
    with pytest.raises(OverflowError, match="add"):
        add((1, half), (1, half))
    with pytest.raises(OverflowError, match="tensor"):
        tensor(big, big, nat_basis(4), nat_basis(4))
    with pytest.raises(OverflowError, match="sum"):
        SparseOperator(basis, basis, [0, 0], [0, 0], [2**61, 2**61], EXACT_ZERO)
    ok = product(diagonal(basis, [2**30, 1], EXACT_ZERO), diagonal(basis, [2**30, 1], EXACT_ZERO))
    assert column(ok, 0) == [(0, 2**60)]


def bits(op):
    return [(a.dtype, a.tobytes()) for a in (op.indptr, op.rows, op.vals)]


@pytest.mark.parametrize("kind", ["float", "complex", "exact"])
def test_n_term_add_matches_nested_adds_bitwise(kind):
    basis = nat_basis(4)
    mode = EXACT_ZERO if kind == "exact" else MODE
    scale = {"float": 0.1, "complex": 0.1 + 0.05j, "exact": 1}[kind]

    def op(cols):
        return from_columns(basis, basis, [[(i, v * scale) for i, v in col] for col in cols], mode)

    # column 0 cancels to exactly 0 after two terms, column 2 sums three
    # terms, and column 3 holds a NaN term (outside the exact mode)
    nan = 5 if kind == "exact" else float("nan")
    x = op([[(0, 1)], [(1, 2)], [(2, 1)], [(3, nan)]])
    y = op([[(0, 1)], [], [(2, 2)], [(3, 1)]])
    z = op([[(0, 3), (1, 7)], [(1, 4)], [(2, 3)], []])
    w = (2, -2, 3) if kind == "exact" else (1.5, -1.5, 0.7)
    got = add((w[0], x), (w[1], y), (w[2], z))
    nested = add((1, add((w[0], x), (w[1], y))), (w[2], z))
    assert bits(got) == bits(nested)
    assert column(got, 0) == column(add((w[2], z)), 0)  # the cancelled pair leaves z alone
    if kind != "exact":
        assert np.isnan(got.vals[got.indptr[3]])
    assert add((1, x)) is x


def test_n_term_add_overflow_guard_sums_every_term():
    basis = nat_basis(2)
    quarter = diagonal(basis, [2**60, 1], EXACT_ZERO)
    assert column(add((1, quarter), (1, quarter), (1, quarter)), 0) == [(0, 3 * 2**60)]
    with pytest.raises(OverflowError, match="add"):
        add((1, quarter), (1, quarter), (2, quarter))  # 4 * 2**60 = 2**62


# Dyadic entries keep every product and sum exact, so the dense oracle is
# compared for equality in all three modes.
_DYADIC = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
_SCALARS = {
    "float": _DYADIC,
    "complex": st.builds(complex, _DYADIC, _DYADIC),
    "exact": st.integers(min_value=-3, max_value=3),
}


@st.composite
def operators(draw, kind, n_dom, n_cod):
    """A random operator and its dense oracle, with repeated positions and zeros."""
    triplets = draw(st.lists(
        st.tuples(st.integers(0, n_dom - 1), st.integers(0, n_cod - 1), _SCALARS[kind]),
        max_size=3 * max(n_dom, n_cod)))
    mode = EXACT_ZERO if kind == "exact" else MODE
    cols, rows, vals = zip(*triplets) if triplets else ((), (), ())
    op = SparseOperator(nat_basis(n_dom), nat_basis(n_cod), list(cols), list(rows), list(vals), mode)
    dense = np.zeros((n_cod, n_dom), dtype=complex if kind == "complex" else float)
    for j, i, v in triplets:
        dense[i, j] += v
    return op, dense


def check_canonical(op):
    for j in range(len(op.domain)):
        rows = op.rows[op.indptr[j]:op.indptr[j + 1]]
        assert np.all(np.diff(rows) > 0)
    assert np.all(op.vals != 0)
    if op.mode.exact:
        assert op.vals.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_SCALARS)), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5))
def test_algebra_against_dense_property(data, kind, n1, n2, n3):
    a, da = data.draw(operators(kind, n2, n3))
    b, db = data.draw(operators(kind, n1, n2))
    c, dc = data.draw(operators(kind, n2, n3))
    w = 2 if kind == "exact" else -1.5
    for op, dense in ((a, da), (product(a, b), da @ db), (add((w, a), (1, c)), w * da + dc),
                      (adjoint(a), da.conj().T),
                      (tensor(a, b, nat_basis(n2 * n1), nat_basis(n3 * n2)), np.kron(da, db))):
        check_canonical(op)
        assert np.array_equal(to_dense(op), dense)
        assert all(dense[i, j] == v for i, j, v in entries(op))
