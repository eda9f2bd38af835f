"""Sparse operator algebra against dense numpy oracles."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import basis_points, column, diagonal, entries, entry_bits, product, to_dense
from qsu2.coefficients import EXACT_ZERO, float_mode
from qsu2.lattice import full_basis, nat_basis, pi_basis
from qsu2.operator_core import (
    SparseOperator,
    Term,
    add,
    adjoint,
    build_from_rule,
    column_max_abs,
    compose,
    max_entry_difference,
    tensor,
    worst_column,
)
from qsu2.representations import build_irrep, build_lambda

MODE = float_mode(0.5)


def eye(basis, mode=MODE):
    """The identity on a basis."""
    return diagonal(basis, np.ones(len(basis), dtype=np.int64), mode)


def random_shifts(rng, basis_dom, basis_cod, n_terms=3):
    """Random weighted shifts on l2(N) sections, repeated shifts and zeros
    included; nothing is emitted below e_0."""
    k, n = basis_dom.coords[0], len(basis_dom)
    terms = []
    for _ in range(n_terms):
        d = int(rng.integers(-3, 4))
        terms.append(((d,), np.where(k + d >= 0, rng.normal(size=n) * (rng.random(n) < 0.6), 0)))
    return build_from_rule(basis_dom, basis_cod, lambda k: terms, MODE)


def shift_down(basis):
    """S on l2(N): e_k -> e_{k-1}."""
    return build_from_rule(basis, basis, lambda k: [((-1,), (k >= 1) * 1.0)], MODE)


def test_build_identity_from_rule():
    basis = full_basis(2)
    eye = build_from_rule(basis, basis, lambda r, s, t: [((0, 0, 0), 1.0)], MODE)
    assert eye.shape == (14, 14)
    assert np.array_equal(to_dense(eye), np.eye(14))


def test_shift_rule_edge_column_empty():
    basis = pi_basis(3)
    op = build_from_rule(basis, basis, lambda s, t: [((-1, 0), (s >= 1) * 1.0)], MODE)
    for j, p in enumerate(basis_points(basis)):
        if p.s == 0:
            assert column(op, j) == []


def test_rule_invalid_target_errors():
    basis = pi_basis(2)
    with pytest.raises(ValueError, match=r"rule produced invalid index: PiIndex\(s=-1, t=0\)"):
        build_from_rule(basis, basis, lambda s, t: [((-1, 0), 1.0)], MODE)
    for shift in ((-1,), (-1, 0, 0)):  # one entry per coordinate, no more, no less
        with pytest.raises(ValueError):
            build_from_rule(basis, basis, lambda s, t: [(shift, 1.0)], MODE)


def test_rule_refuses_nonzero_values_off_the_lattice_alone():
    # the shift (-1, 0) leaves the lattice from every column with s = 0:
    # a nonzero value there raises and names the target and its column,
    # a zero value there is not stored and not checked
    basis = pi_basis(2)
    with pytest.raises(ValueError, match=re.escape(
            "rule produced invalid index: PiIndex(s=-1, t=1) from PiIndex(s=0, t=1)")):
        build_from_rule(basis, basis, lambda s, t: [((-1, 0), (t == 1) * 1.0)], MODE)
    op = build_from_rule(basis, basis, lambda s, t: [((-1, 0), (s >= 1) * 1.0)], MODE)
    assert [j for _, j, _ in entries(op)] == np.flatnonzero(basis.coords[0] >= 1).tolist()


def test_out_of_cap_targets_dropped():
    basis = nat_basis(4)
    up = build_from_rule(basis, basis, lambda k: [((1,), 1.0)], MODE)
    assert column(up, 3) == []  # boundary-truncation convention
    assert to_dense(up)[3, 2] == 1.0


def test_rule_terms_sum_in_order_and_drop_zeros():
    basis = nat_basis(3)
    # the last three terms put 0.5 * k in row 0: shift -j, nonzero at column j alone
    op = build_from_rule(basis, basis, lambda k: [((0,), 1.0), ((0,), -1.0)] + [
        ((-j,), 0.5 * k * (k == j)) for j in range(3)], MODE)
    assert [column(op, j) for j in range(3)] == [[], [(0, 0.5)], [(0, 1.0)]]


def test_compose_add_adjoint_against_dense():
    rng = np.random.default_rng(7)
    b1, b2, b3 = nat_basis(7), nat_basis(9), nat_basis(6)
    a = random_shifts(rng, b2, b3)
    b = random_shifts(rng, b1, b2)
    np.testing.assert_allclose(to_dense(product(a, b)), to_dense(a) @ to_dense(b), atol=1e-15)
    c = random_shifts(rng, b2, b3)
    np.testing.assert_allclose(
        to_dense(add((2.0, a), (-3.0, c))), 2.0 * to_dense(a) - 3.0 * to_dense(c), atol=1e-15
    )
    np.testing.assert_allclose(to_dense(adjoint(a)), to_dense(a).T, atol=0)


def test_adjoint_involution_and_product_rule():
    rng = np.random.default_rng(11)
    b1, b2, b3 = nat_basis(5), nat_basis(8), nat_basis(6)
    a = random_shifts(rng, b2, b3)
    b = random_shifts(rng, b1, b2)
    assert entry_bits(adjoint(adjoint(a))) == entry_bits(a)
    lhs = to_dense(adjoint(product(a, b)))
    rhs = to_dense(product(adjoint(b), adjoint(a)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_compose_associative():
    rng = np.random.default_rng(13)
    b = nat_basis(8)
    x, y, z = (random_shifts(rng, b, b) for _ in range(3))
    lhs = to_dense(product(product(x, y), z))
    rhs = to_dense(product(x, product(y, z)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_identity_neutral():
    rng = np.random.default_rng(17)
    b = nat_basis(10)
    a = random_shifts(rng, b, b)
    assert entry_bits(product(eye(b), a)) == entry_bits(a)
    assert entry_bits(product(a, eye(b))) == entry_bits(a)


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
            assert part.dtype == full.dtype
            assert entry_bits(part) == [e for e in entry_bits(full) if kept[e[1]]]


def test_compose_leaves_no_entry_where_a_factor_has_none():
    # b's NaN in column 2 meets no entry of a (its shift leaves the
    # truncation there), and column 1 is not formed: neither holds an entry
    basis = nat_basis(3)
    up = build_from_rule(basis, basis, lambda k: [((1,), 1.0)], MODE)
    b = diagonal(basis, [1.0, np.nan, np.nan], MODE)
    assert entries(compose(up, b, [0, 2])) == [(1, 0, 1.0)]


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


def test_column_max_abs():
    basis = full_basis(3)
    zero = build_from_rule(basis, basis, lambda *p: [], MODE)
    assert column_max_abs(zero).tolist() == [0.0] * len(basis)
    assert column_max_abs(eye(basis)).tolist() == [1.0] * len(basis)
    two = build_from_rule(nat_basis(3), nat_basis(3), lambda k: [((0,), [1.0, -3.0, 0.0]),
                                                              ((-1,), [0.0, 2.0, -0.5])], MODE)
    assert column_max_abs(two).tolist() == [1.0, 3.0, 0.5]


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
    zero = build_from_rule(basis, basis, lambda *p: [], MODE)
    at = np.eye(10)  # at[j]: 1 in column j alone
    a = build_from_rule(basis, basis, lambda k: [((9,), at[0]), ((2,), -at[0])], MODE)
    everywhere = np.arange(10)
    assert max_entry_difference(a, zero, everywhere) == (1.0, (2, 0))
    b = build_from_rule(basis, basis, lambda k: [((2,), 2.0 * at[3]), ((-6,), -2.0 * at[7])], MODE)
    assert max_entry_difference(b, zero, everywhere) == (2.0, (5, 3))
    assert max_entry_difference(b, zero, columns=[7, 3]) == (2.0, (5, 3))
    assert max_entry_difference(b, zero, columns=[7]) == (2.0, (1, 7))


def test_worst_column_sums_rows_in_ascending_rank():
    # squares 1, x, x in rows 0, 1, 2 with x = 25 * 2**-58 below half an ulp
    # of 1: summed rows ascending, 1 + x rounds back to 1 twice; from row 2
    # down, x + x + 1 would round up to 1 + 2**-52.  The rule lists the rows
    # 2, 1, 0, so only the sort by row gives 1.0
    basis = nat_basis(3)
    small = 5 * 2.0**-29
    op = build_from_rule(basis, basis, lambda k: [((2,), [small, 0, 0]), ((1,), [small, 0, 0]),
                                                  ((0,), [1.0, 0, 0])], MODE)
    assert worst_column(op) == (1.0, 0)


def test_comparisons_let_nan_win():
    basis = full_basis(2)
    values = np.ones(len(basis))
    values[[2, 5]] = [np.nan, 7.0]
    op = diagonal(basis, values, MODE)
    columns = column_max_abs(op)
    assert np.isnan(columns[2]) and columns[5] == 7.0
    worst, witness = max_entry_difference(op, eye(basis), np.arange(len(basis)))
    assert np.isnan(worst)
    assert witness == (basis.point_of(2), basis.point_of(2))
    assert max_entry_difference(op, eye(basis), columns=[5]) == (
        6.0, (basis.point_of(5), basis.point_of(5)))


def test_constructor_canonicalises_entries():
    # rule terms (column, row, value) (2, 1, 1.0), (0, 2, 2.0), (2, 1, -1.0),
    # (0, 0, 3.0), (1, 1, 0.0): the repeated shift cancels and the zero is
    # not stored
    basis = nat_basis(3)
    op = build_from_rule(basis, basis, lambda k: [
        ((-1,), [0, 0, 1.0]), ((2,), [2.0, 0, 0]), ((-1,), [0, 0, -1.0]), ((0,), [3.0, 0, 0]),
        ((0,), [0, 0.0, 0])], MODE)
    assert entries(op) == [(0, 0, 3.0), (2, 0, 2.0)]
    assert op.nnz == 2 and op.dtype == np.float64
    assert all(v.dtype == np.float64 for _, _, v in entries(op))
    with pytest.raises(ValueError, match="one entry per domain point"):
        SparseOperator(basis, basis, [Term((0,), np.arange(3), np.ones(4))], MODE)


def test_repeated_positions_sum_in_occurrence_order():
    # float addition is not associative: summed from 0 one term at a time,
    # 1 + 1e16 rounds back to 1e16, so the first order cancels to nothing
    # and the second keeps the trailing 1.0
    # (three rule terms on the one shift e_1 -> e_0)
    basis = nat_basis(2)
    lost = build_from_rule(basis, basis, lambda k: [((-1,), [0, v]) for v in (1.0, 1e16, -1e16)],
                           MODE)
    assert lost.nnz == 0 and column(lost, 0) == column(lost, 1) == []
    kept = build_from_rule(basis, basis, lambda k: [((-1,), [0, v]) for v in (1e16, -1e16, 1.0)],
                           MODE)
    assert column(kept, 1) == [(0, 1.0)]


def test_exact_mode_refuses_int64_overflow():
    basis = nat_basis(2)

    def at_row_0(*values):  # rule terms: column j's value lands in row 0, shift -j
        return build_from_rule(basis, basis, lambda k: [((-j,), [0] * j + [v] + [0] * (1 - j))
                                                         for j, v in enumerate(values)], EXACT_ZERO)

    one = nat_basis(1)
    for value, error, match in ((2**63, OverflowError, None), (2**70, OverflowError, None),
                                (1.5, ValueError, "got 1.5"), (np.nan, ValueError, "got nan"),
                                (np.inf, ValueError, "got inf"), (2.0**63, ValueError, "got 9.2"),
                                (Fraction(3, 2), ValueError, re.escape("got Fraction(3, 2)"))):
        with pytest.raises(error, match=match):
            build_from_rule(one, one, lambda k: [((0,), value)], EXACT_ZERO)
    big = at_row_0(2**31, 2**31)
    with pytest.raises(OverflowError, match="compose"):
        product(big, big)
    half = diagonal(basis, [2**61, 1], EXACT_ZERO)
    with pytest.raises(OverflowError, match="add"):
        add((1, half), (1, half))
    with pytest.raises(OverflowError, match="tensor"):
        tensor(big, big, nat_basis(4), nat_basis(4))
    with pytest.raises(OverflowError, match="sum"):  # two rule terms on one shift
        build_from_rule(basis, basis, lambda k: [((0,), [2**61, 0]), ((0,), [2**61, 0])],
                        EXACT_ZERO)
    # a term with no entry does not count toward the sum guard
    lone = build_from_rule(basis, basis, lambda k: [((0,), [2**61, 0]), ((0,), 0)], EXACT_ZERO)
    assert column(lone, 0) == [(0, 2**61)]
    ok = product(diagonal(basis, [2**30, 1], EXACT_ZERO), diagonal(basis, [2**30, 1], EXACT_ZERO))
    assert column(ok, 0) == [(0, 2**60)]


@pytest.mark.parametrize("kind", ["float", "complex", "exact"])
def test_n_term_add_matches_nested_adds_bitwise(kind):
    basis = nat_basis(4)
    mode = EXACT_ZERO if kind == "exact" else MODE
    scale = {"float": 0.1, "complex": 0.1 + 0.05j, "exact": 1}[kind]

    def op(diag, below=(0, 0, 0, 0)):  # a diagonal, and the shift e_j -> e_{j+1}
        return build_from_rule(basis, basis, lambda k: [((0,), [v * scale for v in diag]),
                                                        ((1,), [v * scale for v in below])], mode)

    # column 0 cancels to exactly 0 after two terms, column 2 sums three
    # terms, and column 3 holds a NaN term (outside the exact mode)
    nan = 5 if kind == "exact" else float("nan")
    x = op([1, 2, 1, nan])
    y = op([1, 0, 2, 1])
    z = op([3, 4, 3, 0], [7, 0, 0, 0])
    w = (2, -2, 3) if kind == "exact" else (1.5, -1.5, 0.7)
    got = add((w[0], x), (w[1], y), (w[2], z))
    nested = add((1, add((w[0], x), (w[1], y))), (w[2], z))
    assert entry_bits(got) == entry_bits(nested)
    assert column(got, 0) == column(add((w[2], z)), 0)  # the cancelled pair leaves z alone
    if kind != "exact":
        assert np.isnan(column(got, 3)[0][1])
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


def _basis(lattice, size):
    """nat_basis(size), or the pi_basis whose cap is size - 1."""
    return nat_basis(size) if lattice == "nat" else pi_basis(size - 1)


@st.composite
def operators(draw, kind, lattice, n_dom, n_cod):
    """A random sum of weighted shifts and its dense oracle: shifts may
    repeat, values may be 0, and targets may leave the truncation."""
    dom, cod = _basis(lattice, n_dom), _basis(lattice, n_cod)
    ndim, n = len(dom.coords), len(dom)
    drawn = draw(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * ndim),
                                    st.lists(_SCALARS[kind], min_size=n, max_size=n)),
                          max_size=4))
    # a rule emits no value at a target off the lattice
    terms = [(shift, np.where(cod.valid(*(c + d for c, d in zip(dom.coords, shift))), values, 0))
             for shift, values in drawn]
    mode = EXACT_ZERO if kind == "exact" else MODE
    op = build_from_rule(dom, cod, lambda *p: terms, mode)
    dense = np.zeros((len(cod), n), dtype=complex if kind == "complex" else float)
    for shift, values in terms:
        for j in range(n):
            target = tuple(int(c[j]) + d for c, d in zip(dom.coords, shift))
            if cod.valid(*target) and cod.rank(*target) >= 0:
                dense[cod.rank(*target), j] += values[j]
    return op, dense


def check_canonical(op):
    """Distinct positions in (column, row) rank order, no zero, int64 when exact."""
    found = entries(op)
    positions = [(j, i) for i, j, _ in found]
    assert positions == sorted(set(positions))
    assert all(v != 0 for _, _, v in found)
    if op.mode.exact:
        assert op.dtype == np.int64 and all(v.dtype == np.int64 for _, _, v in found)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_SCALARS)), st.sampled_from(["nat", "pi"]),
       st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_algebra_against_dense_property(data, kind, lattice, n1, n2, n3):
    a, da = data.draw(operators(kind, lattice, n2, n3))
    b, db = data.draw(operators(kind, lattice, n1, n2))
    c, dc = data.draw(operators(kind, lattice, n2, n3))
    w = 2 if kind == "exact" else -1.5
    size = len(a.domain), len(a.codomain), len(b.domain)
    for op, dense in ((a, da), (product(a, b), da @ db), (add((w, a), (1, c)), w * da + dc),
                      (adjoint(a), da.conj().T),
                      (tensor(a, b, nat_basis(size[0] * size[2]), nat_basis(size[1] * size[0])),
                       np.kron(da, db))):
        check_canonical(op)
        assert np.array_equal(to_dense(op), dense)
        assert all(dense[i, j] == v for i, j, v in entries(op))
