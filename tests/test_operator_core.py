"""Sparse operator algebra against dense numpy oracles."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (basis_points, column, diagonal, entries, entry_bits, int_dense, least_int_dtype,
                     product, to_dense)
from qsu2 import operator_core
from qsu2.coefficients import float_mode
from qsu2.equivalence import closed_form, difference, unitary_u
from qsu2.lattice import full_basis, gamma_basis, nat_basis, pi_basis, pi_tensor_basis
from qsu2.operator_core import (
    SparseOperator,
    Term,
    add,
    adjoint,
    build_from_rule,
    column_max_abs,
    compose,
    conjugate,
    max_entry_difference,
    tensor,
    worst_column,
)
from qsu2.representations import build_ipi, build_irrep, build_lambda, build_pi

MODE = float_mode(0.5)


def eye(basis, mode=MODE):
    """The identity on a basis."""
    return diagonal(basis, np.ones(len(basis), dtype=np.int64), mode)


def random_shifts(rng, basis_dom, basis_cod, n_terms=3):
    """Random weighted shifts on l2(N) sections, distinct shifts, zeros
    included; nothing is emitted below e_0."""
    k, n = basis_dom.coords[0], len(basis_dom)
    terms = []
    for d in (rng.permutation(7)[:n_terms] - 3).tolist():
        terms.append(((d,), np.where(k + d >= 0, rng.normal(size=n) * (rng.random(n) < 0.6), 0)))
    return build_from_rule(basis_dom, basis_cod, terms, MODE)


def shift_down(basis):
    """S on l2(N): e_k -> e_{k-1}."""
    return build_from_rule(basis, basis, [((-1,), (basis.coords[0] >= 1) * 1.0)], MODE)


def test_build_identity_from_rule():
    basis = full_basis(2)
    eye = build_from_rule(basis, basis, [((0, 0, 0), np.ones(len(basis)))], MODE)
    assert eye.shape == (14, 14)
    assert np.array_equal(to_dense(eye), np.eye(14))


def test_shift_rule_edge_column_empty():
    basis = pi_basis(3)
    op = build_from_rule(basis, basis, [((-1, 0), (basis.coords[0] >= 1) * 1.0)], MODE)
    for j, p in enumerate(basis_points(basis)):
        if p.s == 0:
            assert column(op, j) == []


def test_rule_invalid_target_errors():
    basis = pi_basis(2)
    with pytest.raises(ValueError, match=r"rule produced invalid index: PiIndex\(s=-1, t=0\)"):
        build_from_rule(basis, basis, [((-1, 0), np.ones(len(basis)))], MODE)
    for shift in ((-1,), (-1, 0, 0)):  # one entry per coordinate, no more, no less
        with pytest.raises(ValueError):
            build_from_rule(basis, basis, [(shift, np.ones(len(basis)))], MODE)


def test_rule_refuses_nonzero_values_off_the_lattice_alone():
    # the shift (-1, 0) leaves the lattice from every column with s = 0:
    # a nonzero value there raises and names the target and its column,
    # a zero value there is not stored and not checked
    basis = pi_basis(2)
    s, t = basis.coords
    with pytest.raises(ValueError, match=re.escape(
            "rule produced invalid index: PiIndex(s=-1, t=1) from PiIndex(s=0, t=1)")):
        build_from_rule(basis, basis, [((-1, 0), (t == 1) * 1.0)], MODE)
    op = build_from_rule(basis, basis, [((-1, 0), (s >= 1) * 1.0)], MODE)
    assert [j for _, j, _ in entries(op)] == np.flatnonzero(basis.coords[0] >= 1).tolist()


def test_rule_refuses_values_not_one_per_domain_point():
    # a Python float, a 0-d array and an array one entry short are not
    # broadcast: each is refused, in both modes, naming its term's shift
    basis = nat_basis(3)
    for mode in (MODE, 0.0):
        for shift, values in (((1,), 1.0), ((-1,), np.array(2.0)), ((2,), np.ones(2))):
            with pytest.raises(ValueError, match=re.escape(
                    f"rule term {shift!r} holds values of shape {np.shape(values)}, not (3,)")):
                build_from_rule(basis, basis, [((0,), np.ones(3)), (shift, values)], mode)


def test_out_of_cap_targets_dropped():
    basis = nat_basis(4)
    up = build_from_rule(basis, basis, [((1,), np.ones(4))], MODE)
    assert column(up, 3) == []  # boundary-truncation convention
    assert to_dense(up)[3, 2] == 1.0


def test_rule_refuses_a_repeated_shift_and_drops_zeros():
    basis = nat_basis(3)
    # a rule names each shift once, even where the second holds only zeros
    with pytest.raises(ValueError, match=re.escape("rule names the shift (0,) twice")):
        build_from_rule(basis, basis, [((0,), np.ones(3)), ((1,), np.ones(3)),
                                       ((0,), np.zeros(3))], MODE)
    # the three terms put 0.5 * k in row 0: shift -j, nonzero at column j alone
    k = basis.coords[0]
    op = build_from_rule(basis, basis, [((-j,), 0.5 * k * (k == j)) for j in range(3)], MODE)
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
        third = np.zeros(n, dtype=bool)
        third[rng.choice(n, n // 3, replace=False)] = True
        for kept in (np.ones(n, dtype=bool), b.domain.shells <= cap - 2, third,
                     np.arange(n) == n - 1, np.zeros(n, dtype=bool)):
            part = compose(a, b, kept)
            # an exact dtype is the least signed type holding the bound; a float
            # operator left with no term has its mode's own dtype
            assert part.dtype == (least_int_dtype(part.bound) if a.q == 0
                                  else full.dtype if part.terms else np.float64)
            assert entry_bits(part) == [e for e in entry_bits(full) if kept[e[1]]]


def reference_compose(a, b, columns):
    """compose with every pair's piece held in a list: a's terms padded with
    an entry-less end at rank -1, each (b term, a term) product one piece,
    then the pieces of each shift summed one at a time, a new array a step."""
    a_ends = [(np.append(t.targets, -1), np.append(t.values, 0)) for t in a.terms]
    pieces = []
    for tb in b.terms:
        mid = np.where(columns, tb.targets, -1)
        for ta, (targets, values) in zip(a.terms, a_ends):
            targets = targets[mid]
            pieces.append(Term(tuple(x + y for x, y in zip(ta.shift, tb.shift)), targets,
                               np.where(targets >= 0, values[mid] * tb.values, 0)))
    sums: dict = {}
    for p in pieces:
        q = sums.get(p.shift)
        sums[p.shift] = p if q is None else Term(
            p.shift, np.maximum(q.targets, p.targets), q.values + p.values)
    return SparseOperator(b.domain, a.codomain, list(sums.values()), a.q)


def _term_bytes(op) -> list:
    """Shift, target bytes, value dtype and value bytes of every term, in term order."""
    return [(t.shift, t.targets.tobytes(), t.values.dtype, t.values.tobytes()) for t in op.terms]


def _planted(op, rng):
    """A copy of a float operator with inf, -inf, NaN and -0.0 on some of its
    entries, and inf at a column one of its terms leaves empty (target -1)."""
    terms = []
    for t in op.terms:
        values = t.values.copy()
        kept = np.flatnonzero(t.targets >= 0)
        marks = [np.inf, -np.inf, np.nan, -0.0][:kept.size]
        values[rng.choice(kept, len(marks), replace=False)] = marks
        empty = np.flatnonzero(t.targets < 0)
        if empty.size:
            values[empty[0]] = np.inf
        terms.append(Term(t.shift, t.targets, values))
    return SparseOperator(op.domain, op.codomain, terms, op.q)


@pytest.mark.parametrize("mode", ["float", "complex", "exact", "mixed", "planted"])
def test_compose_matches_the_piece_list_sum(mode):
    # each pair's product is summed into its shift's term as it is formed:
    # the same shifts, targets, values and dtypes in the same term order as
    # the piece list gives, the same floating-point warnings, and the
    # operands' arrays unwritten.  The irrep pair is real alpha by complex
    # beta; inf and NaN make every inf * 0 and inf - inf show.
    rng = np.random.default_rng(29)
    pairs = _compose_pairs()
    irrep = build_irrep(-0.45, complex(0.6, 0.8), 9)
    pairs["mixed"] = [irrep, irrep[::-1], (adjoint(irrep[1]), irrep[0])]
    pairs["planted"] = [(_planted(a, rng), _planted(b, rng))
                        for a, b in pairs["float"] + pairs["complex"] + pairs["mixed"]]
    nans = 0
    for a, b in pairs[mode]:
        n, cap = len(b.domain), b.domain.cap
        operands = [_term_bytes(a), _term_bytes(b)]
        for kept in (np.ones(n, dtype=bool), b.domain.shells <= cap - 2, rng.random(n) < 0.4,
                     np.zeros(n, dtype=bool)):
            with warnings.catch_warnings(record=True) as want:
                warnings.simplefilter("always")
                expected = reference_compose(a, b, kept)
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                formed = compose(a, b, kept)
            assert formed.dtype == expected.dtype
            assert _term_bytes(formed) == _term_bytes(expected)
            assert sorted(str(w.message) for w in got) == sorted(str(w.message) for w in want)
            assert [_term_bytes(a), _term_bytes(b)] == operands
            nans += sum(int(np.isnan(t.values).sum()) for t in formed.terms)
    assert (nans > 0) == (mode == "planted")


def test_compose_leaves_no_entry_where_a_factor_has_none():
    # b's NaN in column 2 meets no entry of a (its shift leaves the
    # truncation there), and column 1 is not formed: neither holds an entry
    basis = nat_basis(3)
    up = build_from_rule(basis, basis, [((1,), np.ones(3))], MODE)
    b = diagonal(basis, [1.0, np.nan, np.nan], MODE)
    assert entries(compose(up, b, [True, False, True])) == [(1, 0, 1.0)]


@pytest.mark.parametrize("columns", [np.arange(6), np.ones(5, dtype=bool),
                                     np.ones((1, 6), dtype=bool), np.ones(6)],
                         ids=["int-ranks", "one-short", "2-d", "float"])
@pytest.mark.parametrize("fn", [compose, max_entry_difference])
def test_columns_must_be_a_boolean_mask(fn, columns):
    # an int rank array of the domain's length is refused too: np.where
    # would read its nonzero ranks as True
    a = eye(nat_basis(6))
    with pytest.raises(ValueError, match="columns must be a boolean mask over the domain"):
        fn(a, a, columns)


def test_dimension_and_mode_mismatch_errors():
    a = eye(nat_basis(4))
    b = eye(nat_basis(5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        product(a, b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        add((1, a), (1, b))
    c = eye(nat_basis(4), 0.0)
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
    zero = build_from_rule(basis, basis, [], MODE)
    assert column_max_abs(zero).tolist() == [0.0] * len(basis)
    assert column_max_abs(eye(basis)).tolist() == [1.0] * len(basis)
    two = build_from_rule(nat_basis(3), nat_basis(3), [((0,), [1.0, -3.0, 0.0]),
                                                       ((-1,), [0.0, 2.0, -0.5])], MODE)
    assert column_max_abs(two).tolist() == [1.0, 3.0, 0.5]


def test_max_entry_difference_witness():
    basis = nat_basis(3)
    a = diagonal(basis, np.arange(3.0), MODE)
    b = diagonal(basis, np.arange(3.0) + [0.0, 0.0, 0.5], MODE)
    worst, witness = max_entry_difference(a, b, np.ones(3, dtype=bool))
    assert worst == 0.5
    assert witness == (2, 2)


def test_max_entry_difference_tie_goes_to_first_in_rank_order():
    # equal deviations: the witness is the first in (column, row) rank order
    basis = nat_basis(10)
    zero = build_from_rule(basis, basis, [], MODE)
    at = np.eye(10)  # at[j]: 1 in column j alone
    a = build_from_rule(basis, basis, [((9,), at[0]), ((2,), -at[0])], MODE)
    everywhere = np.ones(10, dtype=bool)
    assert max_entry_difference(a, zero, everywhere) == (1.0, (2, 0))
    b = build_from_rule(basis, basis, [((2,), 2.0 * at[3]), ((-6,), -2.0 * at[7])], MODE)
    assert max_entry_difference(b, zero, everywhere) == (2.0, (5, 3))
    assert max_entry_difference(b, zero, columns=np.isin(np.arange(10), [7, 3])) == (2.0, (5, 3))
    assert max_entry_difference(b, zero, columns=np.arange(10) == 7) == (2.0, (1, 7))


def test_worst_column_sums_in_term_order():
    # squares x, x, 1 in rows 2, 1, 0 of column 0, with x = 25 * 2**-58
    # below half an ulp of 1.  The rule lists the rows 2, 1, 0, so the terms
    # come in that order and the sum runs x + x + 1: 2x lies above half an
    # ulp, so it rounds up to 1 + 2**-52 (rows ascending, 1 + x would round
    # back to 1 twice)
    basis = nat_basis(3)
    small = 5 * 2.0**-29
    op = build_from_rule(basis, basis, [((2,), [small, 0, 0]), ((1,), [small, 0, 0]),
                                        ((0,), [1.0, 0, 0])], MODE)
    assert worst_column(op) == (1 + 2**-52, 0)


def test_worst_column_empty_nan_ties_and_exact():
    basis = nat_basis(4)
    for q in (MODE, 0.0):  # no term at all
        assert worst_column(build_from_rule(basis, basis, [], q)) == (0.0, None)
    # equal norms 9 + 16 and 16 + 9: the first column in rank order wins
    tie = build_from_rule(basis, basis, [((0,), [0, 3.0, 0, 4.0]),
                                         ((-1,), [0, 4.0, 0, 3.0])], MODE)
    assert worst_column(tie) == (25.0, 1)
    # the first NaN column wins over the larger finite column of an earlier term
    nan = build_from_rule(basis, basis, [((0,), [9.0, 0, 0, 0]),
                                         ((-1,), [0, 0, np.nan, np.nan])], MODE)
    worst, j = worst_column(nan)
    assert np.isnan(worst) and j == 2
    exact = build_from_rule(basis, basis, [((0,), [0, 2, 0, 0]),
                                           ((-1,), [0, -1, 0, 0])], 0.0)
    worst, j = worst_column(exact)
    assert (worst, j) == (5, 1) and type(worst) is int
    # the bound is the largest |entry| squared times the number of terms
    below = build_from_rule(basis, basis, [((0,), [2**31 - 1, 0, 0, 0])], 0.0)
    assert worst_column(below) == ((2**31 - 1) ** 2, 0)
    at_limit = build_from_rule(basis, basis, [((0,), [2**31, 0, 0, 0])], 0.0)
    two_terms = build_from_rule(basis, basis, [((0,), [2**31 - 1, 0, 0, 0]),
                                               ((1,), [1, 0, 0, 0])], 0.0)
    for op in (at_limit, two_terms):
        with pytest.raises(OverflowError, match="exact column norm could overflow int64"):
            worst_column(op)


def test_comparisons_let_nan_win():
    basis = full_basis(2)
    values = np.ones(len(basis))
    values[[2, 5]] = [np.nan, 7.0]
    op = diagonal(basis, values, MODE)
    columns = column_max_abs(op)
    assert np.isnan(columns[2]) and columns[5] == 7.0
    worst, witness = max_entry_difference(op, eye(basis), np.ones(len(basis), dtype=bool))
    assert np.isnan(worst)
    assert witness == (basis.point_of(2), basis.point_of(2))
    assert max_entry_difference(op, eye(basis), columns=np.arange(len(basis)) == 5) == (
        6.0, (basis.point_of(5), basis.point_of(5)))


def test_constructor_canonicalises_entries():
    # rule terms (column, row, value) (2, 1, 0.0), (0, 2, 2.0), (0, 0, 3.0),
    # (1, 1, 0.0): the zeros are not stored
    basis = nat_basis(3)
    op = build_from_rule(basis, basis, [
        ((-1,), [0, 0, 0.0]), ((2,), [2.0, 0, 0]), ((0,), [3.0, 0.0, 0])], MODE)
    assert entries(op) == [(0, 0, 3.0), (2, 0, 2.0)]
    assert op.nnz == 2 and op.dtype == np.float64
    assert all(v.dtype == np.float64 for _, _, v in entries(op))
    with pytest.raises(ValueError, match="one entry per domain point"):
        SparseOperator(basis, basis, [Term((0,), np.arange(3), np.ones(4))], MODE)


def test_dropped_terms_take_no_part_in_the_dtype():
    # an all-zero complex term is dropped and leaves the float term's dtype
    basis = nat_basis(3)
    op = SparseOperator(basis, basis, [Term((0,), np.arange(3), np.ones(3)),
                                       Term((1,), np.arange(3), np.zeros(3, complex))], MODE)
    assert op.dtype == np.float64 and [t.shift for t in op.terms] == [(0,)]
    assert op.terms[0].values.dtype == np.float64
    # so does a rule term whose one value targets e_3, outside the truncation
    k = basis.coords[0]
    dropped = build_from_rule(basis, basis, [
        ((0,), np.ones(3)), ((1,), np.where(k == 2, 1j, 0))], MODE)
    assert dropped.dtype == np.float64 and entries(dropped) == entries(op)
    # a kept complex term makes sums and tensors with a real operator complex
    c = build_from_rule(basis, basis, [((1,), np.where(k < 2, 1j, 0))], MODE)
    wide = nat_basis(9)
    for mixed, dense in ((add((1, op), (1, c)), to_dense(op) + to_dense(c)),
                         (tensor(op, c, wide, wide), np.kron(to_dense(op), to_dense(c))),
                         (tensor(c, op, wide, wide), np.kron(to_dense(c), to_dense(op)))):
        assert mixed.dtype == np.complex128 and np.array_equal(to_dense(mixed), dense)


def test_repeated_positions_sum_in_occurrence_order():
    # float addition is not associative: summed from 0 one term at a time,
    # 1 + 1e16 rounds back to 1e16, so the first order cancels to nothing
    # and the second keeps the trailing 1.0
    # (a three-term add of operators on the one shift e_1 -> e_0)
    basis = nat_basis(2)

    def down(v):
        return build_from_rule(basis, basis, [((-1,), [0, v])], MODE)

    lost = add(*((1, down(v)) for v in (1.0, 1e16, -1e16)))
    assert lost.nnz == 0 and column(lost, 0) == column(lost, 1) == []
    kept = add(*((1, down(v)) for v in (1e16, -1e16, 1.0)))
    assert column(kept, 1) == [(0, 1.0)]


def _summed(pieces) -> list[Term]:
    """One term per shift, its pieces summed one at a time in the order
    given, a new array at each step: the constructor's sum, out of place."""
    out: dict = {}
    for p in pieces:
        q = out.get(p.shift)
        out[p.shift] = p if q is None else Term(
            p.shift, np.maximum(q.targets, p.targets), q.values + p.values)
    return list(out.values())


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sum_cases():
    """(q, pieces, whether the sum of shift (0,) runs in its first piece) per case."""
    rng = np.random.default_rng(35)
    n = 7
    rows = [np.where(rng.random(n) < 0.7, rng.permutation(n), -1) for _ in range(4)]
    vals = [np.where(r >= 0, rng.normal(size=n), 0.0) for r in rows]
    inplace = [Term((0,), r.copy(), v.copy()) for r, v in zip(rows[:3], vals[:3])]
    frozen = [Term((0,), *_read_only(rows[0].copy(), vals[0].copy())),
              Term((0,), rows[1].copy(), vals[1].copy()), Term((1,), rows[3].copy(), vals[3].copy()),
              Term((0,), rows[2].copy(), vals[2].copy())]
    mixed = [Term((0,), rows[0].copy(), vals[0].copy()),
             Term((0,), rows[1].copy(), vals[1] * (1 + 1j)), Term((0,), rows[2].copy(), vals[2].copy())]
    # summed: NaN from inf - inf, NaN, -0.0, 0.0, inf, 0.0, 0.0
    marks = [[np.inf, np.nan, -0.0, 1.0, np.inf, -0.0, 0.0],
             [-np.inf, 1.0, -0.0, -1.0, np.inf, 0.0, -0.0], [1.0, 1.0, -0.0, -0.0, 1.0, -0.0, -0.0]]
    planted = [Term((0,), np.arange(n), np.array(m)) for m in marks]
    exact = [Term((0,), rows[0].copy(), np.sign(vals[0]).astype(np.int8)),
             Term((0,), rows[1].copy(), (200 * np.sign(vals[1])).astype(np.int16)),
             Term((0,), rows[2].copy(), np.sign(vals[2]).astype(np.int8))]
    return {"in-place": (MODE, inplace, True), "read-only-first": (MODE, frozen, False),
            "float-then-complex": (MODE, mixed, False), "planted": (MODE, planted, True),
            "exact-widening": (0.0, exact, False)}


@pytest.mark.parametrize("case", list(_sum_cases()))
def test_constructor_sum_matches_the_out_of_place_sum(case):
    # the pieces of one shift are summed one at a time in the order given,
    # into the first piece only when it is writable and already of the
    # sum's dtype: the same shifts, targets, dtypes, value bytes and
    # warnings as a new array at each step, and no read-only array written
    q, pieces, inplace = _sum_cases()[case]
    basis = nat_basis(len(pieces[0].targets))
    handed = [a for p in pieces for a in p[1:]]
    frozen = [(a, a.tobytes()) for a in handed if not a.flags.writeable]
    floats = [(a, a.tobytes()) for a in handed if a.dtype.kind == "f"]
    copies = [Term(p.shift, p.targets.copy(), p.values.copy()) for p in pieces]
    targets_inplace = pieces[0].targets.flags.writeable
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        expected = SparseOperator(basis, basis, _summed(copies), q)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        formed = SparseOperator(basis, basis, pieces, q)
    assert formed.dtype == expected.dtype and formed.bound == expected.bound
    assert _term_bytes(formed) == _term_bytes(expected)
    assert sorted(str(w.message) for w in got) == sorted(str(w.message) for w in want)
    assert all(a.tobytes() == b for a, b in frozen)
    # the float pieces of a complex sum are never written
    if case == "float-then-complex":
        assert all(a.tobytes() == b for a, b in floats)
    term = next(t for t in formed.terms if t.shift == (0,))
    assert np.shares_memory(term.values, pieces[0].values) == inplace
    assert np.shares_memory(term.targets, pieces[0].targets) == targets_inplace
    if case == "planted":
        assert np.isnan(term.values).sum() == 2 and np.signbit(term.values[2])
        assert term.values[4] == np.inf


def _formed_operators():
    """name -> operator, from every builder and every operation."""
    a, b = build_lambda(0.5, 4, "alpha"), build_lambda(0.5, 4, "beta")
    p0 = build_pi(0.0, 3, "alpha")
    ops = {f"{build.__name__}/{q}/{gen}": build(q, 4, gen) for build in (build_lambda, build_pi, build_ipi)
           for q in (0.0, 0.5) for gen in ("alpha", "beta")}
    ops |= dict(zip(("irrep/alpha", "irrep/beta"), build_irrep(0.5, complex(0.6, 0.8), 6)))
    ops |= {"unitary_u": unitary_u(4), "compose": compose(a, b, np.ones(len(b.domain), dtype=bool)),
            "add": add((1, a), (-0.5, b), (1, adjoint(b))), "add/exact": add((1, p0), (1, p0)),
            "adjoint": adjoint(a), "conjugate": conjugate(a, unitary_u(4)),
            "conjugate/exact": conjugate(build_lambda(0.0, 4, "beta"), unitary_u(4)),
            "tensor": tensor(p0, adjoint(p0), pi_tensor_basis(3), pi_tensor_basis(3)),
            "difference": difference(0.5, 4, "beta"), "closed_form": closed_form(0.5, 4, "alpha")}
    return ops


def test_every_operator_holds_read_only_arrays():
    # numpy enforces that term arrays are never written after construction
    for name, op in _formed_operators().items():
        assert op.terms, name
        for t in op.terms:
            for arr in (t.targets, t.values):
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]


@pytest.mark.parametrize("value", [-1.0, 127.0, -128.0, 1000.0, 2.0**40])
def test_exact_rule_values_are_copied_in_the_least_type(monkeypatch, value):
    # an integral float rule array is cast to the least signed type of its
    # largest magnitude, so each term is formed narrow, not at int64
    formed = []
    term = operator_core._term

    def spy(shift, n, cols, rows, vals):
        formed.append(vals.dtype)
        return term(shift, n, cols, rows, vals)

    monkeypatch.setattr(operator_core, "_term", spy)
    basis = nat_basis(3)
    op = build_from_rule(basis, basis, [((0,), np.array([0.0, value, 1.0]))], 0.0)
    assert formed == [least_int_dtype(abs(int(value)))] and op.bound == abs(int(value))
    formed.clear()
    for build in (build_lambda, build_pi, build_ipi):
        for gen in ("alpha", "beta"):
            build(0.0, 6, gen)
    assert set(formed) == {np.dtype(np.int8)}


def test_exact_mode_refuses_int64_overflow():
    basis = nat_basis(2)

    def at_row_0(*values):  # rule terms: column j's value lands in row 0, shift -j
        return build_from_rule(basis, basis, [((-j,), [0] * j + [v] + [0] * (1 - j))
                                              for j, v in enumerate(values)], 0.0)

    one = nat_basis(1)
    for value, match in ((2**63, "got 9223372036854775808"), (2**70, "got 1180591620717411303424"),
                         (1.5, "got 1.5"), (np.nan, "got nan"), (np.inf, "got inf"),
                         (2.0**63, "got 9.2"), (Fraction(3, 2), re.escape("got Fraction(3, 2)"))):
        with pytest.raises(ValueError, match="exact-mode entries must be int64 integers, " + match):
            build_from_rule(one, one, [((0,), [value])], 0.0)
    big = at_row_0(2**31, 2**31)
    with pytest.raises(OverflowError, match="compose"):
        product(big, big)
    half = diagonal(basis, [2**61, 1], 0.0)
    with pytest.raises(OverflowError, match="add"):
        add((1, half), (1, half))
    with pytest.raises(OverflowError, match="tensor"):
        tensor(big, big, nat_basis(4), nat_basis(4))
    ok = product(diagonal(basis, [2**30, 1], 0.0), diagonal(basis, [2**30, 1], 0.0))
    assert column(ok, 0) == [(0, 2**60)]


@pytest.mark.parametrize("kind", ["float", "complex", "exact"])
def test_n_term_add_matches_nested_adds_bitwise(kind):
    basis = nat_basis(4)
    mode = 0.0 if kind == "exact" else MODE
    scale = {"float": 0.1, "complex": 0.1 + 0.05j, "exact": 1}[kind]

    def op(diag, below=(0, 0, 0, 0)):  # a diagonal, and the shift e_j -> e_{j+1}
        return build_from_rule(basis, basis, [((0,), [v * scale for v in diag]),
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
    quarter = diagonal(basis, [2**60, 1], 0.0)
    assert column(add((1, quarter), (1, quarter), (1, quarter)), 0) == [(0, 3 * 2**60)]
    with pytest.raises(OverflowError, match="add"):
        add((1, quarter), (1, quarter), (2, quarter))  # 4 * 2**60 = 2**62


# Dyadic entries keep every product and sum exact, so the dense oracle is
# compared for equality in all three modes; the exact oracle holds Python
# ints, and exact entries reach either side of every integer type's maximum.
_DYADIC = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
_EDGES = [127, 128, 32767, 32768, 2**31 - 1, 2**31, 2**61]
_SCALARS = {
    "float": _DYADIC,
    "complex": st.builds(complex, _DYADIC, _DYADIC),
    "exact": st.one_of(st.integers(min_value=-3, max_value=3),
                       st.sampled_from(_EDGES + [-m for m in _EDGES])),
}


def _basis(lattice, size):
    """nat_basis(size), or the pi_basis whose cap is size - 1."""
    return nat_basis(size) if lattice == "nat" else pi_basis(size - 1)


@st.composite
def operators(draw, kind, lattice, n_dom, n_cod):
    """A random sum of weighted shifts and its dense oracle: shifts are
    distinct, values may be 0, and targets may leave the truncation."""
    dom, cod = _basis(lattice, n_dom), _basis(lattice, n_cod)
    ndim, n = len(dom.coords), len(dom)
    drawn = draw(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * ndim),
                                    st.lists(_SCALARS[kind], min_size=n, max_size=n)),
                          max_size=4, unique_by=lambda term: term[0]))
    # a rule emits no value at a target off the lattice
    terms = [(shift, np.where(cod.valid(*(c + d for c, d in zip(dom.coords, shift))), values, 0))
             for shift, values in drawn]
    mode = 0.0 if kind == "exact" else MODE
    op = build_from_rule(dom, cod, terms, mode)
    dense = np.zeros((len(cod), n), dtype={"float": float, "complex": complex, "exact": object}[kind])
    for shift, values in terms:
        for j in range(n):
            target = tuple(int(c[j]) + d for c, d in zip(dom.coords, shift))
            if cod.valid(*target) and cod.rank(*target) >= 0:
                dense[cod.rank(*target), j] += values[j].item()
    return op, dense


def check_canonical(op):
    """Distinct positions in (column, row) rank order, no zero, and when exact
    the least signed integer type holding the entry bound."""
    found = entries(op)
    positions = [(j, i) for i, j, _ in found]
    assert positions == sorted(set(positions))
    assert all(v != 0 for _, _, v in found)
    if op.q == 0:
        assert op.bound == max((abs(int(v)) for *_, v in found), default=0)
        assert op.dtype == least_int_dtype(op.bound) and all(v.dtype == op.dtype for *_, v in found)


def formed_or_refused(form, dense, bound=0):
    """The operator ``form()`` after checking it is canonical and equals its
    dense oracle (Python ints when exact); None when ``bound``, the exact
    entry bound its guard reads, reaches 2**62 and so ``form()`` must raise."""
    if bound >= 2**62:
        with pytest.raises(OverflowError, match="could overflow int64"):
            form()
        return None
    op = form()
    check_canonical(op)
    assert np.array_equal(int_dense(op) if op.q == 0 else to_dense(op), dense)
    assert all(dense[i, j] == v for i, j, v in entries(op))
    return op


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_SCALARS)), st.sampled_from(["nat", "pi"]),
       st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_algebra_against_dense_property(data, kind, lattice, n1, n2, n3):
    a, da = data.draw(operators(kind, lattice, n2, n3))
    b, db = data.draw(operators(kind, lattice, n1, n2))
    c, dc = data.draw(operators(kind, lattice, n2, n3))
    exact = kind == "exact"
    w = 2 if exact else -1.5
    size = len(a.domain), len(a.codomain), len(b.domain)
    # each result, its dense oracle and, in the exact mode, the entry bound its guard reads
    for form, dense, bound in (
            (lambda: a, da, 0),
            (lambda: product(a, b), da @ db, exact and a.bound * b.bound * len(b.terms)),
            (lambda: add((w, a), (1, c)), w * da + dc, exact and abs(w) * a.bound + c.bound),
            (lambda: adjoint(a), da.conj().T, 0),
            (lambda: tensor(a, b, nat_basis(size[0] * size[2]), nat_basis(size[1] * size[0])),
             np.kron(da, db), exact and a.bound * b.bound)):
        formed_or_refused(form, dense, bound)


@pytest.mark.parametrize("m", _EDGES)
def test_exact_results_never_wrap(m):
    # entries of magnitude m, on either side of an integer type's maximum,
    # beside +-1: every result equals its Python-int oracle in the least
    # signed type holding its bound, or its guard refuses it
    basis = nat_basis(3)
    x = build_from_rule(basis, basis, [((0,), [m, m, -1]), ((-1,), [0, m, -m])], 0.0)
    neg = build_from_rule(basis, basis, [((0,), [-m, -m, 1]), ((-1,), [0, -m, m])], 0.0)
    one = diagonal(basis, [1, -1, 1], 0.0)
    dx, dneg, done = int_dense(x), int_dense(neg), int_dense(one)
    assert x.bound == m and x.dtype == least_int_dtype(m)
    # column 1 of x @ x sums m * m twice: 2 m**2, the guard's bound
    assert (dx @ dx)[0, 1] == 2 * m * m
    wide = nat_basis(9)
    for form, dense, bound in (
            (lambda: product(x, x), dx @ dx, 2 * m * m),
            (lambda: product(x, one), dx @ done, m),
            (lambda: product(one, x), done @ dx, 2 * m),
            (lambda: add((1, x), (1, x)), 2 * dx, 2 * m),
            (lambda: add((1, x), (-1, neg)), dx - dneg, 2 * m),
            (lambda: add((-1, x), (-1, x), (1, one)), done - 2 * dx, 2 * m + 1),
            (lambda: add((1000, x)), 1000 * dx, 1000 * m),
            (lambda: tensor(x, x, wide, wide), np.kron(dx, dx), m * m),
            (lambda: tensor(one, x, wide, wide), np.kron(done, dx), m),
            (lambda: adjoint(x), dx.T, 0)):
        formed_or_refused(form, dense, bound)
    # 1000 times an int8 operand: numpy alone refuses the Python int 1000 as an int8
    small = diagonal(basis, [127, -127, 1], 0.0)
    assert small.dtype == np.int8
    assert formed_or_refused(lambda: add((1000, small)), 1000 * int_dense(small)).dtype == np.int32
    # conjugation by U: the signed permutation moves the entries, exactly
    g = gamma_basis(2)
    at = np.arange(len(g))
    up = g.valid(*(c + 1 for c in g.coords))  # the shift (1, 1, 1) stays on the lattice
    xg = build_from_rule(g, g, [((0, 0, 0), np.choose(at % 3, [m, -m, 1])),
                                ((1, 1, 1), np.where(up, np.choose(at % 2, [-m, m]), 0))], 0.0)
    u = unitary_u(2)
    du = int_dense(u)
    conj = formed_or_refused(lambda: conjugate(xg, u), du @ int_dense(xg) @ du.T)
    assert conj.dtype == xg.dtype == least_int_dtype(m)
    # column norms: |v| * |v| summed over each column, 2 m**2 in column 1
    norms = (dx * dx).sum(axis=0).tolist()
    if 2 * m * m >= 2**62:
        with pytest.raises(OverflowError, match="exact column norm could overflow int64"):
            worst_column(x)
    else:
        worst, j = worst_column(x)
        assert (worst, j) == (max(norms), norms.index(max(norms))) == (2 * m * m, 1)
        assert type(worst) is int
    top = column_max_abs(x)
    assert top.dtype == x.dtype and top.tolist() == np.abs(dx).max(axis=0).tolist() == [m, m, m]
    # x - neg = 2 x: the largest entry 2 m, first in (column, row) order at (0, 0)
    if 2 * m >= 2**62:
        with pytest.raises(OverflowError, match="exact add could overflow int64"):
            max_entry_difference(x, neg, np.ones(3, dtype=bool))
    else:
        assert max_entry_difference(x, neg, np.ones(3, dtype=bool)) == (2 * m, (0, 0))
