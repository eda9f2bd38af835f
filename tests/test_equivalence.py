"""The unitary, conjugation, difference operators, and decay diagnostics."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from crystal_oracle import u_backward
from support import (
    basis_points,
    column,
    decay_loglog_slope,
    diagonal,
    entries,
    entry_bits,
    least_int_dtype,
    nan_on_middle_entry,
    product,
    sheet_of,
    term_shifts,
    to_dense,
)
from qsu2 import equivalence
from qsu2.cli import main
from qsu2.coefficients import float_mode, g, verify_g_estimates
from qsu2.equivalence import (
    D_SHIFTS,
    closed_form,
    conjugate,
    crosscheck_decomposition,
    decay_report,
    diagonal_values,
    difference,
    tail_norms,
    u_forward,
    unitary_u,
    verify_q0_equivalence,
)
from qsu2.lattice import (
    FullIndex,
    GammaIndex,
    full_basis,
    full_shell,
    gamma_basis,
    is_valid_gamma,
    pi_basis,
    points_below,
)
from qsu2.operator_core import (
    add,
    adjoint,
    build_from_rule,
    max_entry_difference,
)
from qsu2.representations import build_ipi, build_irrep, build_lambda, build_pi, coproduct_images


def column_by_rank(op, j):
    return dict(column(op, j))


def column_as_dict(op, point):
    col = column_by_rank(op, int(op.domain.rank(*point)))
    return {op.codomain.point_of(i): v for i, v in col.items()}


def forward(p):
    sign, *f = u_forward(*p)
    return int(sign), FullIndex(*map(int, f))


def backward(f):
    sign, *p = u_backward(*f)
    return int(sign), GammaIndex(*map(int, p))


def test_parity_by_bitwise_and_matches_the_modulo_forms():
    # `x & 1` and `x % 2`, and `x >> 1` and `x // 2`, agree on int64 and on
    # Python ints, negatives included; checked on a grid of points, as
    # arrays and one at a time
    grid = np.stack(np.meshgrid(*[np.arange(-7, 8, dtype=np.int64)] * 3)).reshape(3, -1)

    def valid(n2, i2, j2):
        return ((n2 >= 0) & (abs(i2) <= n2) & (abs(j2) <= n2)
                & ((i2 - n2) % 2 == 0) & ((j2 - n2) % 2 == 0))

    def forward_image(n2, i2, j2):
        hi, lo = np.maximum(i2, j2), np.minimum(i2, j2)
        return 1 - 2 * ((hi - j2) // 2 % 2), (n2 - hi) // 2, (n2 + lo) // 2, (j2 - i2) // 2

    def backward_sign(r, s, t):
        return 1 - 2 * (np.maximum(-t, 0) % 2)

    def gamma_rank(cap):  # the cubic points_below and `// 2`, on valid points
        return lambda n2, i2, j2: np.where(
            n2 <= cap, points_below(n2) + (i2 + n2) // 2 * (n2 + 1) + (j2 + n2) // 2, -1)

    def full_rank(cap):
        def rank(r, s, t):
            m = r + s + abs(t)
            return np.where(m <= cap, points_below(m) + (m - r) ** 2 + 2 * abs(t) - (t < 0), -1)
        return rank

    gamma_points = grid[:, valid(*grid)]
    full_points = grid[:, (grid[0] >= 0) & (grid[1] >= 0)]
    checks = [(is_valid_gamma, valid, grid), (u_forward, forward_image, grid),
              (lambda *p: u_backward(*p)[0], backward_sign, grid)]
    for cap in (0, 1, 3, 6, 7, 13):
        checks += [(gamma_basis(cap).rank, gamma_rank(cap), gamma_points),
                   (full_basis(cap).rank, full_rank(cap), full_points)]
    for got, want, points in checks:
        assert np.array_equal(got(*points), want(*points))
        points = points.T.tolist()
        assert [np.asarray(got(*p)).tolist() for p in points] == [
            np.asarray(want(*p)).tolist() for p in points]


def test_unitary_pointwise_examples():
    assert forward(GammaIndex(0, 0, 0)) == (1, FullIndex(0, 0, 0))
    # e^{1/2}_{1/2,-1/2}: the i >= j branch picks up (-1)^{i-j}
    assert forward(GammaIndex(1, 1, -1)) == (-1, FullIndex(0, 0, -1))
    # e^1_{0,1}: i < j branch, positive sign
    assert forward(GammaIndex(2, 0, 2)) == (1, FullIndex(0, 1, 1))
    assert backward(FullIndex(0, 0, -1)) == (-1, GammaIndex(1, 1, -1))


def test_unitary_roundtrip_and_shells_cap40():
    u = unitary_u(40)  # construction itself checks shells and a bijection
    # an exact operator with one entry per column
    found = entries(u)
    rows = np.array([i for i, _, _ in found])
    vals = np.array([v for _, _, v in found])
    assert u.q == 0 and vals.dtype == least_int_dtype(u.bound)
    assert [j for _, j, _ in found] == list(range(len(u.domain)))
    # bijection onto the capped lattice
    assert np.array_equal(np.sort(rows), np.arange(len(u.codomain)))
    assert set(vals.tolist()) <= {-1, 1}
    assert np.array_equal(full_shell(*(c[rows] for c in u.codomain.coords)), u.domain.shells)
    # the entries are the pointwise map
    sign, *image = u_forward(*u.domain.coords)
    assert np.array_equal(vals, sign)
    assert all(np.array_equal(c[rows], f) for c, f in zip(u.codomain.coords, image))


def _collided(n2, i2, j2):
    """U with (n2, i2, j2), i2 < j2, sent to the image of (n2, j2, j2):
    every image valid and on its shell, some taken twice."""
    return u_forward(n2, np.maximum(i2, j2), j2)


def _off_shell(n2, i2, j2):
    """U with the shell n2 = 2 moved one shell up along r."""
    sign, r, s, t = u_forward(n2, i2, j2)
    return sign, r + (n2 == 2), s, t


@pytest.mark.parametrize("forward_map, message", [
    (_collided, "the image of GammaIndex(n2=1, i2=-1, j2=1) is taken twice"),
    (_off_shell, "broke the shell grading at GammaIndex(n2=2, i2=-2, j2=-2)"),
], ids=["collided", "off_shell"])
def test_unitary_refuses_a_map_that_is_not_a_shell_bijection(monkeypatch, forward_map, message):
    # the first point, in rank order, whose image is taken twice or off its shell
    monkeypatch.setattr(equivalence, "u_forward", forward_map)
    with pytest.raises(AssertionError, match=re.escape(message)):
        unitary_u(4)


def test_unitary_refuses_a_codomain_of_another_size(monkeypatch):
    # one-to-one into a larger lattice is not onto
    monkeypatch.setattr(equivalence, "full_basis", lambda cap: full_basis(cap + 1))
    with pytest.raises(AssertionError, match="maps 30 points onto 55"):
        unitary_u(3)


def test_unitary_check_survives_optimised_python():
    # `python -O` strips assert statements, not an explicit raise
    src = str(Path(equivalence.__file__).resolve().parents[1])
    code = """
import numpy as np
from qsu2 import equivalence
forward = equivalence.u_forward
equivalence.u_forward = lambda n2, i2, j2: forward(n2, np.maximum(i2, j2), j2)
try:
    equivalence.unitary_u(4)
except AssertionError as error:
    print(__debug__, error)
"""
    out = subprocess.run([sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.startswith("False unitary") and "is taken twice" in out.stdout


def test_sheet_to_fiber():
    u = unitary_u(10)
    r = u.codomain.coords[0]
    for k, p in enumerate(basis_points(u.domain)):
        (row, _), = column(u, k)
        assert r[row] == sheet_of(p) // 2


def test_conjugate_identity():
    u = unitary_u(6)
    eye = diagonal(gamma_basis(6), np.ones(len(gamma_basis(6)), dtype=np.int64), 0.0)
    conj = conjugate(eye, u)
    expected = diagonal(full_basis(6), np.ones(len(full_basis(6)), dtype=np.int64), 0.0)
    assert entry_bits(conj) == entry_bits(expected)


def test_conjugate_cap_mismatch():
    u = unitary_u(6)
    op = build_lambda(0.0, 5, "alpha")
    with pytest.raises(ValueError, match="cap mismatch"):
        conjugate(op, u)


@pytest.mark.parametrize("q", [0.0, 0.5, -0.45])
def test_conjugate_against_the_dense_signed_permutation(q):
    # U = P S, P the permutation and S the signs of the oracle's U*, so U op U* = P S op S P^T;
    # at q != 0 each term of b splits over two offsets
    for cap in (0, 1, 2, 7):
        full = full_basis(cap)
        sign, *point = u_backward(*full.coords)
        u_dense = np.zeros((len(full), len(full)))
        u_dense[np.arange(len(full)), gamma_basis(cap).rank(*point)] = sign
        u = unitary_u(cap)
        for gen in ("alpha", "beta"):
            lam = build_lambda(q, cap, gen)
            for op in (lam, adjoint(lam)):
                conj = conjugate(op, u)
                assert np.array_equal(to_dense(conj), u_dense @ to_dense(op) @ u_dense.T), (cap, gen)
                for term in conj.terms:
                    cols = np.flatnonzero(term.values)
                    moved = [c[term.targets[cols]] - c[cols] for c in full.coords]
                    assert all((d == x).all() for d, x in zip(moved, term.shift)), (cap, gen)


def test_q0_intertwining_exact():
    rep = verify_q0_equivalence(10)
    assert all(v == 0 for v in rep.mismatches.values())
    assert set(rep.mismatches) == {"alpha", "beta", "alpha_star", "beta_star"}
    assert list(rep.relations) == ["lambda0", "pi0"]
    for rel in rep.relations.values():
        assert [row.name for row in rel.rows] == ["a*a+b*b-I", "aa*-I", "ab", "ab*", "b*b-bb*"]
        assert all(row.residual == 0.0 for row in rel.rows)
    apex = verify_q0_equivalence(1)  # apex column alone, no relation interior
    assert all(v == 0 for v in apex.mismatches.values()) and apex.relations == {}


def test_q0_apex_column():
    u = unitary_u(2)
    conj = conjugate(build_lambda(0.0, 2, "beta"), u)
    assert column_as_dict(conj, FullIndex(0, 0, 0)) == {FullIndex(0, 0, -1): 1}


def test_q0_needs_positive_cap():
    with pytest.raises(ValueError, match="no interior"):
        verify_q0_equivalence(0)


def test_q0_regression_guard_displayed_beta_form(monkeypatch):
    # The other displayed convention for the crystal beta action (index
    # shifts (i-1/2, j+1/2), opposite branch signs) must break the exact
    # intertwining, witnessed at the apex.
    cap = 4
    basis = gamma_basis(cap)
    n2, i2, j2 = basis.coords
    displayed_rule = [((1, -1, 1), (i2 == -n2) * 1),
                      ((-1, -1, 1), ((j2 == -n2) & (i2 != -n2)) * -1)]
    wrong_beta = build_from_rule(basis, basis, displayed_rule, 0.0)
    calls = []

    def build(q, cap, gen):
        calls.append(gen)
        return wrong_beta if gen == "beta" else build_lambda(q, cap, gen)

    monkeypatch.setattr(equivalence, "build_lambda", build)
    rep = verify_q0_equivalence(cap)
    assert calls == ["alpha", "beta"]  # lambda_0 is built once per base generator
    assert rep.mismatches["alpha"] == 0 and rep.witness["alpha"] is None
    assert rep.mismatches["beta"] > 0
    assert rep.witness["beta"] == FullIndex(0, 0, 0)


def test_q0_reports_a_witness_per_generator(monkeypatch, capsys):
    # With I (x) pi_0 negated every generator fails, and each item names
    # its own first failing column.
    def negated_ipi(q, cap, gen):
        return add((-1, build_ipi(q, cap, gen)))

    monkeypatch.setattr(equivalence, "build_ipi", negated_ipi)
    assert main(["verify-q0", "--cap", "4"]) == 1
    items = {it["name"]: it for it in json.loads(capsys.readouterr().out)["items"]}
    counts = {gen: items[f"intertwine/{gen}"]["value"]
              for gen in ("alpha", "beta", "alpha_star", "beta_star")}
    assert counts == {"alpha": 14, "beta": 16, "alpha_star": 30, "beta_star": 16}
    assert all(items[f"intertwine/{gen}"]["witness"] is not None for gen in counts)


def test_difference_apex_column():
    d = difference(0.5, 6, "alpha")
    col = column_as_dict(d, FullIndex(0, 0, 0))
    assert set(col) == {FullIndex(1, 0, 0)}
    assert col[FullIndex(1, 0, 0)] == pytest.approx(0.4472135954999579, abs=1e-12)


def test_difference_column_structure():
    d = difference(0.5, 6, "alpha")
    basis = d.domain
    for j in range(len(basis)):
        col = column_by_rank(d, j)
        p = basis.point_of(j)
        targets = {basis.point_of(i) for i in col}
        assert len(col) <= 2
        assert targets <= {FullIndex(p.r + 1, p.s, p.t), FullIndex(p.r, p.s - 1, p.t)}


def test_difference_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown generator 'alpha_star'"):
        difference(0.5, 4, "alpha_star")
    with pytest.raises(ValueError, match="q=0"):
        difference(0.0, 4, "alpha")


@pytest.mark.parametrize(
    "call",
    [
        lambda: difference(0.0, 4, "alpha"),
        lambda: closed_form(0.0, 4, "alpha"),
        lambda: diagonal_values(0.0, 4, "R1"),
        lambda: diagonal_values(0.0, 4, "T1"),
        lambda: decay_report(0.0, 4, "R1mR3"),
        lambda: tail_norms(difference(0.0, 4, "alpha")),
        lambda: crosscheck_decomposition(0.0, 4, "alpha"),
        lambda: build_irrep(0.0, 1.0, 4),
        lambda: coproduct_images(0.0, 4),
        lambda: verify_g_estimates(0.0, 4),
        lambda: float_mode(0.0),
    ],
    ids=["difference", "closed_form", "diagonal_values_R", "diagonal_values_T", "decay_report",
         "tail_norms", "crosscheck_decomposition", "build_irrep", "coproduct_images",
         "verify_g_estimates", "float_mode"],
)
def test_float_only_api_rejects_q_zero(call):
    # q = 0 is the exact mode of the representation builders only; the
    # float-only API refuses it on purpose, not by a failing log(0)
    with pytest.raises(ValueError, match=r"q=0|0 < \|q\|"):
        call()


def test_diagonal_coefficient_values():
    q = 0.5
    basis = full_basis(4)
    r1 = diagonal_values(q, 4, "R1")
    assert r1[basis.rank(*FullIndex(0, 0, 0))] == pytest.approx(0.4472135954999579, abs=1e-12)

    # R3 reads only (s, t): at (s, t) = (1, 2) it is q^5 on every fiber r
    r3 = diagonal_values(q, 4, "R3")
    for r in range(2):
        assert r3[basis.rank(*FullIndex(r, 1, 2))] == pytest.approx(q**5, abs=1e-15)

    t1 = diagonal_values(q, 5, "T1")
    for t in range(-3, 4):
        assert t1[full_basis(5).rank(*FullIndex(0, 0, t))] == 0.0  # bottom case (r,s) = (0,0)

    for name in ("R5", "T0", "R1mR3"):
        with pytest.raises(ValueError, match="unknown diagonal"):
            diagonal_values(q, 4, name)


def _mp_diagonals(q: float, r: int, s: int, t: int) -> dict:
    """The eight displayed diagonal coefficients at (r, s, t), in mpmath."""
    q = mpmath.mpf(q)

    def g(k):
        return mpmath.sqrt(1 - q ** (2 * k))

    a, tp, tm = abs(t), max(t, 0), max(-t, 0)
    m = r + s + a
    if (r, s) == (0, 0):
        t1 = mpmath.mpf(0)
    elif t >= 0:
        t1 = -q ** (s + a) * g(r) * g(s) / (g(m) * g(m + 1))
    else:
        t1 = -q ** (s + a) * g(r + 1) * g(s + 1) / (g(m + 1) * g(m + 2))
    if t >= 0:
        t2 = q**s * (g(r + a + 1) * g(s + a + 1) / (g(m + 1) * g(m + 2)) - 1)
        t3 = -q ** (s + a) * g(s)
        t4 = q**s * (g(s + a + 1) - 1)
    else:
        t2 = q**s * (g(r + a) * g(s + a) / (g(m) * g(m + 1)) - 1)
        t3 = -q ** (s + a) * g(s + 1)
        t4 = q**s * (g(s + a) - 1)
    return {
        "R1": q ** (2 * s + a + 1) * g(r + tm + 1) * g(r + tp + 1) / (g(m + 1) * g(m + 2)),
        "R2": g(s + tp + 1) * g(s + tm + 1) / (g(m + 1) * g(m + 2)) - g(s + 1),
        "R3": q ** (2 * s + a + 1),
        "R4": g(s + 1) * (g(s + a + 1) - 1),
        "T1": t1, "T2": t2, "T3": t3, "T4": t4,
    }


@pytest.mark.parametrize("q", [0.5, -0.45, 0.9, 0.999])
def test_diagonal_values_against_mpmath(q):
    # R2, R4, T2, T4 are differences of O(1) quantities and are held to an
    # absolute bound: their relative error grows on deep shells (3e-9 at
    # q = -0.45 on this cap), the open cancellation defect of those formulas
    cap = 8
    points = basis_points(full_basis(cap))
    values = {name: diagonal_values(q, cap, name)
              for name in ("R1", "R2", "R3", "R4", "T1", "T2", "T3", "T4")}
    with mpmath.workdps(50):
        oracle = [_mp_diagonals(q, *p) for p in points]
    for name, got in values.items():
        for k, p in enumerate(points):
            want = float(oracle[k][name])
            if name in ("R1", "R3", "T1", "T3"):
                assert got[k] == pytest.approx(want, rel=1e-14, abs=0.0), (name, p)
            else:
                assert got[k] == pytest.approx(want, rel=0.0, abs=1e-15), (name, p)


def test_crosscheck_small_grid():
    for q in (0.1, -0.1, 0.5, -0.5, 0.9):
        for gen in ("alpha", "beta"):
            deviation, witness = crosscheck_decomposition(q, 8, gen)
            assert deviation < 1e-13, (q, gen, witness)


def test_crosscheck_refuses_cap_zero():
    # at cap 0 no column has shell <= cap - 1: nothing would be checked
    for gen in ("alpha", "beta"):
        with pytest.raises(ValueError, match="no interior"):
            crosscheck_decomposition(0.5, 0, gen)


@pytest.mark.parametrize("gen", ["alpha", "beta"])
def test_crosscheck_reads_columns_of_shell_below_cap_alone(monkeypatch, gen):
    # a 1e-3 diagonal entry planted in the closed form (D has no zero
    # shift): ignored on a column of shell cap, reported on one of shell
    # cap - 1, with that column in the witness
    q, cap = 0.47, 8
    basis, real = full_basis(cap), equivalence.closed_form
    for shell in (cap, cap - 1):
        j = int(np.flatnonzero(basis.shells == shell)[0])
        planted = diagonal(basis, np.where(np.arange(len(basis)) == j, 1e-3, 0.0), q)
        monkeypatch.setattr(equivalence, "closed_form",
                            lambda *args, planted=planted: add((1.0, real(*args)), (1.0, planted)))
        deviation, witness = crosscheck_decomposition(q, cap, gen)
        if shell == cap:
            assert deviation < 1e-13, witness
        else:
            assert deviation == pytest.approx(1e-3, rel=1e-12)
            assert witness == (basis.point_of(j), basis.point_of(j))


@pytest.mark.parametrize("gen", ["alpha", "beta"])
def test_rule_terms_are_the_written_shifts_in_order(gen):
    # each builder's terms carry its rule's shifts in rule order: the
    # Clebsch-Gordan steps for lambda, pi's shift lifted as (0, ds, dt) for
    # I (x) pi, and D_SHIFTS for the closed form
    steps = {"alpha": [(1, -1, -1), (-1, -1, -1)], "beta": [(1, 1, -1), (-1, 1, -1)]}
    pi_shift = {"alpha": (-1, 0), "beta": (0, -1)}
    assert term_shifts(build_lambda(0.5, 6, gen)) == steps[gen]
    assert term_shifts(build_lambda(0.0, 6, gen)) == steps[gen][gen == "alpha":]  # a+ is O(q)
    for q in (0.5, 0.0):
        assert term_shifts(build_pi(q, 6, gen)) == [pi_shift[gen]]
        assert term_shifts(build_ipi(q, 6, gen)) == [(0, *pi_shift[gen])]
    assert term_shifts(closed_form(0.5, 6, gen)) == list(D_SHIFTS[gen])


def test_closed_form_matches_difference_everywhere_interior():
    # independent check at another q, both generators, larger cap
    for gen in ("alpha", "beta"):
        d = difference(0.3, 10, gen)
        cf_op = closed_form(0.3, 10, gen)
        basis = d.domain
        worst, _ = max_entry_difference(cf_op, d, columns=basis.shells <= 9)
        assert worst < 1e-14


def assembled_closed_form(q, cap, gen):
    """D_gen as products of diagonal and shift operators, summed by add."""
    basis = full_basis(cap)
    mode = float_mode(q)
    r, s, _ = basis.coords

    def shift(dr, ds, dt):
        return build_from_rule(basis, basis, [((dr, ds, dt), ((r + dr >= 0) & (s + ds >= 0)) * 1.0)],
                               mode)

    def diag(values):
        return diagonal(basis, values, mode)

    if gen == "alpha":
        return add((1, product(shift(+1, 0, 0), diag(diagonal_values(q, cap, "R1")))),
                   (1, product(diag(diagonal_values(q, cap, "R2")), shift(0, -1, 0))))
    t = basis.coords[2]
    branch = equivalence._t1_branch_values(q, cap)
    up = product(diag(np.where(t >= 0, branch, 0.0)), shift(+1, +1, -1))
    down = product(diag(np.where(t < 0, branch, 0.0)), shift(-1, -1, -1))
    return add((1, add((1, up), (1, down))),
               (1, product(diag(diagonal_values(q, cap, "T2")), shift(0, 0, -1))))


@pytest.mark.parametrize("gen", ["alpha", "beta"])
@pytest.mark.parametrize("q", [0.5, -0.45, 0.9, 0.999, 0.1, -1e-3])
def test_closed_form_matches_assembled_reference_bitwise(q, gen):
    for cap in [*range(9), 20]:
        got, want = closed_form(q, cap, gen), assembled_closed_form(q, cap, gen)
        assert got.dtype == want.dtype and entry_bits(got) == entry_bits(want), cap


def test_t1_minus_t3_bottom_fiber_values():
    # T1 vanishes on the (0,0) fiber while I (x) T3 does not: the
    # difference there is exactly q^{|t|} g(1) for t < 0.
    q = 0.5
    cap = 6
    m = diagonal_values(q, cap, "T1") - diagonal_values(q, cap, "T3")
    basis = full_basis(cap)
    for t in range(-cap, 0):
        expected = q ** abs(t) * g(1, q)
        assert m[basis.rank(*FullIndex(0, 0, t))] == pytest.approx(expected, abs=1e-15)


def test_r1_minus_lifted_r3_shell_ratios():
    # per-shell maxima of R1 - I (x) R3 shrink at rate ~q past the first shells
    q, cap = 0.5, 8
    values = np.abs(diagonal_values(q, cap, "R1") - diagonal_values(q, cap, "R3"))
    shells = full_basis(cap).shells
    vals = dict(decay_report(q, cap, "R1mR3").shell_max)
    assert all(vals[m] == values[shells == m].max() for m in range(cap + 1))
    for k in range(2, cap):
        assert vals[k + 1] / vals[k] <= q + 0.05


def test_decay_report_constants():
    rep = decay_report(0.5, 8, "R1mR3")
    assert rep.pattern == "2r+2s+|t|+1"
    assert rep.normalized_constant <= 2.0 / (1 - 0.25)  # generous envelope
    assert rep.normalized_constant > 0
    vals = dict(rep.shell_max)
    assert vals[3] < vals[2] < vals[1]

    with pytest.raises(ValueError, match="unknown decay target"):
        decay_report(0.5, 4, "bogus")


def test_decay_report_lets_nan_win_its_shell(monkeypatch):
    real = equivalence.diagonal_values

    def with_nan(q, cap, name):
        values = real(q, cap, name)
        if name == "R1":
            values[5] = np.nan
        return values

    monkeypatch.setattr(equivalence, "diagonal_values", with_nan)
    rep = decay_report(0.5, 4, "R1mR3")
    shell = int(full_basis(4).shells[5])
    assert [m for m, v in rep.shell_max if np.isnan(v)] == [shell]
    assert np.isnan(rep.normalized_constant)


def test_decay_constant_infinite_when_scale_underflows():
    # 1e-5 ** 80 underflows to 0.0: the constant is reported as inf (and
    # fails its finiteness check) instead of raising ZeroDivisionError
    rep = decay_report(1e-5, 40, "R2mR4")
    assert rep.normalized_constant == float("inf")


def test_decay_slopes_near_one():
    for target in ("R1mR3", "T1mT3"):
        slope = decay_loglog_slope((0.3, 0.2), 8, target)
        assert abs(slope - 1.0) < 0.15


def test_decay_slope_rejects_nondecaying_pattern():
    with pytest.raises(ValueError, match="no shellwise-decaying"):
        decay_loglog_slope((0.3, 0.2), 6, "Dbeta")


def test_tail_norms_monotone_small():
    norms = tail_norms(difference(0.5, 8, "alpha"))
    assert norms[0][1] >= 0.447  # apex column witness lower bound
    values = [v for _, v in norms]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-8


# Shifts on each generator's chain offset (t, r - s) that D_gen does not
# carry (beta's (1, 1, -1) adds to its own term): a band of K = 4 slots for
# alpha, ds in -2..1, and K = 5 for beta, ds in -2..2.
WIDER_SHIFTS = {"alpha": ((-1, -2, 0), (2, 1, 0)), "beta": ((2, 2, -1), (-2, -2, -1), (1, 1, -1))}


def widened(q, cap, gen):
    """D_gen plus a term on each shift of WIDER_SHIFTS[gen], valued
    q^(s + |t|) / (r + j + 1) for its j-th shift wherever the target lies
    on the lattice."""
    d = difference(q, cap, gen)
    r, s, t = d.domain.coords
    extra = build_from_rule(d.domain, d.codomain, [
        ((dr, ds, dt), np.where((r + dr >= 0) & (s + ds >= 0), q ** (s + abs(t)) / (r + j + 1), 0.0))
        for j, (dr, ds, dt) in enumerate(WIDER_SHIFTS[gen])], d.q)
    return add((1, d), (1, extra))


def check_against_dense_svd(build, q, gen):
    for cap in (0, 1, 2, 7, 8):
        d = build(q, cap, gen)
        dense = to_dense(d)
        pi_shell = np.array([p.s + abs(p.t) for p in basis_points(d.domain)])
        norms = tail_norms(d)
        assert [m for m, _ in norms] == list(range(cap + 1))
        for m, value in norms:
            oracle = max(np.linalg.svd(dense[:, pi_shell >= m], compute_uv=False), default=0.0)
            assert value == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("gen", ["alpha", "beta"])
@pytest.mark.parametrize("q", [0.5, -0.45, 0.9, 0.999, 0.1, -1e-3, 1e-150])
def test_tail_norms_against_dense_svd(q, gen):
    check_against_dense_svd(difference, q, gen)


@pytest.mark.parametrize("gen", ["alpha", "beta"])
@pytest.mark.parametrize("q", [0.5, -0.45, 0.9])
def test_wider_band_tail_norms_against_dense_svd(q, gen):
    check_against_dense_svd(widened, q, gen)


def scaled_gram_norms(blocks, k):
    """Spectral norms of (w + k - 1) x w blocks holding entries only at
    [i + j, i], j = 0..k-1, by the solve of tail_norms: each block scaled by
    2^-e, e the binary exponent of its largest |entry|, the upper band of
    its Gram from those entries, superdiagonal o summed over j in order,
    and sqrt(largest eigenvalue) * 2^e."""
    count, _, w = blocks.shape
    b = [np.diagonal(blocks, -j, axis1=1, axis2=2) for j in range(k)]
    e = np.frexp(abs(blocks).max(axis=(1, 2)))[1]
    b = [np.ldexp(x, -e[:, None]) for x in b]
    i = np.arange(w)
    gram = np.zeros((count, w, w))
    for o in range(min(k, w)):
        gram[:, i[:w - o], i[o:]] = sum(b[j + o][:, :w - o] * b[j][:, o:] for j in range(k - o))
    return np.ldexp(np.sqrt(np.linalg.eigvalsh(gram, UPLO="U")[:, -1]), e)


def unpruned_suffix_norms(d):
    """The norm of every chain suffix of d, each one solved: per chain, the
    s + |t| of its head and the norms of its suffixes from column 0, 1, ... on.

    The columns of d with fixed (t, r - s) form a chain ordered by s; with
    the shifts' ds in low..high and k = high - low + 1, the chain is the
    dense (L + k - 1) x L matrix M with row s' at slot s' - s_head - low,
    and its suffix from column c is M[c:, c:].  Every suffix of width w goes
    through one batched scaled Gram solve, as tail_norms solves its blocks.
    """
    ds = [shift[1] for shift in term_shifts(d)] or [0]
    low, k = min(ds), max(ds) - min(ds) + 1
    r, s, t = (c.tolist() for c in d.domain.coords)
    chains = {}
    for j in sorted(range(len(s)), key=s.__getitem__):
        chains.setdefault((t[j], r[j] - s[j]), []).append(j)
    head = {j: cols[0] for cols in chains.values() for j in cols}
    mats = {cols[0]: np.zeros((len(cols) + k - 1, len(cols)), d.dtype) for cols in chains.values()}
    for i, j, v in entries(d):
        h = head[j]
        mats[h][s[i] - s[h] - low, s[j] - s[h]] = v
    suffix = {h: [0.0] * m.shape[1] for h, m in mats.items()}  # [c]: norm from column c on
    for w in range(1, max(m.shape[1] for m in mats.values()) + 1):
        heads = [h for h, m in mats.items() if m.shape[1] >= w]
        values = scaled_gram_norms(np.stack([mats[h][-w - k + 1:, -w:] for h in heads]), k)
        for h, value in zip(heads, values.tolist()):
            suffix[h][-w] = value
    return [(abs(t[h]) + s[h], vals) for h, vals in suffix.items()]


def unpruned_tail_norms(d):
    """Tail norms with every chain suffix solved, the reference for the pruned
    solve: tail m takes the largest norm of the suffixes it reads, a chain
    from column m - (|t| + s_head) on, and all of it for m <= |t| + s_head."""
    cap = d.domain.cap
    norms, whole = [0.0] * (cap + 1), [0.0] * (cap + 2)
    for base, vals in unpruned_suffix_norms(d):
        whole[base] = max(whole[base], vals[0])
        for c, value in enumerate(vals[1:], 1):
            norms[base + c] = max(norms[base + c], value)
    for m in range(cap, -1, -1):
        whole[m] = max(whole[m], whole[m + 1])
    return [(m, max(norms[m], whole[m])) for m in range(cap + 1)]


def running_max_tail_norms(d):
    """Tail norms with every chain suffix solved, read as tail_norms reads
    them: tail m takes the largest norm of a suffix from a column with
    s + |t| >= m, its own columns' and every later tail's."""
    cap = d.domain.cap
    at = [0.0] * (cap + 2)
    for base, vals in unpruned_suffix_norms(d):
        for c, value in enumerate(vals):
            at[base + c] = max(at[base + c], value)
    for m in range(cap, -1, -1):
        at[m] = max(at[m], at[m + 1])
    return list(enumerate(at[:-1]))


@pytest.mark.parametrize("gen", ["alpha", "beta"])
@pytest.mark.parametrize("q", [0.5, -0.45, 0.9, 0.999, 0.1, -1e-3, -3e-7, 1e-150, 0.999999, -0.95])
def test_tail_norms_equal_the_unpruned_solve(q, gen):
    for cap in [*range(13), 36]:
        d = difference(q, cap, gen)
        assert tail_norms(d) == unpruned_tail_norms(d), cap


def test_tail_norms_equal_the_unpruned_solve_at_the_largest_cap(monkeypatch):
    # cap 51, the largest the CLI takes, solves a suffix of every width 1..26,
    # so the flat gather and the strided Gram fill are checked at each of them
    widths = []
    eigvalsh = np.linalg.eigvalsh

    def recording(x, *args, **kwargs):
        widths.append(x.shape[-1])
        return eigvalsh(x, *args, **kwargs)

    d = difference(0.9, 51, "beta")
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    norms = tail_norms(d)
    monkeypatch.undo()
    assert widths == list(range(1, 27))
    assert norms == unpruned_tail_norms(d)


@pytest.mark.parametrize("gen", ["alpha", "beta"])
@pytest.mark.parametrize("q", [0.5, -0.45, 0.9])
def test_wider_band_tail_norms_equal_the_unpruned_solve(q, gen):
    for cap in [*range(13), 36]:
        d = widened(q, cap, gen)
        assert tail_norms(d) == unpruned_tail_norms(d), cap


def test_tail_norms_never_rise():
    # column scalings spread nested suffix norms over 16 decades or zero
    # chain heads, where a suffix can round above the one it is nested in;
    # the whole-chain reading of such norms let some tails rise by an ulp
    rng = np.random.default_rng(20261020)
    checked = 0
    for q in (0.5, -0.45, 0.9):
        for cap in (6, 8, 12, 18):
            for gen in ("alpha", "beta"):
                d = difference(q, cap, gen)
                s = d.domain.coords[1]
                n = len(s)
                for _ in range(4):
                    for factors in (10.0 ** rng.uniform(-8, 8, n),
                                    rng.uniform(2, 8) ** s,
                                    np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-8, 8, n))):
                        op = product(d, diagonal(d.domain, factors, q))  # column j times factors[j]
                        norms = tail_norms(op)  # no bracket AssertionError
                        values = [v for _, v in norms]
                        assert all(b <= a for a, b in zip(values, values[1:])), (q, cap, gen)
                        assert norms == running_max_tail_norms(op), (q, cap, gen)
                        for v, (_, ref) in zip(values, unpruned_tail_norms(op)):
                            assert ref <= v <= ref + 4 * np.spacing(ref), (q, cap, gen)
                        checked += 1
    assert checked == 288


@pytest.mark.parametrize("gen", ["alpha", "beta"])
def test_tail_norms_solve_surviving_suffixes_at_their_own_size(monkeypatch, gen):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(x, *args, **kwargs):
        shapes.append(x.shape)
        return eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    tail_norms(difference(0.5, 8, gen))
    monkeypatch.undo()
    d = difference(0.5, 8, gen)
    r, s, t = d.domain.coords
    _, length = np.unique(np.stack([t, r - s]), axis=1, return_counts=True)
    assert shapes and all(h == w for _, h, w in shapes)  # one w x w Gram per suffix
    # one call per width, each solving at most the suffixes of that width once
    assert len({w for _, _, w in shapes}) == len(shapes)
    assert all(count <= np.sum(length >= w) for count, _, w in shapes)
    assert sum(count for count, _, _ in shapes) < len(d.domain)


@pytest.mark.parametrize("gen, solved", [("alpha", 232), ("beta", 241)])
def test_tail_norms_solve_a_pinned_number_of_suffixes(monkeypatch, gen, solved):
    # the Grams the skip test leaves to eigvalsh at q = 0.5, cap 18, of 2470 suffixes
    counts = []
    eigvalsh = np.linalg.eigvalsh

    def recording(x, *args, **kwargs):
        counts.append(len(x))
        return eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    tail_norms(difference(0.5, 18, gen))
    assert sum(counts) == solved


def test_tail_norms_nan_entry_reaches_lapack():
    # NaN plus the middle entry of D, on that entry's shift
    d = difference(0.5, 8, "beta")
    nan, (i, j) = nan_on_middle_entry(d)
    assert [(k, j) for k, _ in column(nan, j)] == [(i, j)]
    with pytest.raises(np.linalg.LinAlgError):
        tail_norms(add((1, d), (1, nan)))


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["below-floor", "above-hi"])
def test_tail_norms_check_the_bracket(monkeypatch, factor):
    # the eigenvalues are squared norms
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda x, *args, **kwargs: factor**2 * eigvalsh(x, *args, **kwargs))
    with pytest.raises(AssertionError, match=r"tail 0 norm leaves its bracket"):
        tail_norms(difference(0.5, 4, "alpha"))
    # an internal fault, not a usage error: the CLI does not exit 2 on it
    with pytest.raises(AssertionError, match=r"leaves its bracket"):
        main(["tails", "--q", "0.5", "--cap", "4", "--gen", "alpha"])


def test_tail_norms_peak_memory_at_the_largest_cap():
    tracemalloc.start()
    try:
        tail_norms(difference(0.9, 51, "beta"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 17.3 MB with cold lattice caches, 14.6 MB warm
    assert peak < 19e6


def test_verify_q0_peak_memory_at_cap_40():
    # exact values are held in the least integer type their bound allows,
    # exact rule values are copied in it too, the constructor sums each of
    # compose's pieces into its shift's term as it is formed, and
    # check_relations holds no identity across relations: measured 2.64 MB
    # (2.81 MB with rule values copied at int64; 4.46 MB with int64 values;
    # 5.94 MB with, besides, a list of every pair's piece and I held across
    # relations)
    for basis in (gamma_basis, pi_basis, full_basis):
        basis(40)
    tracemalloc.start()
    try:
        verify_q0_equivalence(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75e6


@pytest.mark.parametrize(
    "column, row",
    [((0, 0, 0), (1, 0, 1)),  # the row of column (0, 0, 1): shift (1, 0, 1) moves t to another chain
     ((0, 0, 0), (0, 0, 4))],  # no column feeds it; it holds the chain slot of (1, 0, 0), but t moves
    ids=["two-chains", "shared-slot"],
)
def test_tail_norms_refuse_rows_outside_the_chains(monkeypatch, column, row):
    def linked(q, cap, gen):
        d = difference(q, cap, gen)
        at = np.arange(len(d.domain)) == d.domain.rank(*column)
        extra = build_from_rule(d.domain, d.codomain, [(shift, 0.125 * at)], d.q)
        assert entries(extra) == [(d.codomain.rank(*row), d.domain.rank(*column), 0.125)]
        return add((1, d), (1, extra))

    shift = tuple(b - a for a, b in zip(column, row))  # the entry's row minus its column
    message = re.escape(f"the shifts {[(1, 0, 0), (0, -1, 0), shift]} move (t, r - s) "
                        "by different offsets")
    with pytest.raises(AssertionError, match=message):
        tail_norms(linked(0.5, 4, "alpha"))
    # an internal fault, not a usage error: the CLI does not exit 2 on it
    monkeypatch.setattr(equivalence, "difference", linked)
    with pytest.raises(AssertionError, match=message):
        main(["tails", "--q", "0.5", "--cap", "4", "--gen", "alpha"])
