"""Representation builders, defining relations, and crystal-limit behaviour."""

import math
import weakref

import numpy as np
import pytest

import crystal_oracle as oracle
from support import (basis_points, column, diagonal, entries, entry_bits, least_int_dtype, product,
                     to_dense)
from qsu2.coefficients import float_mode, g
from qsu2.lattice import FullIndex, GammaIndex, PiIndex, gamma_basis, nat_basis
from qsu2 import representations
from qsu2.operator_core import (
    SparseOperator,
    add,
    adjoint,
    build_from_rule,
    compose,
    conjugate,
    tensor,
)
from qsu2.equivalence import closed_form, difference, tail_norms, unitary_u
from qsu2.representations import (
    GENERATORS,
    _mode,
    build_ipi,
    build_irrep,
    build_lambda,
    build_pi,
    check_relations,
    coproduct_images,
)

Q_GRID = (0.1, -0.1, 0.5, -0.5, 0.9)


def column_by_rank(op, j):
    return {op.codomain.point_of(i): v for i, v in column(op, j)}


def column_as_dict(op, point):
    return column_by_rank(op, int(op.domain.rank(*point)))


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
    for p in basis_points(gamma_basis(cap)):
        if p.n2 == cap and p.i2 > -p.n2 and p.j2 > -p.n2:
            col = column_as_dict(op, p)
            assert set(col) == {GammaIndex(p.n2 - 1, p.i2 - 1, p.j2 - 1)}


def test_lambda_q_zero_selects_exact_mode():
    for gen in GENERATORS:
        assert build_lambda(0.0, 4, gen).q == 0
    for build in (build_lambda, build_pi, build_ipi):
        for q in (1.0, 1.5, -1.0, math.nan):  # refused before any term is evaluated
            with pytest.raises(ValueError, match=r"\|q\| < 1"):
                build(q, 4, "alpha")


def test_every_operator_carries_its_q():
    """An operator's q is the q it was built at; its values are integers
    exactly when q == 0, of the least signed type holding its bound."""
    u = unitary_u(3)
    built = [(0.0, u)]
    for q in (0.0, 0.5, -0.45):
        for gen in GENERATORS:
            lam = build_lambda(q, 3, gen)
            built += [(q, op) for op in (
                lam, build_pi(q, 3, gen), build_ipi(q, 3, gen), adjoint(lam), conjugate(lam, u),
                compose(lam, adjoint(lam), np.ones(len(lam.domain), dtype=bool)),
                add((1, lam), (-q, lam)))]
            if q != 0:
                built += [(q, difference(q, 3, gen)), (q, closed_form(q, 3, gen))]
        if q != 0:
            built += [(q, op) for op in (*build_irrep(q, 1j, 4), *coproduct_images(q, 2))]
    # an exact operator whose largest |entry| is a negative entry
    built.append((0.0, diagonal(nat_basis(3), [1, -2**61, 2**60], 0.0)))
    for q, op in built:
        assert op.q == q and (op.dtype.kind == "i") == (q == 0), (q, op)
        # the exact mode keeps its largest |entry| as a Python int, the float modes none
        if q == 0:
            want = max((abs(int(v)) for *_, v in entries(op)), default=0)
            assert type(op.bound) is int and op.bound == want, (op, op.bound, want)
            assert op.dtype == least_int_dtype(op.bound), (op, op.dtype)
            assert all(v.dtype == op.dtype for *_, v in entries(op)), op
        else:
            assert op.bound is None, op
    assert built[-1][1].bound == 2**61 and built[-1][1].dtype == np.int64
    assert all(op.dtype == np.int8 for q, op in built[:-1] if q == 0)


def test_crystal_section_refuses_non_integer_values():
    basis = gamma_basis(2)
    n2 = basis.coords[0]
    for value in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"exact-mode entries must be int64 integers, got {value!r}"):
            build_from_rule(basis, basis, [((0, 0, 0), np.where(n2 == 1, value, 0.0))], _mode(0.0))
    op = build_from_rule(basis, basis, [((0, 0, 0), -1.0 * (n2 == 1))], _mode(0.0))
    assert op.q == 0 and op.dtype == least_int_dtype(op.bound)
    assert [(v.dtype, v.item()) for _, _, v in entries(op)] == [(least_int_dtype(1), -1)] * 4


def test_lambda_shell_grading():
    for gen in GENERATORS:
        for op in (build_lambda(0.5, 5, gen), adjoint(build_lambda(0.5, 5, gen))):
            dst, src = basis_points(op.codomain), basis_points(op.domain)
            for i, j, _ in entries(op):
                dn = dst[i].n2 - src[j].n2
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
    rows, cols = basis_points(pa.codomain), basis_points(pa.domain)
    for i, j, _ in entries(pa):
        assert cols[j].s - rows[i].s == 1
    pb = build_pi(0.5, 6, "beta")
    rows, cols = basis_points(pb.codomain), basis_points(pb.domain)
    for i, j, _ in entries(pb):
        src, dst = cols[j], rows[i]
        assert abs((dst.s + abs(dst.t)) - (src.s + abs(src.t))) == 1


def test_operator_norm_pi_beta_section():
    op = build_pi(0.5, 12, "beta")
    assert np.linalg.norm(to_dense(op), 2) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gen", ["alpha_star", "beta_star", "a", "gamma", "ALPHA"])
def test_builders_refuse_starred_and_unknown_names(gen):
    # the starred letters are formed only by adjoint, never by name
    for build in (build_lambda, build_pi, build_ipi, difference, closed_form,
                  lambda q, cap, gen: tail_norms(difference(q, cap, gen))):
        with pytest.raises(ValueError, match=f"unknown generator {gen!r}"):
            build(0.5, 4, gen)
    with pytest.raises(ValueError, match=f"unknown generator {gen!r}"):
        build_lambda(0.0, 4, gen)


@pytest.mark.parametrize("gen", ["alpha", "beta", "alpha_star", "beta_star"])
@pytest.mark.parametrize(
    "build, action",
    [(build_lambda, oracle.lambda0_action), (build_pi, oracle.pi0_action), (build_ipi, oracle.ipi0_action)],
    ids=["lambda", "pi", "ipi"],
)
def test_crystal_builders_match_hand_encoding(build, action, gen):
    base = gen.removesuffix("_star")
    op = build(0.0, 10, base) if gen == base else adjoint(build(0.0, 10, base))
    pts = basis_points(op.domain)
    expected = oracle.columns(action, gen, pts)
    for j, p in enumerate(pts):
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
    for gen in GENERATORS:
        for built in (build_lambda(0.0, 5, gen), build_pi(0.0, 5, gen), build_ipi(0.0, 5, gen)):
            for op in (built, adjoint(built)):
                assert op.q == 0
                found = entries(op)
                for _, _, v in found:
                    assert v in (-1, 1)
                columns = [j for _, j, _ in found]
                assert len(columns) == len(set(columns))  # at most one entry per column


def test_crystal_partial_isometries():
    # exact composition: A adjoint(A) A = A entrywise
    for gen in ("alpha", "beta"):
        for build in (build_lambda, build_pi):
            a = build(0.0, 5, gen)
            assert entry_bits(product(product(a, adjoint(a)), a)) == entry_bits(a)


def test_relations_lambda_and_pi_float():
    # the near-1 values need the cancellation-free g(k)
    for q in Q_GRID + (0.9999, 0.999999, 0.99999999):
        lam = {gv: build_lambda(q, 8, gv) for gv in GENERATORS}
        rep = check_relations(lam)
        assert all(r.residual < 1e-12 for r in rep.rows), (q, rep.rows)
        pi = {gv: build_pi(q, 8, gv) for gv in GENERATORS}
        rep = check_relations(pi)
        assert all(r.residual < 1e-12 for r in rep.rows), (q, rep.rows)


def test_relations_exact_zero():
    for build in (build_lambda, build_pi):
        ops = {gv: build(0.0, 6, gv) for gv in GENERATORS}
        rep = check_relations(ops)
        assert [r.name for r in rep.rows] == ["a*a+b*b-I", "aa*-I", "ab", "ab*", "b*b-bb*"]
        assert all(r.residual == 0.0 for r in rep.rows)


@pytest.mark.parametrize("q", [0.5, -0.45, 1e-3, -3e-7])
def test_relation_names_are_the_relations_as_written(q):
    # the row names join the parsed terms' text, so a character the parse
    # skipped would be missing from its name
    assert representations.RELATIONS == ("a*a+b*b-I", "aa*+q^2bb*-I", "ab-qba", "ab*-qb*a", "b*b-bb*")
    for ops in ({gv: build(q, 4, gv) for gv in GENERATORS} for build in (build_lambda, build_pi)):
        assert [r.name for r in check_relations(ops).rows] == list(representations.RELATIONS)
    alpha, beta = build_irrep(q, 1j, 5)
    rows = check_relations({"alpha": alpha, "beta": beta}).rows
    assert [r.name for r in rows] == list(representations.RELATIONS)


def test_relations_report_nan_residual():
    ops = {gv: build_pi(0.5, 6, gv) for gv in GENERATORS}
    beta = ops["beta"]
    basis = beta.domain
    j = int(basis.rank(*PiIndex(1, 0)))
    # NaN plus the entry of column j, on beta's one shift (s, t) -> (s, t - 1)
    nan = build_from_rule(basis, basis, [((0, -1), np.where(
        np.arange(len(basis)) == j, math.nan, 0.0))], beta.q)
    assert [(i, k) for i, k, _ in entries(nan)] == [(i, k) for i, k, _ in entries(beta) if k == j]
    ops["beta"] = add((1, beta), (1, nan))
    assert all(math.isnan(v) for _, v in column(ops["beta"], j))
    rep = check_relations(ops)
    assert not all(r.residual < 1e-12 for r in rep.rows)
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
    ops = {gv: build_lambda(0.0, 1, gv) for gv in GENERATORS}
    with pytest.raises(ValueError, match="no interior"):
        check_relations(ops)


@pytest.mark.parametrize("keys, match", [
    (("alpha", "beta", "alpha_star"), r"unexpected \['alpha_star'\], missing \[\]"),
    (("alpha",), r"unexpected \[\], missing \['beta'\]"),
], ids=["alpha_star", "no-beta"])
def test_relations_refuse_other_keys(keys, match):
    # a starred key would otherwise be ignored and the adjoints' verdict returned
    ops = {gv: build_pi(0.5, 6, gv) for gv in GENERATORS}
    ops["alpha_star"] = diagonal(ops["alpha"].domain, np.full(len(ops["alpha"].domain), 7.0),
                                 ops["alpha"].q)
    with pytest.raises(ValueError, match=match):
        check_relations({key: ops[key] for key in keys})


def _relation_cases(q):
    """Generator pairs of lambda and pi, and for q != 0 of an irreducible and
    of the coproduct, on small sections."""
    cases = {label: {g: build(q, 8, g) for g in ("alpha", "beta")}
             for label, build in (("lambda", build_lambda), ("pi", build_pi))}
    if q != 0.0:
        cases["irrep"] = dict(zip(("alpha", "beta"), build_irrep(q, complex(0.6, 0.8), 12)))
        cases["coproduct"] = dict(zip(("alpha", "beta"), coproduct_images(q, 5)))
    return cases


def _full_column_relations(ops, margin=2):
    """(residual, witness) of each relation: every word composed and added on
    all columns, then the squared column norms reduced over the interior."""
    a, b = ops["alpha"], ops["beta"]
    astar, bstar = adjoint(a), adjoint(b)
    basis, q = a.domain, a.q
    eye = diagonal(basis, np.ones(len(basis), dtype=np.int64), q)
    if q == 0:
        names = ["a*a+b*b-I", "aa*-I", "ab", "ab*", "b*b-bb*"]
        words = [add((1, add((1, product(astar, a)), (1, product(bstar, b)))), (-1, eye)),
                 add((1, product(a, astar)), (-1, eye)),
                 product(a, b),
                 product(a, bstar),
                 add((1, product(bstar, b)), (-1, product(b, bstar)))]
    else:
        names = ["a*a+b*b-I", "aa*+q^2bb*-I", "ab-qba", "ab*-qb*a", "b*b-bb*"]
        words = [add((1.0, add((1, product(astar, a)), (1, product(bstar, b)))), (-1.0, eye)),
                 add((1.0, add((1.0, product(a, astar)), (q * q, product(b, bstar)))), (-1.0, eye)),
                 add((1.0, product(a, b)), (-q, product(b, a))),
                 add((1.0, product(a, bstar)), (-q, product(bstar, a))),
                 add((1.0, product(bstar, b)), (-1.0, product(b, bstar)))]
    out = []
    for name, op in zip(names, words):
        absv = {}  # column rank -> |entries|, rows ascending
        for _, j, v in entries(op):
            absv.setdefault(j, []).append(np.abs(v))
        worst, witness = 0, None
        for j in np.flatnonzero(basis.shells <= basis.cap - margin).tolist():
            total = np.abs(np.zeros(1, dtype=op.dtype))[0]
            for v in absv.get(j, []):
                total = total + v * v  # one term at a time, rows ascending
            if total > worst:
                worst, witness = total, basis.point_of(j)
        out.append((name, float(worst) ** 0.5, witness))
    return out


@pytest.mark.parametrize("q", [0.47, -0.45, 0.999999, 0.0])
def test_relations_match_full_column_reference(q):
    for label, ops in _relation_cases(q).items():
        rep = check_relations(ops)
        want = _full_column_relations(ops)
        assert [(row.name, row.residual, row.witness) for row in rep.rows] == want, label


def test_relations_keep_q_terms_whose_weight_underflows():
    # q * q underflows to 0.0 here, but only q = 0 drops the q-weighted terms
    ops = {g: build_lambda(1e-170, 6, g) for g in ("alpha", "beta")}
    want = _full_column_relations(ops)
    assert want[1][0] == "aa*+q^2bb*-I"
    assert [(row.name, row.residual, row.witness) for row in check_relations(ops).rows] == want


@pytest.mark.parametrize("q", [0.47, 0.0])
def test_relations_compose_each_word_once(monkeypatch, q):
    real_compose, real_adjoint = representations.compose, representations.adjoint
    for label, ops in _relation_cases(q).items():
        a, b = ops["alpha"], ops["beta"]
        letter_of = {id(a): "a", id(b): "b"}
        formed = []  # keeps each adjoint alive, so its id is not reused
        composed = []

        def spy_adjoint(x):
            formed.append(real_adjoint(x))
            letter_of[id(formed[-1])] = letter_of[id(x)] + "*"
            return formed[-1]

        def spy_compose(x, y, columns):
            composed.append(letter_of[id(x)] + letter_of[id(y)])
            return real_compose(x, y, columns)

        monkeypatch.setattr(representations, "adjoint", spy_adjoint)
        monkeypatch.setattr(representations, "compose", spy_compose)
        check_relations({"alpha": a, "beta": b})
        assert sorted(letter_of[id(x)] for x in formed) == ["a*", "b*"], label
        want = (["a*a", "aa*", "ab", "ab*", "b*b", "bb*"] if q == 0.0
                else ["a*a", "aa*", "ab", "ab*", "b*a", "b*b", "ba", "bb*"])
        assert sorted(composed) == want, label


@pytest.mark.parametrize("q", [0.47, 0.0])
def test_relations_hold_at_most_three_words(monkeypatch, q):
    # b*b-bb* is evaluated right after a*a+b*b-I, which frees b*b and bb*
    # before aa* is formed; evaluated in table order, four words are alive.
    # The identity I is formed for each of the two relations that read it
    # and never held across a relation: 10 words formed (8 at q = 0).
    class Held(SparseOperator):  # a weakly referenceable copy of a formed word
        pass

    alive, counts = weakref.WeakSet(), []

    def formed(make):
        def spy(*args):
            op, held = make(*args), Held.__new__(Held)
            for slot in SparseOperator.__slots__:
                setattr(held, slot, getattr(op, slot))
            alive.add(held)
            counts.append(len(alive))
            return held
        return spy

    cases = _relation_cases(q)
    monkeypatch.setattr(representations, "compose", formed(representations.compose))
    # the one operator check_relations constructs itself is its identity word I
    monkeypatch.setattr(representations, "SparseOperator", formed(representations.SparseOperator))
    for label, ops in cases.items():
        counts.clear()
        check_relations(ops)
        assert len(counts) == (8 if q == 0.0 else 10) and max(counts) == 3, (label, counts)
        assert not alive, label


@pytest.mark.parametrize("q", [0.47, 0.0])
def test_relations_compute_interior_columns_only(monkeypatch, q):
    real_compose, real_worst = representations.compose, representations.worst_column
    columns_asked, columns_held = [], []

    def spy_compose(x, y, columns):
        columns_asked.append(columns)
        return real_compose(x, y, columns)

    def spy_worst(op, *rest):
        columns_held.append(np.unique([j for _, j, _ in entries(op)]).astype(np.intp))
        return real_worst(op, *rest)

    cases = _relation_cases(q)
    monkeypatch.setattr(representations, "compose", spy_compose)
    monkeypatch.setattr(representations, "worst_column", spy_worst)
    for label, ops in cases.items():
        columns_asked.clear()
        columns_held.clear()
        check_relations(ops)
        basis = ops["alpha"].domain
        inside = basis.shells <= basis.cap - 2
        assert columns_asked and all(c is not None and np.array_equal(c, inside)
                                     for c in columns_asked), label
        assert len(columns_held) == 5, label
        # at q = 0 every relation holds exactly and every column is empty
        assert q == 0.0 or any(c.size for c in columns_held), label
        assert all(inside[c].all() for c in columns_held), label


def test_irrep_examples():
    alpha, beta = build_irrep(0.5, 1.0, 8)
    assert to_dense(beta)[:, 0].tolist() == [1.0] + [0.0] * 7  # beta e0 = e0 at z=1
    assert not to_dense(alpha)[:, 0].any()  # alpha e0 = 0

    alpha, beta = build_irrep(0.5, 1j, 8)
    out = to_dense(beta)[:, 2]
    assert out[2] == pytest.approx(0.25j, abs=1e-15)
    assert not out[[0, 1, 3, 4, 5, 6, 7]].any()


@pytest.mark.parametrize("q", [0.5, -0.45, 0.999999])
def test_irrep_entries_exactly(q):
    # alpha e_k = g(k) e_{k-1} and beta e_k = z q^k e_k, entry for entry
    for z in (1, -1, 1j, 0.6 + 0.8j):
        for dim in (1, 3, 30):
            alpha, beta = build_irrep(q, z, dim)
            assert (alpha.dtype, beta.dtype) == (np.float64, np.complex128)
            assert entries(alpha) == [(k - 1, k, g(k, q)) for k in range(1, dim)]
            assert entries(beta) == [(k, k, z * q**k) for k in range(dim)]


def test_irrep_relations_over_circle():
    for theta in (0.0, 0.7, 2.1, -1.3):
        z = complex(math.cos(theta), math.sin(theta))
        alpha, beta = build_irrep(0.5, z, 20)
        rep = check_relations({"alpha": alpha, "beta": beta})
        assert all(r.residual < 1e-12 for r in rep.rows)


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
    assert all(r.residual < 1e-12 for r in rep.rows)


def test_coproduct_crystal_limit():
    q = 1e-4
    d_alpha, _ = coproduct_images(q, 4)
    a0 = build_pi(0.0, 4, "alpha")
    basis = d_alpha.domain
    crystal = tensor(a0, a0, basis, basis)
    assert np.abs(to_dense(d_alpha) - to_dense(crystal)).max() < 1e-3


def test_crystal_limit_distance_linear_in_q():
    ratios = []
    for q in (1e-1, 1e-2, 1e-3, 1e-4):
        for gen in ("alpha", "beta"):
            dist = np.abs(to_dense(build_lambda(q, 4, gen))
                          - to_dense(build_lambda(0.0, 4, gen))).max()
            assert dist <= 3 * q
            ratios.append(dist / q)
    assert max(ratios) / min(ratios) <= 2.0
