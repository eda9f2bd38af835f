"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np

from support import decay_loglog_slope, to_dense
from qsu2.cli import main
from qsu2.coefficients import verify_g_estimates
from qsu2.equivalence import (
    crosscheck_decomposition,
    decay_report,
    tail_norms,
    u_backward,
    u_forward,
    unitary_u,
    verify_q0_equivalence,
)
from qsu2.lattice import full_shell, gamma_basis
from qsu2.representations import (
    GENERATORS,
    build_lambda,
    build_pi,
    check_relations,
)

NORM_SLACK = 1e-8  # rounding slack of the exact block norms, equal to the CLI TAIL_SLACK


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def _report(num, ok, desc, seconds):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc} ({seconds:.2f} s)")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_exact_q0_intertwining(capsys):
    with _Timer() as t:
        assert len(gamma_basis(20)) == 3311
        rep = verify_q0_equivalence(20)
        ok = all(v == 0 for v in rep.mismatches.values())
        ok = ok and all(row.residual == 0 for rel in rep.relations.values() for row in rel.rows)
        ok = ok and len(rep.mismatches) == 4
        code = main(["verify-q0", "--cap", "20", "--out", "/dev/null"])
        ok = ok and code == 0
    with capsys.disabled():
        _report(1, ok, "exact q=0 intertwining, cap 20, zero mismatches", t.seconds)


def test_criterion_2_unitary_signed_permutation(capsys):
    with _Timer() as t:
        u = unitary_u(40)  # construction asserts the signed round trip
        sign, *image = u_forward(*u.domain.coords)
        back_sign, *back = u_backward(*image)
        ok = set(sign.tolist()) <= {-1, 1} and bool(np.all(sign * back_sign == 1))
        ok = ok and all(np.array_equal(p2, p) for p2, p in zip(back, u.domain.coords))
        ok = ok and bool(np.all(full_shell(*image) == u.domain.shells))
        ok = ok and all(np.array_equal(c[u.rows], f) for c, f in zip(u.codomain.coords, image))
        ok = ok and np.array_equal(np.sort(u.rows), np.arange(len(u.codomain)))
    with capsys.disabled():
        _report(2, ok, "U is a shell-preserving signed permutation to cap 40", t.seconds)


def test_criterion_3_defining_relations(capsys):
    with _Timer() as t:
        ok = True
        for q in (0.1, -0.1, 0.5, -0.5, 0.9):
            lam = {g: build_lambda(q, 12, g) for g in GENERATORS}
            pi = {g: build_pi(q, 12, g) for g in GENERATORS}
            for ops in (lam, pi):
                rep = check_relations(ops)  # shells <= 10
                ok = ok and len(rep.rows) == 5 and all(r.residual < 1e-12 for r in rep.rows)
    with capsys.disabled():
        _report(3, ok, "five defining relations < 1e-12 for lambda_q and pi_q", t.seconds)


def test_criterion_4_closed_form_vs_conjugation(capsys):
    with _Timer() as t:
        ok = True
        for q in (0.5, -0.5, 0.9):
            for gen in ("alpha", "beta"):
                deviation, _ = crosscheck_decomposition(q, 12, gen)
                ok = ok and deviation < 1e-13
    with capsys.disabled():
        _report(4, ok, "closed form = conjugation difference to 1e-13", t.seconds)


def test_criterion_5_g_estimates(capsys):
    with _Timer() as t:
        ok = True
        for q in (0.5, 0.9):
            rep = verify_g_estimates(q, 500)
            ok = ok and all(r.pass1 and r.pass2 for r in rep.rows)
            ok = ok and all(r.lhs1 < r.bound1 and r.lhs2 < r.bound2 for r in rep.rows)
    with capsys.disabled():
        _report(5, ok, "g-estimates hold for k = 1..500 at q in {0.5, 0.9}", t.seconds)


def test_criterion_6_decay_patterns(capsys):
    with _Timer() as t:
        ok = True
        for target in ("R1mR3", "R2mR4", "T1mT3", "T2mT4"):
            c5 = decay_report(0.5, 5, target).normalized_constant
            c10 = decay_report(0.5, 10, target).normalized_constant
            ok = ok and c5 > 0 and c10 > 0
            ok = ok and abs(c10 - c5) / c5 < 0.05
            slope = decay_loglog_slope((0.3, 0.2, 0.1), 10, target)
            ok = ok and abs(slope - 1.0) <= 0.10
    with capsys.disabled():
        _report(6, ok, "normalized constants stable under cap doubling, slopes within 10%", t.seconds)


def test_criterion_7_compactness_tails(capsys):
    with _Timer() as t:
        ok = True
        for gen in ("alpha", "beta"):
            norms = dict(tail_norms(0.5, 18, gen))
            for m in range(18):
                ok = ok and norms[m + 1] <= norms[m] + NORM_SLACK
            for m in range(6, 13):
                ok = ok and norms[m + 1] / norms[m] <= 0.6
    with capsys.disabled():
        _report(7, ok, "tail norms nonincreasing, ratio <= 0.6 on shells 6..12 (cap 18)", t.seconds)


def test_criterion_8_crystal_limit_convergence(capsys):
    with _Timer() as t:
        ok = True
        for gen in ("alpha", "beta"):
            ratios = []
            for q in (1e-1, 1e-2, 1e-3):
                dist = np.abs(to_dense(build_lambda(q, 8, gen))
                              - to_dense(build_lambda(0.0, 8, gen))).max()
                ok = ok and dist <= 3 * q
                ratios.append(dist / q)
            ok = ok and max(ratios) / min(ratios) <= 2.0
    with capsys.disabled():
        _report(8, ok, "crystal-limit distance <= 3|q| with stable ratio", t.seconds)


DETERMINISM_COMMANDS = [
    ["verify-q0", "--cap", "20"],
    ["verify-relations", "--q", "0.5", "--cap", "12", "--tol", "1e-12"],
    ["verify-equivalence", "--q", "0.5", "--cap", "12"],
    ["estimates", "--q", "0.5", "--kmax", "500"],
    ["decay", "--q", "0.5", "--cap", "10", "--target", "R1mR3"],
    ["decay", "--q", "0.5", "--cap", "10", "--target", "T2mT4", "--format", "csv"],
    ["tails", "--q", "0.5", "--cap", "10", "--gen", "alpha"],
    ["irrep", "--q", "0.5", "--z-re", "0.6", "--z-im", "0.8", "--dim", "24"],
]


def test_criterion_9_determinism(tmp_path, capsys):
    # tails runs at cap 10 here to keep the doubled run quick; byte-level
    # determinism does not depend on the cap.
    with _Timer() as t:
        ok = True
        for k, argv in enumerate(DETERMINISM_COMMANDS):
            blobs = []
            for run in range(2):
                out = tmp_path / f"cmd{k}_run{run}.txt"
                code = main(argv + ["--out", str(out)])
                ok = ok and code == 0
                blobs.append(out.read_bytes())
            ok = ok and blobs[0] == blobs[1]
            if argv[0] not in ("decay",) or "--format" not in argv:
                json.loads(blobs[0])  # json reports parse
    with capsys.disabled():
        _report(9, ok, "byte-identical reports across repeated runs", t.seconds)
