"""The crystal-limit unitary, conjugation, the difference operators, and
the diagnostics certifying their compactness structure.

The unitary U flattens the pyramid Gamma sheet by sheet onto
N x N x Z: a point (n, i, j) goes to (n - (i v j), n + (i ^ j), j - i)
with sign (-1)^((i v j) - j).  U preserves shells (r + s + |t| = 2n), so
the same cap truncates both sides.  At q = 0 conjugation by U carries
the GNS generators exactly onto I (x) pi_0.  For q != 0 the differences

    D_a = U lambda_q(a) U* - I (x) pi_q(a)

decompose into diagonal coefficient operators (R1, R2 for alpha, T1, T2
for beta) times coordinate shifts, and the diagnostics here certify the
decays that place D_a in (Toeplitz) (x) (compacts of the (s, t) factor):
the (s, t) tail norms die geometrically while the Toeplitz direction r
does not decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import float_mode, g, t_parts
from .lattice import FullIndex, GammaIndex, PiIndex, full_basis, full_shell, gamma_basis, pi_basis
from .operator_core import (
    SparseOperator,
    add,
    adjoint,
    block_norm,
    build_from_rule,
    columns_equal_exact,
    compose,
    diagonal,
    max_abs_entry_per_shell,
    max_entry_difference,
)
from .representations import (
    Generator,
    RelationReport,
    _as_generator,
    build_ipi,
    build_lambda,
    build_pi,
    check_relations,
)


@dataclass(frozen=True)
class SignedIndexMap:
    """A signed bijection between truncated bases (houses U and U*).

    forward maps a Gamma point to (sign, full point); backward inverts it,
    and the round-trip sign product is +1 at every point.
    """

    domain: object  # gamma basis
    codomain: object  # full basis
    forward: dict
    backward: dict


def u_forward(p: GammaIndex) -> tuple[int, FullIndex]:
    """Image of a Gamma point: sign (-1)^((i v j) - j), point
    (n - (i v j), n + (i ^ j), j - i)."""
    n2, i2, j2 = p
    hi = max(i2, j2)
    lo = min(i2, j2)
    sign = -1 if ((hi - j2) // 2) % 2 else 1
    return sign, FullIndex((n2 - hi) // 2, (n2 + lo) // 2, (j2 - i2) // 2)


def u_backward(p: FullIndex) -> tuple[int, GammaIndex]:
    """Image of a full-lattice point under U*: sign (-1)^(t_minus), point
    with 2n = r + s + |t|, 2i = -r + s - t, 2j = -r + s + t."""
    r, s, t = p
    _, tm = t_parts(t)
    sign = -1 if tm % 2 else 1
    return sign, GammaIndex(r + s + abs(t), -r + s - t, -r + s + t)


def unitary_u(cap: int) -> SignedIndexMap:
    """The sheet-flattening unitary on the shell-capped lattices."""
    dom = gamma_basis(cap)
    cod = full_basis(cap)
    forward = {}
    backward = {}
    for p in dom.points:
        forward[p] = u_forward(p)
    for f in cod.points:
        backward[f] = u_backward(f)
    for p, (s1, f) in forward.items():
        s2, p2 = backward[f]
        assert p2 == p and s1 * s2 == 1, f"unitary round trip failed at {p}"
        assert full_shell(f) == p.n2, f"unitary broke the shell grading at {p}"
    return SignedIndexMap(dom, cod, forward, backward)


def conjugate(op: SparseOperator, u: SignedIndexMap) -> SparseOperator:
    """Matrix of U op U* on the full-lattice basis (signed re-indexing only)."""
    if len(op.domain) != len(u.domain) or op.domain.points != u.domain.points:
        raise ValueError("cap mismatch between operator and unitary")
    cod = u.codomain
    gamma = u.domain
    fwd_rank = {}
    for p, (sgn, f) in u.forward.items():
        fwd_rank[gamma.index_of(p)] = (sgn, cod.index_of(f))
    cols = []
    for f in cod.points:
        sb, p = u.backward[f]
        col = []
        for i, v in op.cols[gamma.index_of(p)]:
            sf, i_new = fwd_rank[i]
            col.append((i_new, v * (sb * sf)))
        cols.append(col)
    return SparseOperator(cod, cod, cols, op.mode)


def difference(q: float, cap: int, gen) -> SparseOperator:
    """D_gen = U lambda_q(gen) U* - I (x) pi_q(gen) on the capped full lattice."""
    gen = _as_generator(gen)
    if gen.starred:
        raise ValueError("difference is defined for the unstarred generators")
    if q == 0.0:
        raise ValueError("q=0 is exact: use verify_q0_equivalence")
    conj = conjugate(build_lambda(q, cap, gen), unitary_u(cap))
    return add(conj, build_ipi(q, cap, gen), 1.0, -1.0)


# Diagonal coefficient operators.  R1, R2, T1, T2 live on the full lattice,
# R3, R4, T3, T4 on the (s, t) factor.

def _r1_value(q: float, p: FullIndex) -> float:
    r, s, t = p
    tp, tm = t_parts(t)
    m = r + s + abs(t)
    return (
        q ** (2 * s + abs(t) + 1)
        * g(r + tm + 1, q) * g(r + tp + 1, q)
        / (g(m + 1, q) * g(m + 2, q))
    )


def _r2_value(q: float, p: FullIndex) -> float:
    r, s, t = p
    tp, tm = t_parts(t)
    m = r + s + abs(t)
    return g(s + tp + 1, q) * g(s + tm + 1, q) / (g(m + 1, q) * g(m + 2, q)) - g(s + 1, q)


def _t1_value(q: float, p: FullIndex) -> float:
    """Displayed three-case form: zero on the fiber (r, s) = (0, 0)."""
    r, s, t = p
    if r == 0 and s == 0:
        return 0.0
    return _t1_branch(q, p)


def _t1_branch(q: float, p: FullIndex) -> float:
    """The two t-branches of T1 without the (0, 0) case.

    On t >= 0 the numerator g(r)g(s) vanishes whenever r = 0 or s = 0, which
    also sidesteps the 0/0 site at (0, 0, 0); the t < 0 branch is regular
    everywhere and is genuinely nonzero on the (0, 0) fiber, where the exact
    closed-form decomposition needs it.
    """
    r, s, t = p
    m = r + s + abs(t)
    if t >= 0:
        if r == 0 or s == 0:
            return 0.0
        return -(q ** (s + abs(t))) * g(r, q) * g(s, q) / (g(m, q) * g(m + 1, q))
    return -(q ** (s + abs(t))) * g(r + 1, q) * g(s + 1, q) / (g(m + 1, q) * g(m + 2, q))


def _t2_value(q: float, p: FullIndex) -> float:
    r, s, t = p
    m = r + s + abs(t)
    if t >= 0:
        return q**s * (g(r + abs(t) + 1, q) * g(s + abs(t) + 1, q) / (g(m + 1, q) * g(m + 2, q)) - 1.0)
    return q**s * (g(r + abs(t), q) * g(s + abs(t), q) / (g(m, q) * g(m + 1, q)) - 1.0)


def _t3_value(q: float, p: PiIndex) -> float:
    s, t = p
    if t >= 0:
        return -(q ** (s + abs(t))) * g(s, q)
    return -(q ** (s + abs(t))) * g(s + 1, q)


def _t4_value(q: float, p: PiIndex) -> float:
    s, t = p
    if t >= 0:
        return q**s * (g(s + abs(t) + 1, q) - 1.0)
    return q**s * (g(s + abs(t), q) - 1.0)


def build_R(q: float, cap: int, which: int) -> SparseOperator:
    """Diagonal R coefficients; R1, R2 on the full lattice, R3, R4 on (s, t)."""
    mode = float_mode(q)
    if which == 1:
        return diagonal(full_basis(cap), lambda p: _r1_value(q, p), mode)
    if which == 2:
        return diagonal(full_basis(cap), lambda p: _r2_value(q, p), mode)
    if which == 3:
        return diagonal(pi_basis(cap), lambda p: q ** (2 * p.s + abs(p.t) + 1), mode)
    if which == 4:
        return diagonal(pi_basis(cap), lambda p: g(p.s + 1, q) * (g(p.s + abs(p.t) + 1, q) - 1.0), mode)
    raise ValueError(f"unknown R index {which}")


def build_T(q: float, cap: int, which: int) -> SparseOperator:
    """Diagonal T coefficients; T1, T2 on the full lattice, T3, T4 on (s, t)."""
    mode = float_mode(q)
    if which == 1:
        return diagonal(full_basis(cap), lambda p: _t1_value(q, p), mode)
    if which == 2:
        return diagonal(full_basis(cap), lambda p: _t2_value(q, p), mode)
    if which == 3:
        return diagonal(pi_basis(cap), lambda p: _t3_value(q, p), mode)
    if which == 4:
        return diagonal(pi_basis(cap), lambda p: _t4_value(q, p), mode)
    raise ValueError(f"unknown T index {which}")


def lift_pi_diagonal(op: SparseOperator, cap: int) -> SparseOperator:
    """I (x) diag: lift an (s, t)-factor diagonal to the full lattice."""
    values = {}
    for j, col in enumerate(op.cols):
        if col:
            values[op.domain.point_of(j)] = col[0][1]
    return diagonal(
        full_basis(cap),
        lambda p: values.get(PiIndex(p.s, p.t), 0.0),
        op.mode,
    )


# Coordinate shifts on the full lattice (boundary targets dropped).

def _shift_op(q: float, cap: int, delta_r: int, delta_s: int, delta_t: int) -> SparseOperator:
    basis = full_basis(cap)
    mode = float_mode(q)

    def rule(p: FullIndex):
        r, s, t = p.r + delta_r, p.s + delta_s, p.t + delta_t
        if r < 0 or s < 0:
            return []
        return [(FullIndex(r, s, t), 1.0)]

    return build_from_rule(basis, basis, rule, mode)


def closed_form(q: float, cap: int, gen) -> SparseOperator:
    """Assemble D_gen from the displayed diagonal coefficients and shifts.

    alpha: (S* (x) I (x) I) R1 + R2 (I (x) S (x) I), the first diagonal
    evaluated before the r-shift and the second after the s-shift.  beta:
    each t-branch of T1 rides its own shift, the t >= 0 branch on
    S* (x) S* (x) S and the t < 0 branch on S (x) S (x) S, plus
    T2 (I (x) I (x) S); the t < 0 branch keeps its nonzero values on the
    (0, 0) fiber, which the identity requires.
    """
    gen = _as_generator(gen)
    mode = float_mode(q)
    basis = full_basis(cap)
    if gen is Generator.ALPHA:
        term1 = compose(_shift_op(q, cap, +1, 0, 0), build_R(q, cap, 1))
        term2 = compose(build_R(q, cap, 2), _shift_op(q, cap, 0, -1, 0))
        return add(term1, term2)
    if gen is Generator.BETA:
        t1_plus = diagonal(basis, lambda p: _t1_branch(q, p) if p.t >= 0 else 0.0, mode)
        t1_minus = diagonal(basis, lambda p: _t1_branch(q, p) if p.t < 0 else 0.0, mode)
        term1 = compose(t1_plus, _shift_op(q, cap, +1, +1, -1))
        term2 = compose(t1_minus, _shift_op(q, cap, -1, -1, -1))
        term3 = compose(build_T(q, cap, 2), _shift_op(q, cap, 0, 0, -1))
        return add(add(term1, term2), term3)
    raise ValueError("closed forms exist for the unstarred generators")


@dataclass(frozen=True)
class CrosscheckResult:
    deviation: float
    witness: object
    vacuous: bool


def crosscheck_decomposition(q: float, cap: int, gen) -> CrosscheckResult:
    """Max entrywise deviation between the closed form and the direct
    conjugation difference, over columns of shell <= cap - 1.

    The two sides come from independent construction paths: the difference
    conjugates the Clebsch-Gordan action through the unitary, the closed
    form evaluates the displayed diagonal coefficients in (r, s, t)
    coordinates.
    """
    d = difference(q, cap, gen)
    cf = closed_form(q, cap, gen)
    basis = d.domain
    interior = [j for j in range(len(basis)) if basis.shells[j] <= cap - 1]
    if not interior:
        return CrosscheckResult(0.0, None, True)
    dev, witness = max_entry_difference(cf, d, columns=interior)
    return CrosscheckResult(dev, witness, False)


_PATTERNS = {
    "R1mR3": ("2r+2s+|t|+1", lambda p: 2 * p.r + 2 * p.s + abs(p.t) + 1),
    "R2mR4": ("2r+2s+2|t|", lambda p: 2 * p.r + 2 * p.s + 2 * abs(p.t)),
    "T1mT3": ("r+s+|t|", lambda p: p.r + p.s + abs(p.t)),
    "T2mT4": ("r+s+|t|", lambda p: p.r + p.s + abs(p.t)),
    # The differences do not decay along the Toeplitz direction r, so their
    # claimed exponents involve only the compact (s, t) coordinates.
    "Dalpha": ("2s+|t|+1", lambda p: 2 * p.s + abs(p.t) + 1),
    "Dbeta": ("s+|t|", lambda p: p.s + abs(p.t)),
}

DECAY_TARGETS = tuple(_PATTERNS)


def _decay_target_matrix(q: float, cap: int, target: str) -> SparseOperator:
    if target == "R1mR3":
        return add(build_R(q, cap, 1), lift_pi_diagonal(build_R(q, cap, 3), cap), 1.0, -1.0)
    if target == "R2mR4":
        return add(build_R(q, cap, 2), lift_pi_diagonal(build_R(q, cap, 4), cap), 1.0, -1.0)
    if target == "T1mT3":
        return add(build_T(q, cap, 1), lift_pi_diagonal(build_T(q, cap, 3), cap), 1.0, -1.0)
    if target == "T2mT4":
        return add(build_T(q, cap, 2), lift_pi_diagonal(build_T(q, cap, 4), cap), 1.0, -1.0)
    if target == "Dalpha":
        return difference(q, cap, Generator.ALPHA)
    if target == "Dbeta":
        return difference(q, cap, Generator.BETA)
    raise ValueError(f"unknown decay target {target!r}")


@dataclass(frozen=True)
class DecayReport:
    target: str
    q: float
    cap: int
    pattern: str
    shell_max: tuple[tuple[int, float], ...]
    normalized_constant: float
    fitted_ratio: float


def decay_report(q: float, cap: int, target: str) -> DecayReport:
    """Per-shell maxima of a difference target, its normalized constant
    C = max |entry| / |q|^pattern, and a fitted geometric tail ratio."""
    if target not in _PATTERNS:
        raise ValueError(f"unknown decay target {target!r}")
    pattern_name, pattern = _PATTERNS[target]
    mat = _decay_target_matrix(q, cap, target)
    shell_max = [v for _, v in max_abs_entry_per_shell(mat)]
    constant = 0.0
    for _, j, v in mat.entries():
        normalized = abs(v) / abs(q) ** pattern(mat.domain.point_of(j))
        if normalized > constant:
            constant = normalized
    ratios = [
        shell_max[m + 1] / shell_max[m]
        for m in range(cap)
        if shell_max[m] > 0 and shell_max[m + 1] > 0
    ]
    if ratios:
        lo = len(ratios) // 3
        hi = max(lo + 1, (2 * len(ratios)) // 3)
        mid = ratios[lo:hi]
        fitted = math.exp(sum(math.log(r) for r in mid) / len(mid))
    else:
        fitted = 0.0
    return DecayReport(
        target, q, cap, pattern_name, tuple(enumerate(shell_max)), constant, fitted
    )


def shell_min_pattern(cap: int, target: str) -> dict[int, int]:
    """Per shell, the smallest claimed exponent over the shell's points."""
    _, pattern = _PATTERNS[target]
    out: dict[int, int] = {}
    for p in full_basis(cap).points:
        m = full_shell(p)
        e = pattern(p)
        if m not in out or e < out[m]:
            out[m] = e
    return out


def decay_loglog_slope(q_grid, cap: int, target: str, noise_floor: float = 1e-13) -> float:
    """Pooled log-log regression slope of per-shell maxima against the
    claimed q-power, across shells and the q grid; ~1 when the claimed
    exponents match the measured decay.

    Shells whose claimed exponent is 0 carry no scaling information (the
    bound there is a constant) and are left out, as are values below the
    noise floor: the diagonal entries come from differences of O(1)
    quantities, so values near machine epsilon are cancellation noise, not
    decay data.
    """
    minp = shell_min_pattern(cap, target)
    if max(minp.values()) == 0:
        raise ValueError(
            f"target {target!r} has no shellwise-decaying claimed pattern to fit"
        )
    xs = []
    ys = []
    for q in q_grid:
        rep = decay_report(q, cap, target)
        for m, v in rep.shell_max:
            if v > noise_floor and minp[m] > 0:
                xs.append(minp[m] * math.log(abs(q)))
                ys.append(math.log(v))
    if len(xs) < 2:
        raise ValueError("not enough nonzero shells for a slope fit")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def tail_norms(q: float, cap: int, gen) -> list[tuple[int, float]]:
    """Operator norms of D_gen restricted to the (s, t) tails s + |t| >= m.

    Geometric decay in m certifies compactness in the (s, t) factor; the
    Toeplitz direction r carries shifts and does not decay.  D_alpha keeps
    t and D_beta lowers it by one, so columns with distinct t hit disjoint
    rows and every tail norm is an exact block norm over the column t.
    """
    d = difference(q, cap, gen)
    out = []
    for m in range(cap + 1):
        blocks: dict[int, list[int]] = {}
        for j, p in enumerate(d.domain.points):
            if p.s + abs(p.t) >= m:
                blocks.setdefault(p.t, []).append(j)
        out.append((m, block_norm(d, blocks.values())))
    return out


@dataclass(frozen=True)
class Q0EquivalenceReport:
    cap: int
    passed: bool
    mismatches: dict
    witness: object
    relations: dict  # "lambda0"/"pi0" -> RelationReport; empty below cap 2


def verify_q0_equivalence(cap: int) -> Q0EquivalenceReport:
    """Exact check that conjugating lambda_0 by U gives I (x) pi_0.

    Integer comparison over all columns of shell <= cap - 1 for both
    generators and their adjoints.  From cap 2 on, the crystal relations of
    lambda_0 and pi_0 are checked on the same sections; they run before U
    is built and each section is dropped once conjugated, which bounds the
    peak memory.  Passes only with zero mismatches, including signs, and
    zero relation residuals.
    """
    if cap < 1:
        raise ValueError("no interior: verify_q0_equivalence needs cap >= 1")
    base = (Generator.ALPHA, Generator.BETA)
    lam = {gen: build_lambda(0.0, cap, gen) for gen in base}
    relations: dict[str, RelationReport] = {}
    if cap >= 2:
        relations["lambda0"] = check_relations(lam)
        relations["pi0"] = check_relations({gen: build_pi(0.0, cap, gen) for gen in base})
    u = unitary_u(cap)
    basis = full_basis(cap)
    interior = [j for j in range(len(basis)) if basis.shells[j] <= cap - 1]
    checks = {}
    for gen, star in ((Generator.ALPHA, Generator.ALPHA_STAR), (Generator.BETA, Generator.BETA_STAR)):
        lhs = conjugate(lam.pop(gen), u)
        rhs = build_ipi(0.0, cap, gen)
        checks[gen] = columns_equal_exact(lhs, rhs, interior)
        lhs = adjoint(lhs)
        rhs = adjoint(rhs)
        checks[star] = columns_equal_exact(lhs, rhs, interior)
    mismatches = {}
    witness = None
    for gen in Generator:
        count, w = checks[gen]
        mismatches[gen.value] = count
        if witness is None and w is not None:
            witness = (gen.value, w)
    passed = all(v == 0 for v in mismatches.values()) and all(
        rel.max_residual == 0.0 for rel in relations.values())
    return Q0EquivalenceReport(cap, passed, mismatches, witness, relations)
