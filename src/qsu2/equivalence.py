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

import numpy as np

from .coefficients import EXACT_ZERO, float_mode, g_table, power_table, t_parts
from .lattice import (
    full_basis,
    full_shell,
    gamma_basis,
    is_valid_full,
    is_valid_gamma,
)
from .operator_core import (
    SparseOperator,
    Term,
    add,
    adjoint,
    build_from_rule,
    column_max_abs,
    conjugate,
    max_entry_difference,
)
from .representations import (
    GENERATORS,
    RelationReport,
    build_ipi,
    build_lambda,
    build_pi,
    check_relations,
)


def u_forward(n2, i2, j2):
    """Image of Gamma points, elementwise: (sign, r, s, t) with sign
    (-1)^((i v j) - j) and point (n - (i v j), n + (i ^ j), j - i)."""
    hi = np.maximum(i2, j2)
    lo = np.minimum(i2, j2)
    sign = 1 - 2 * ((hi - j2) // 2 % 2)
    return sign, (n2 - hi) // 2, (n2 + lo) // 2, (j2 - i2) // 2


def u_backward(r, s, t):
    """Image of full-lattice points under U*, elementwise: (sign, n2, i2, j2)
    with sign (-1)^(t_minus), 2n = r + s + |t|, 2i = -r + s - t,
    2j = -r + s + t."""
    sign = 1 - 2 * (t_parts(t)[1] % 2)
    return sign, r + s + abs(t), -r + s - t, -r + s + t


def unitary_u(cap: int) -> SparseOperator:
    """The sheet-flattening unitary on the shell-capped lattices, an exact
    signed permutation: one term, the ranks of the images and their signs."""
    dom = gamma_basis(cap)
    cod = full_basis(cap)
    sign, *image = u_forward(*dom.coords)
    bad = ~is_valid_full(*image) | (full_shell(*image) != dom.shells)
    assert not bad.any(), f"unitary broke the shell grading at {dom.point_of(int(np.argmax(bad)))}"
    perm = cod.rank(*image)
    back_sign, *back = u_backward(*cod.coords)
    assert is_valid_gamma(*back).all(), "U* left the Gamma lattice"
    back_rank = dom.rank(*back)
    bad = (back_rank[perm] != np.arange(len(dom))) | (sign * back_sign[perm] != 1)
    assert not bad.any(), f"unitary round trip failed at {dom.point_of(int(np.argmax(bad)))}"
    return SparseOperator(dom, cod, [Term(None, perm, sign)], EXACT_ZERO)


def difference(q: float, cap: int, gen: str) -> SparseOperator:
    """D_gen = U lambda_q(gen) U* - I (x) pi_q(gen) on the capped full lattice."""
    float_mode(q)  # refuses q = 0, which verify_q0_equivalence checks exactly, and |q| >= 1
    conj = conjugate(build_lambda(q, cap, gen), unitary_u(cap))
    return add((1.0, conj), (-1.0, build_ipi(q, cap, gen)))


# Diagonal coefficients.  R1, R2 (alpha) and T1, T2 (beta) are the
# coefficients of the closed forms; R3, R4, T3, T4 are their (s, t)-factor
# counterparts.  All eight are value arrays on the full lattice, evaluated
# on its coordinate arrays from per-call tables of g(k, q) and q**e; the
# factor ones read only (s, t), so they are I (x) R3, ..., I (x) T4.

def _tables(q: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    return g_table(q, cap + 2), power_table(q, 2 * cap + 2)


def _t1_branch_values(q: float, cap: int) -> np.ndarray:
    """The two t-branches of T1 without the (0, 0) case.

    On t >= 0 the numerator g(r)g(s) vanishes whenever r = 0 or s = 0, which
    also sidesteps the 0/0 site at (0, 0, 0): those points are 0 and not
    evaluated.  The t < 0 branch, which reads g one index higher, is regular
    everywhere and is genuinely nonzero on the (0, 0) fiber, where the exact
    closed-form decomposition needs it.
    """
    gt, qp = _tables(q, cap)
    r, s, t = full_basis(cap).coords
    out = np.zeros(len(r))
    live = (t < 0) | ((r > 0) & (s > 0))
    r, s, t = r[live], s[live], t[live]
    o = t < 0
    m = r + s + abs(t)
    out[live] = -(qp[s + abs(t)]) * gt[r + o] * gt[s + o] / (gt[m + o] * gt[m + 1 + o])
    return out


def diagonal_values(q: float, cap: int, name: str) -> np.ndarray:
    """Values of the diagonal coefficient ``name`` (R1..R4, T1..T4) at the
    points of full_basis(cap), in rank order.

    T1 is the displayed three-case form: zero on the fiber (r, s) = (0, 0).
    Each of T2, T3, T4 has a t >= 0 and a t < 0 branch that differ only in
    the index of g read, so both are one expression with offset o = [t >= 0]
    (T3: o = [t < 0]); on t < 0 no g(0) lands in a denominator.
    """
    float_mode(q)  # refuses q = 0, which has no float diagonals, and |q| >= 1
    gt, qp = _tables(q, cap)
    r, s, t = full_basis(cap).coords
    tp, tm = t_parts(t)
    a = abs(t)
    m = r + s + a
    o = t >= 0
    formulas = {
        "R1": lambda: qp[2 * s + a + 1] * gt[r + tm + 1] * gt[r + tp + 1] / (gt[m + 1] * gt[m + 2]),
        "R2": lambda: gt[s + tp + 1] * gt[s + tm + 1] / (gt[m + 1] * gt[m + 2]) - gt[s + 1],
        "R3": lambda: qp[2 * s + a + 1],
        "R4": lambda: gt[s + 1] * (gt[s + a + 1] - 1.0),
        "T1": lambda: np.where((r == 0) & (s == 0), 0.0, _t1_branch_values(q, cap)),
        "T2": lambda: qp[s] * (gt[r + a + o] * gt[s + a + o] / (gt[m + o] * gt[m + 1 + o]) - 1.0),
        "T3": lambda: -(qp[s + a]) * gt[s + (t < 0)],
        "T4": lambda: qp[s] * (gt[s + a + o] - 1.0),
    }
    if name not in formulas:
        raise ValueError(f"unknown diagonal {name!r}")
    return formulas[name]()


# The shifts (dr, ds, dt) of D_gen, term by term of its closed form.
D_SHIFTS = {"alpha": ((1, 0, 0), (0, -1, 0)), "beta": ((1, 1, -1), (-1, -1, -1), (0, 0, -1))}


def closed_form(q: float, cap: int, gen: str) -> SparseOperator:
    """Assemble D_gen from the displayed diagonal coefficients and shifts.

    alpha: (S* (x) I (x) I) R1 + R2 (I (x) S (x) I), the first diagonal
    evaluated before the r-shift and the second after the s-shift.  beta:
    each t-branch of T1 rides its own shift, the t >= 0 branch on
    S* (x) S* (x) S and the t < 0 branch on S (x) S (x) S, plus
    T2 (I (x) I (x) S); the t < 0 branch keeps its nonzero values on the
    (0, 0) fiber, which the identity requires.  The rule's terms are the
    shifts of D_SHIFTS[gen], in order, each valued by its diagonal at the
    column (R1) or at the target (R2, T1, T2); a target off the lattice
    takes the value 0.
    """
    mode = float_mode(q)
    if gen not in D_SHIFTS:
        raise ValueError(f"unknown generator {gen!r}: choose alpha or beta")
    basis = full_basis(cap)
    shifts = D_SHIFTS[gen]

    def at(values, shift):
        """values at every point moved by shift: 0 off the lattice and above the cap."""
        target = [c + d for c, d in zip(basis.coords, shift)]
        rank = np.where(basis.valid(*target), basis.rank(*target), -1)
        return np.append(values, 0.0)[rank]

    if gen == "alpha":
        values = [diagonal_values(q, cap, "R1"), at(diagonal_values(q, cap, "R2"), shifts[1])]
    else:
        t = basis.coords[2]
        branch = _t1_branch_values(q, cap)
        values = [at(v, shift) for v, shift in zip(
            (np.where(t >= 0, branch, 0.0), np.where(t < 0, branch, 0.0),
             diagonal_values(q, cap, "T2")), shifts)]
    return build_from_rule(basis, basis, lambda *p: list(zip(shifts, values)), mode)


def crosscheck_decomposition(q: float, cap: int, gen: str) -> tuple[float, object]:
    """Max entrywise deviation between the closed form and the direct
    conjugation difference, over columns of shell <= cap - 1, and the
    witnessing (row, column) pair.

    The two sides come from independent construction paths: the difference
    conjugates the Clebsch-Gordan action through the unitary, the closed
    form evaluates the displayed diagonal coefficients in (r, s, t)
    coordinates.
    """
    if cap < 1:
        raise ValueError("no interior: crosscheck_decomposition needs cap >= 1")
    d = difference(q, cap, gen)
    cf = closed_form(q, cap, gen)
    interior = np.flatnonzero(d.domain.shells <= cap - 1)
    return max_entry_difference(cf, d, columns=interior)


# Decay targets: the parts whose difference is measured (two diagonals,
# or the generator of a difference operator) and the claimed exponent as a
# function of the full-lattice coordinates (r, s, t).
_PATTERNS = {
    "R1mR3": (("R1", "R3"), "2r+2s+|t|+1", lambda r, s, t: 2 * r + 2 * s + abs(t) + 1),
    "R2mR4": (("R2", "R4"), "2r+2s+2|t|", lambda r, s, t: 2 * r + 2 * s + 2 * abs(t)),
    "T1mT3": (("T1", "T3"), "r+s+|t|", lambda r, s, t: r + s + abs(t)),
    "T2mT4": (("T2", "T4"), "r+s+|t|", lambda r, s, t: r + s + abs(t)),
    # The differences do not decay along the Toeplitz direction r, so their
    # claimed exponents involve only the compact (s, t) coordinates.
    "Dalpha": ("alpha", "2s+|t|+1", lambda r, s, t: 2 * s + abs(t) + 1),
    "Dbeta": ("beta", "s+|t|", lambda r, s, t: s + abs(t)),
}

DECAY_TARGETS = tuple(_PATTERNS)


@dataclass(frozen=True)
class DecayReport:
    pattern: str
    shell_max: tuple[tuple[int, float], ...]
    shell_exponent: tuple[int, ...]  # per shell, the least claimed exponent over its points
    normalized_constant: float
    fitted_ratio: float


def decay_report(q: float, cap: int, target: str) -> DecayReport:
    """Per-shell maxima of a difference target, the least claimed exponent
    per shell, the normalized constant C = max |entry| / |q|^pattern, and a
    fitted geometric tail ratio."""
    if target not in _PATTERNS:
        raise ValueError(f"unknown decay target {target!r}")
    parts, pattern_name, pattern = _PATTERNS[target]
    if isinstance(parts, str):
        column_max = column_max_abs(difference(q, cap, parts))
    else:  # a diagonal difference: one entry per column
        column_max = np.abs(diagonal_values(q, cap, parts[0]) - diagonal_values(q, cap, parts[1]))
    shells = full_basis(cap).shells  # shell-major: each shell is one run of ranks
    shell_max = np.maximum.reduceat(column_max, np.searchsorted(shells, np.arange(cap + 1))).tolist()
    point_exponents = pattern(*full_basis(cap).coords)
    shell_exponent = np.full(cap + 1, point_exponents.max())
    np.minimum.at(shell_exponent, shells, point_exponents)
    scale = power_table(abs(q), int(point_exponents.max()))[point_exponents]
    with np.errstate(divide="ignore", invalid="ignore"):  # |q|^e underflowing to 0 gives inf
        normalized = np.where(column_max != 0, column_max / scale, 0.0)  # (an empty column's 0/0 too)
    constant = float(np.max(normalized, initial=0.0))
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
    else:  # no two consecutive nonzero shells: nothing was fitted
        fitted = float("nan")
    return DecayReport(pattern_name, tuple(enumerate(shell_max)),
                       tuple(shell_exponent.tolist()), constant, fitted)


def tail_norms(q: float, cap: int, gen: str) -> list[tuple[int, float]]:
    """Operator norms of D_gen restricted to the (s, t) tails s + |t| >= m.

    Geometric decay in m certifies compactness in the (s, t) factor; the
    Toeplitz direction r carries shifts and does not decay.  The shifts of
    D, D_SHIFTS[gen], move (t, r - s) by one common offset, so D is
    block-diagonal over the chains of columns with fixed (t, r - s), each
    indexed by s, and every tail is a suffix of every chain.  Column s of
    a chain sits at i = s - s_min and feeds only row slots j = i..i+2 (row
    s' at s' - s_min + 1): the term of shift (dr, ds, dt) is the band
    diagonal band[c, i, ds + 1], so the suffix of width w from column k
    is the (w + 2) x w block at slots k..k+w+1.  A D carrying any other
    shift raises AssertionError.

    Each suffix is bracketed in O(width): lo is its largest column 2-norm,
    hi the Schur test sqrt(max col abs-sum) * sqrt(max row abs-sum), two
    roots so nothing underflows.  floor[m] is the largest lo over the
    suffixes tail m reads, and a suffix is solved unless hi * (1 + 1e-10)
    < floor[m] for every m reading it (a NaN keeps it, so LAPACK still
    refuses a NaN).  The chain attaining the floor is always solved, and a
    skipped suffix lies below it by far more than SVD and summation error,
    so each maximum is the LAPACK value an unpruned solve gives.  Each w
    takes one batched dense spectral norm (LAPACK SVD) of its surviving
    blocks; floor <= norm <= max hi is checked to 1e-10, else AssertionError.
    """
    d = difference(q, cap, gen)
    r, s, t = d.domain.coords
    _, first, chain = np.unique((t + cap) * (2 * cap + 1) + r - s, return_index=True,
                                return_inverse=True)
    n = len(first)
    s_min = np.full(n, cap)
    np.minimum.at(s_min, chain, s)
    length = np.zeros(n, dtype=np.intp)
    np.maximum.at(length, chain, s - s_min[chain] + 1)
    width = int(length.max())
    band = np.zeros((n, width + 1, 3))  # column `width` stays empty
    for term in d.terms:
        if term.shift not in D_SHIFTS[gen]:
            raise AssertionError(f"D_{gen} carries the shift {term.shift!r}, which leaves "
                                 "its (t, r - s) chains or their band of row slots")
        band[chain, s - s_min[chain], term.shift[1] + 1] = term.values
    a = np.abs(band)

    def from_k(x):  # x[c, k] -> max over i >= k of x[c, i]
        return np.maximum.accumulate(x[:, ::-1], axis=1)[:, ::-1]

    row_sum = np.zeros((n, width + 3))  # abs-sum of every row slot over the whole chain
    for j in range(3):
        row_sum[:, j:j + width + 1] += a[..., j]
    edge = a[..., 1].copy()  # slot k + 1 loses column k - 1 in the suffix from k
    edge[:, :-1] += a[:, 1:, 0]
    lo = from_k(np.hypot(np.hypot(a[..., 0], a[..., 1]), a[..., 2]))
    hi = np.sqrt(from_k(a.sum(axis=2))) * np.sqrt(
        np.maximum(np.maximum(from_k(row_sum[:, 2:]), edge), a[..., 0]))
    offset = np.clip(np.arange(cap + 1)[:, None] - abs(t[first]) - s_min, 0, width)
    at = (np.arange(n), offset)  # [m, c]: the suffix of chain c that tail m reads
    floor, slack = lo[at].max(axis=1), 1 + 1e-10
    solve = np.zeros((n, width + 1), dtype=bool)
    c, k = np.broadcast_arrays(*at)
    keep = ~(hi[at] * slack < floor[:, None])
    solve[c[keep], k[keep]] = True  # only True is written, so repeated (c, k) agree
    suffix = np.zeros((n, width + 1))  # suffix[c, k]: norm of chain c from column k on
    for w in range(1, width + 1):
        c = np.flatnonzero(length >= w)
        c = c[solve[c, length[c] - w]]
        k, i = length[c] - w, np.arange(w)
        blocks = np.zeros((len(c), w + 2, w), dtype=band.dtype)
        blocks[:, i[:, None] + np.arange(3), i[:, None]] = band[c[:, None], k[:, None] + i]
        suffix[c, k] = np.linalg.norm(blocks, 2, axis=(1, 2))
    value = suffix[at].max(axis=1)
    bad = ~((floor <= value * slack) & (value <= hi[at].max(axis=1) * slack))
    if bad.any():
        raise AssertionError(f"tail {int(np.argmax(bad))} norm leaves its bracket [lo, hi]")
    return list(enumerate(value.tolist()))


@dataclass(frozen=True)
class Q0EquivalenceReport:
    mismatches: dict  # generator name -> mismatching interior columns
    witness: dict  # generator name -> first mismatching column, or None
    relations: dict  # "lambda0"/"pi0" -> RelationReport; empty below cap 2


def verify_q0_equivalence(cap: int) -> Q0EquivalenceReport:
    """Exact check that D_0 = U lambda_0 U* - I (x) pi_0 vanishes.

    D_0 is formed in the exact mode by the same subtraction as D_q, once per
    generator of GENERATORS; a starred generator's difference is its adjoint.
    A generator's mismatch count is the number of columns of shell <= cap - 1
    that hold an entry of its D_0, and its witness is the first such column.
    From cap 2 on, the crystal relations of lambda_0 and pi_0 are checked on
    the same sections; they run before U is built and each section is
    dropped once conjugated, which bounds the peak memory.  The equivalence
    needs zero mismatches, including signs, and zero relation residuals.
    """
    if cap < 1:
        raise ValueError("no interior: verify_q0_equivalence needs cap >= 1")
    lam = {gen: build_lambda(0.0, cap, gen) for gen in GENERATORS}
    relations: dict[str, RelationReport] = {}
    if cap >= 2:
        relations["lambda0"] = check_relations(lam)
        relations["pi0"] = check_relations({gen: build_pi(0.0, cap, gen) for gen in GENERATORS})
    u = unitary_u(cap)
    interior = full_basis(cap).shells <= cap - 1
    diffs = {gen: add((1, conjugate(lam.pop(gen), u)), (-1, build_ipi(0.0, cap, gen)))
             for gen in GENERATORS}
    diffs |= {f"{gen}_star": adjoint(diffs[gen]) for gen in GENERATORS}
    mismatches, witness = {}, {}
    for name, d in diffs.items():
        bad = interior & (column_max_abs(d) != 0)
        mismatches[name] = int(bad.sum())
        witness[name] = d.domain.point_of(int(np.argmax(bad))) if bad.any() else None
    return Q0EquivalenceReport(mismatches, witness, relations)
