"""The crystal-limit unitary, conjugation, the difference operators, and
the diagnostics measuring their compactness structure.

The unitary U flattens the pyramid Gamma sheet by sheet onto
N x N x Z: a point (n, i, j) goes to (n - (i v j), n + (i ^ j), j - i)
with sign (-1)^((i v j) - j).  U preserves shells (r + s + |t| = 2n), so
the same cap truncates both sides.  At q = 0 conjugation by U carries
the GNS generators exactly onto I (x) pi_0.  For q != 0 the differences

    D_a = U lambda_q(a) U* - I (x) pi_q(a)

decompose into diagonal coefficient operators (R1, R2 for alpha, T1, T2
for beta) times coordinate shifts.  The diagnostics here measure the
decays that place D_a in (Toeplitz) (x) (compacts of the (s, t) factor)
along s and t (r does not decay).  Tail norms are read as a running
maximum over nested chain suffixes, so they never rise; a tails report
checks that, to TAIL_SLACK, and not a geometric rate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coefficients import float_mode, g_table, power_table, t_parts
from .lattice import (
    full_basis,
    full_shell,
    gamma_basis,
    is_valid_full,
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
    sign = 1 - 2 * ((hi - j2) >> 1 & 1)
    return sign, (n2 - hi) >> 1, (n2 + lo) >> 1, (j2 - i2) >> 1


def unitary_u(cap: int) -> SparseOperator:
    """The sheet-flattening unitary on the shell-capped lattices, an exact
    signed permutation: one term, the ranks of the images and their signs.
    Every image must be a full-lattice point on its point's shell, and every
    codomain rank must be hit exactly once (else AssertionError naming the
    point)."""
    dom = gamma_basis(cap)
    cod = full_basis(cap)
    sign, *image = u_forward(*dom.coords)
    bad = ~is_valid_full(*image) | (full_shell(*image) != dom.shells)
    if bad.any():
        point = dom.point_of(int(np.argmax(bad)))
        raise AssertionError(f"unitary broke the shell grading at {point}")
    perm = cod.rank(*image)
    taken = np.bincount(perm, minlength=len(cod))[perm] > 1
    if taken.any():
        point = dom.point_of(int(np.argmax(taken)))
        raise AssertionError(f"unitary is not one-to-one: the image of {point} is taken twice")
    if len(dom) != len(cod):
        raise AssertionError(f"unitary maps {len(dom)} points onto {len(cod)}")
    return SparseOperator(dom, cod, [Term(None, perm, sign)], 0.0)


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
    (0, 0) fiber, which the identity requires.  The terms are the shifts
    of D_SHIFTS[gen], in order, each valued by its diagonal at the column
    (R1) or at the target (R2, T1, T2), a transpose V S_d = (S_{-d} V)^T:
    the adjoint of the diagonal valued at the column on the shift -d.
    """
    float_mode(q)  # refuses q = 0, which has no float diagonals, and |q| >= 1
    if gen not in D_SHIFTS:
        raise ValueError(f"unknown generator {gen!r}: choose alpha or beta")
    basis, shifts = full_basis(cap), D_SHIFTS[gen]
    negated = [tuple(-x for x in d) for d in shifts]

    def at_column(shifts, values):
        return build_from_rule(basis, basis, list(zip(shifts, values)), q)

    if gen == "alpha":
        return add((1.0, at_column(shifts[:1], [diagonal_values(q, cap, "R1")])),
                   (1.0, adjoint(at_column(negated[1:], [diagonal_values(q, cap, "R2")]))))
    t = basis.coords[2]
    branch = _t1_branch_values(q, cap)
    t1 = [np.where(t >= 0, branch, 0.0), np.where(t < 0, branch, 0.0)]
    return adjoint(at_column(negated, [*t1, diagonal_values(q, cap, "T2")]))


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
    return max_entry_difference(cf, d, d.domain.shells <= cap - 1)


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


class DecayReport(NamedTuple):
    pattern: str
    shell_max: tuple[tuple[int, float], ...]
    shell_exponent: tuple[int, ...]  # per shell, the least claimed exponent over its points
    normalized_constant: float
    fitted_ratio: float


def decay_report(q: float, cap: int, target: str) -> DecayReport:
    """Per-shell maxima of a difference target, the least claimed exponent
    per shell, the normalized constant C = max |entry| / |q|^pattern, and a
    fitted geometric tail ratio.  C is fitted on the same columns as the
    maxima, so every maximum lies under C |q|^exponent of its shell whatever
    the data: a bound read from C reports the decay and certifies nothing."""
    if target not in _PATTERNS:
        raise ValueError(f"unknown decay target {target!r}")
    parts, pattern_name, pattern = _PATTERNS[target]
    if isinstance(parts, str):
        column_max = column_max_abs(difference(q, cap, parts))
    else:  # a diagonal difference: one entry per column
        column_max = np.abs(diagonal_values(q, cap, parts[0]) - diagonal_values(q, cap, parts[1]))
    shells = full_basis(cap).shells  # shell-major: each shell is one run of ranks
    starts = np.searchsorted(shells, np.arange(cap + 1))
    shell_max = np.maximum.reduceat(column_max, starts).tolist()
    point_exponents = pattern(*full_basis(cap).coords)
    shell_exponent = np.minimum.reduceat(point_exponents, starts)
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


def tail_norms(d: SparseOperator) -> list[tuple[int, float]]:
    """Operator norms of d, an operator on a capped full lattice such as
    D_gen, restricted to the (s, t) tails s + |t| >= m.

    Geometric decay in m certifies compactness in the (s, t) factor; the
    Toeplitz direction r carries shifts and does not decay.  Every shift
    (dr, ds, dt) of d must move (t, r - s) by one common offset, else
    AssertionError naming the shifts; then d maps the chain of columns
    with fixed (t, r - s), indexed by s, into one chain of rows, and every
    tail is a suffix of every chain.  Chain (t, r - s) has rank
    ((t + r - s + cap)(2 cap + 1) + t - (r - s) + cap) >> 1, a bijection of
    the diamond |t| + |r - s| <= cap onto its size.  Column (r, s, t) sits
    at slot i = min(r, s) of its chain, whose length is
    ((cap - |t| - |r - s|) >> 1) + 1.  The band is read from the terms: it
    has K = max ds - min ds + 1 diagonals, and the term of shift
    (dr, ds, dt) is the diagonal b[i, ds - min ds], which feeds row slot
    i + ds - min ds.  The suffix of width w from slot k is a
    (w + K - 1) x w block whose Gram matrix is the trailing w x w
    principal submatrix of its chain's banded Gram, with K - 1
    superdiagonals: superdiagonal o holds sum_j b[i, j + o] b[i + o, j].

    Along a chain s + |t| rises by one per slot, so the suffixes tail m
    reads cover exactly the columns with s + |t| >= m.  A suffix's Gram
    is the trailing principal block of the Gram of the suffix one slot
    shallower, so by Cauchy interlacing its norm is no larger, and the
    norm of tail m is the largest norm of the suffixes from the columns
    with s + |t| >= m.  by_tail takes that maximum of any per-column
    quantity: one maximum per tail over the columns grouped by s + |t|,
    then a running maximum from the last tail down, so no tail exceeds
    the one before it.  It reads the norms, the floors (floor[m], the
    largest column 2-norm of tail m, bounds its norm below) and the
    largest hi, where each suffix is bounded above in O(width) by the
    Schur test sqrt(max col abs-sum) * sqrt(max row abs-sum), two roots
    so nothing underflows.  The row abs-sums are built one term at a
    time: after term j, row slot i + j sums columns i..i + j, the edge
    row of the suffix from i, and the rows past the edge are complete.
    A suffix is solved unless hi * (1 + 1e-10) < floor[m] for its tail m,
    the least floor of the tails that read it (a NaN keeps it, so LAPACK
    still refuses a NaN).  The chain attaining the floor is always solved,
    and a skipped suffix lies below it by far more than solver and
    summation error, so each maximum is the value an unpruned solve gives.

    The surviving suffixes, stably sorted by width, are read with one
    gather into flat[j, first + i] = b[i, j], one suffix after another,
    then K zero columns.  Each is scaled by 2^-e, e the binary exponent
    of its largest |entry| (one maximum.reduceat over the suffix starts),
    before the products: that entry lands in [1/2, 1), so the Gram's
    largest diagonal is at least 1/4, and only squares far below its
    O(eps) share can underflow, even at q = 1e-150, where unscaled
    squares of every entry do.  Each superdiagonal o is formed once for
    all suffixes, sum_j flat[j + o, p] flat[j, p + o] in order of j,
    which at p = first + i, i < w - o, is the Gram entry (i, i + o).
    Each w then writes these into a zeroed batch of row-major w x w
    Grams through strided views, every (w + 1)-th entry from o, and
    takes one batched symmetric eigensolve (LAPACK) of the upper
    triangles; the norm is sqrt(largest eigenvalue) * 2^e.  The solver
    is backward stable, so that eigenvalue is off by O(eps) of the Gram's
    norm, sigma_max^2, and the norm is within O(eps) relative, as an SVD
    of the block would give.
    floor <= norm <= max hi is checked to 1e-10, else AssertionError.
    """
    r, s, t = d.domain.coords
    cap = d.domain.cap
    n = 2 * cap * (cap + 1) + 1  # the chains, one per point of the diamond
    chain = ((t + r - s + cap) * (2 * cap + 1) + t - (r - s) + cap) >> 1
    slot = np.minimum(r, s)  # i of each column in its chain
    length = ((cap - abs(t) - abs(r - s)) >> 1) + 1  # of each column's chain
    width = (cap >> 1) + 1
    shifts = [term.shift for term in d.terms]
    if len({(dt, dr - ds) for dr, ds, dt in shifts}) > 1:
        raise AssertionError(f"the shifts {shifts} move (t, r - s) by different offsets")
    ds = [shift[1] for shift in shifts]
    low = min(ds, default=0)
    v = np.zeros((max(ds, default=0) - low + 1, len(s)))  # [j, column]: term of ds = low + j
    for j, term in zip(ds, d.terms):
        v[j - low] = term.values
    diags = len(v)  # K, the band's diagonals
    band = np.zeros((diags, n, width))  # [j, c, i]: b[i, j] of chain c
    band[:, chain, slot] = v
    tail = s + abs(t)
    order = np.argsort(tail, kind="stable")
    starts = np.searchsorted(tail[order], np.arange(cap + 1))  # every tail holds (0, m, 0)

    def by_tail(x):  # x per column -> max over the columns with s + |t| >= m, for each tail m
        return np.maximum.accumulate(np.maximum.reduceat(x[order], starts)[::-1])[::-1]

    floor = by_tail(np.hypot.reduce(abs(v), axis=0))
    del v  # each array of the band stage goes after its last reader
    a = np.abs(band)

    def from_k(x):  # x[c, k] -> max over i >= k of x[c, i]
        return np.maximum.accumulate(x[:, ::-1], axis=1)[:, ::-1]

    row_sum = np.zeros((n, width + diags - 1))  # abs-sum of every row slot, one term at a time
    rows = np.zeros((n, width))
    for j in range(diags):  # then row slot i + j sums columns i..i + j: an edge row of suffix i
        row_sum[:, j:j + width] += a[j]
        np.maximum(rows, row_sum[:, j:j + width], out=rows)
    np.maximum(rows, from_k(row_sum[:, diags - 1:]), out=rows)  # and the complete rows past the edge
    del row_sum
    hi = np.sqrt(from_k(a.sum(axis=0)))
    del a
    hi *= np.sqrt(rows)
    del rows
    hi = hi[chain, slot]  # of the suffix from each column on
    slack = 1 + 1e-10
    solve = np.flatnonzero(~(hi * slack < floor[tail]))
    widths = length[solve] - slot[solve]
    by_width = np.argsort(widths, kind="stable")
    solve, widths = solve[by_width], widths[by_width]
    first = np.cumsum(widths) - widths  # where each suffix starts in flat
    total = int(widths.sum())
    flat = np.zeros((diags, total + diags))  # [j, first + i]: b[i, j] of each suffix, then zeros
    body = flat[:, :total]
    at_slot = np.repeat(slot[solve] - first, widths) + np.arange(total)  # slot + i at first + i
    body[:] = band[:, np.repeat(chain[solve], widths), at_slot]
    del band, at_slot
    e = np.frexp(np.maximum.reduceat(abs(body).max(axis=0), first))[1]
    np.ldexp(body, -np.repeat(e, widths), out=body)
    # superdiagonal o at first + i; past i = w - o - 1 it reads the next suffix and goes unused
    sup = [(flat[o:, :total] * flat[:diags - o, o:total + o]).sum(axis=0) for o in range(diags)]
    del flat, body
    bounds = np.searchsorted(widths, np.arange(width + 2)).tolist()  # width w: bounds[w]:bounds[w + 1]
    norm = np.zeros(len(tail))
    for w in sorted(set(widths.tolist())):
        lo, up = bounds[w], bounds[w + 1]
        count, at = up - lo, int(first[lo])
        gram = np.zeros((count, w * w))
        for o in range(min(diags, w)):  # superdiagonal o: every (w + 1)-th entry from o
            gram[:, o::w + 1][:, :w - o] = sup[o][at:at + count * w].reshape(count, w)[:, :w - o]
        top = np.linalg.eigvalsh(gram.reshape(count, w, w), UPLO="U")[:, -1]
        norm[solve[lo:up]] = np.ldexp(np.sqrt(top), e[lo:up])
    value = by_tail(norm)
    bad = ~((floor <= value * slack) & (value <= by_tail(hi) * slack))
    if bad.any():
        raise AssertionError(f"tail {int(np.argmax(bad))} norm leaves its bracket [lo, hi]")
    return list(enumerate(value.tolist()))


class Q0EquivalenceReport(NamedTuple):
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
