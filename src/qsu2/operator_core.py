"""Sparse operator algebra on truncated basis spaces.

An operator is a short sum of weighted lattice shifts.  Each term has a
shift (the coordinate delta from a column's point to its row's), the
codomain rank of every domain point moved by it (-1 outside the
truncation) and a value at every domain point (0 where the target is -1).
Terms have distinct shifts, so they never share a position.  Values are
int64 in the exact mode of the crystal limit (entries in {-1, 0, +1}),
float64 or complex128 otherwise.  Targets outside the truncation are
dropped; with shell truncation this happens alike on both sides of every
identity, so interior columns are exact.

Operators are built from rules: ``rule(*domain.coords)`` returns terms
``(shift, values)``, a coordinate delta (a tuple, one entry per
coordinate) and one scalar per domain point.  A rule term is one shift.

Determinism: plain numpy arithmetic.  Terms of one shift are summed one
at a time in the order the product lists them: rule terms in rule order,
pairs of factors b-major in ``compose``, (w, op) terms in argument order
in ``add``.  Column reductions run in ascending row rank, ties between
equal maxima go to the first in (column, row) rank order, and NaN wins
every maximum, so a NaN entry fails whatever reads it.  Comparisons are
one subtraction, ``add((1, a), (-1, b))``, followed by a reduction.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .coefficients import Mode
from .lattice import Basis

# Exact-mode results must stay below this magnitude, far from int64 wrap-around.
EXACT_LIMIT = 2**62


def _entry_values(vals, exact: bool) -> np.ndarray:
    """Entries as int64 (exact mode), float64 or complex128.  The exact
    mode takes integers and integral finite floats below 2**63 in
    magnitude; a larger integer is an OverflowError, any other value a
    ValueError naming it."""
    arr = np.asarray(vals)
    if not exact:
        return arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if arr.dtype.kind == "u" or arr.dtype.kind == "O" and all(isinstance(v, int) for v in arr.flat):
        arr = np.array(arr.tolist(), dtype=np.int64)  # Python ints beyond int64: OverflowError
    if arr.dtype.kind == "i":
        return arr.astype(np.int64, copy=False)
    refused = np.ones(arr.shape, dtype=bool)
    if arr.dtype.kind == "f":  # NaN and inf fail the magnitude test
        refused = ~((abs(arr) < 2**63) & (arr == np.trunc(arr)))
    if refused.any():
        raise ValueError(f"exact-mode entries must be integers, got {arr[refused].tolist()[0]!r}")
    return arr.astype(np.int64)


def _max_abs(vals: np.ndarray) -> int:
    """Largest |entry| of an int64 array, as a Python int."""
    return max(int(vals.max()), -int(vals.min())) if vals.size else 0


def _check_exact_bound(bound: int, what: str) -> None:
    if bound >= EXACT_LIMIT:
        raise OverflowError(f"exact {what} could overflow int64: entry bound {bound} >= 2**62")


class Term(NamedTuple):
    """One weighted shift: column j holds ``values[j]`` in row ``targets[j]``."""

    shift: tuple | None  # coordinate delta; None for a map between two lattices
    targets: np.ndarray  # codomain rank of every domain point, -1 outside the truncation
    values: np.ndarray  # value at every domain point, 0 where the target is -1


class SparseOperator:
    """Finite matrix between truncated basis spaces: ``terms`` holds one
    ``Term`` per shift, all values of one ``dtype``; the constructor casts
    them and drops the terms whose values are all zero."""

    __slots__ = ("domain", "codomain", "mode", "dtype", "terms")

    def __init__(self, domain: Basis, codomain: Basis, terms, mode: Mode):
        self.domain, self.codomain, self.mode = domain, codomain, mode
        terms = [t._replace(values=_entry_values(t.values, mode.exact)) for t in terms]
        if any({t.targets.shape, t.values.shape} != {(len(domain),)} for t in terms):
            raise ValueError("term arrays must hold one entry per domain point")
        self.dtype = np.result_type(np.int64 if mode.exact else np.float64,
                                    *(t.values for t in terms))
        self.terms = tuple(t._replace(values=t.values.astype(self.dtype, copy=False))
                           for t in terms if t.values.any())

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.codomain), len(self.domain))

    @property
    def nnz(self) -> int:
        return sum(int(np.count_nonzero(t.values)) for t in self.terms)

    def entries(self) -> Iterator[tuple[int, int, object]]:
        """Yield (row_rank, col_rank, value) over all nonzero values, term by term."""
        for t in self.terms:
            cols = np.flatnonzero(t.values)
            yield from zip(t.targets[cols].tolist(), cols.tolist(), t.values[cols].tolist())

    def __repr__(self) -> str:
        return (
            f"SparseOperator({self.codomain.label}<-{self.domain.label}, "
            f"shape={self.shape}, nnz={self.nnz}, mode={'exact0' if self.mode.exact else 'float'})"
        )


def _term(shift, n: int, cols: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> Term:
    """The term on n columns holding the entries (rows[k], cols[k], vals[k])."""
    targets = np.full(n, -1, dtype=np.intp)
    targets[cols] = rows
    values = np.zeros(n, dtype=vals.dtype)
    values[cols] = vals
    return Term(shift, targets, values)


def _summed(pieces) -> list[Term]:
    """One term per shift, its pieces summed one at a time in the order given."""
    out: dict = {}
    for p in pieces:
        q = out.get(p.shift)
        out[p.shift] = p if q is None else Term(
            p.shift, np.maximum(q.targets, p.targets), q.values + p.values)
    return list(out.values())


def build_from_rule(domain: Basis, codomain: Basis, rule: Callable, mode: Mode) -> SparseOperator:
    """Matrix whose column at p holds each rule term's value at p + shift.

    Zero values are not stored; every other target must satisfy the
    codomain lattice invariants (else ValueError naming it and its
    column), and valid targets outside the cap are silently dropped.
    Terms of one shift are summed in the order the rule gives them.
    """
    n = len(domain)
    pieces = []
    for shift, values in rule(*domain.coords):
        values = np.broadcast_to(_entry_values(values, mode.exact), (n,))
        emit = np.flatnonzero(values != 0)
        target = tuple(c[emit] + d for c, d in zip(domain.coords, shift, strict=True))
        bad = ~codomain.valid(*target)
        if bad.any():
            k = int(np.argmax(bad))
            point = codomain.point(*(int(c[k]) for c in target))
            raise ValueError(f"rule produced invalid index: {point!r} "
                             f"from {domain.point_of(int(emit[k]))!r}")
        ranks = codomain.rank(*target)
        emit, ranks = emit[ranks >= 0], ranks[ranks >= 0]
        if emit.size:  # an empty term takes no place in the shift order or the sum guard
            pieces.append(_term(shift, n, emit, ranks, values[emit]))
    most = max(Counter(p.shift for p in pieces).values(), default=1)
    if mode.exact and most > 1:
        _check_exact_bound(most * max(_max_abs(p.values) for p in pieces), "sum")
    return SparseOperator(domain, codomain, _summed(pieces), mode)


def _check_modes(a: SparseOperator, b: SparseOperator, what: str) -> None:
    if a.mode != b.mode:
        raise ValueError(f"mode mismatch in {what}")


def _bound(op: SparseOperator) -> int:
    """Largest |entry| of an exact-mode operator."""
    return max((_max_abs(t.values) for t in op.terms), default=0)


def compose(a: SparseOperator, b: SparseOperator, columns) -> SparseOperator:
    """Matrix product a @ b (apply b first) on the given columns.

    ``columns`` are strictly ascending domain ranks; only those columns
    are formed and every other column is empty.  Each pair of a b term and
    an a term is one gather and one multiply.  Column j of a @ b reads
    only column j of b, so a kept column holds the same bits as in the
    full product, which ``np.arange(len(b.domain))`` forms.
    """
    if not a.domain.same_points(b.codomain):
        raise ValueError("dimension mismatch in compose")
    _check_modes(a, b, "compose")
    if a.mode.exact:  # a column of b holds at most one entry per term
        _check_exact_bound(_bound(a) * _bound(b) * len(b.terms), "compose")
    columns = np.asarray(columns, dtype=np.intp)
    if columns.ndim != 1 or (columns.size and not (
            0 <= columns[0] and columns[-1] < len(b.domain) and (columns[1:] > columns[:-1]).all())):
        raise ValueError("compose columns must be strictly ascending domain ranks")
    # an a term read at rank -1 (outside b's truncation or columns) gives no entry
    a_ends = [(np.append(t.targets, -1), np.append(t.values, 0)) for t in a.terms]
    pieces = []
    for tb in b.terms:
        mid = np.full(len(b.domain), -1, dtype=np.intp)
        mid[columns] = tb.targets[columns]
        for ta, (targets, values) in zip(a.terms, a_ends):
            targets = targets[mid]
            pieces.append(Term(tuple(x + y for x, y in zip(ta.shift, tb.shift)), targets,
                               np.where(targets >= 0, values[mid] * tb.values, 0)))
    return SparseOperator(b.domain, a.codomain, _summed(pieces), a.mode)


def add(*terms: tuple[object, SparseOperator]) -> SparseOperator:
    """Weighted sum w_1 * op_1 + ... + w_n * op_n of (w, op) terms, summed
    shift by shift in term order; nested two-term sums give the same bits,
    since 0 + s == s for every nonzero s.  A single term of weight 1 is
    returned as it is."""
    (w, first), *rest = terms
    if not rest and w == 1:
        return first
    for _, op in rest:
        if not (first.domain.same_points(op.domain) and first.codomain.same_points(op.codomain)):
            raise ValueError("dimension mismatch in add")
        _check_modes(first, op, "add")
    if first.mode.exact:
        _check_exact_bound(sum(abs(w) * _bound(op) for w, op in terms), "add")
    return SparseOperator(first.domain, first.codomain, _summed(
        t._replace(values=w * t.values) for w, op in terms for t in op.terms), first.mode)


def adjoint(a: SparseOperator) -> SparseOperator:
    """Conjugate transpose (plain transpose in the real and exact modes):
    each term scattered to its inverse shift."""
    terms = []
    for t in a.terms:
        cols = np.flatnonzero(t.values)
        terms.append(_term(tuple(-x for x in t.shift), len(a.codomain), t.targets[cols], cols,
                           t.values[cols].conj()))
    return SparseOperator(a.codomain, a.domain, terms, a.mode)


def conjugate(op: SparseOperator, u: SparseOperator) -> SparseOperator:
    """U op U* for a signed permutation U, one term from op's basis onto
    another lattice: entry (k, j) of op moves to (perm[k], perm[j]) with
    sign[k] * sign[j], its shift the offset of perm[k] from perm[j] in
    U's codomain coordinates.  The offsets of one term of op vary by
    column, so its entries are split by offset, in order of first
    occurrence."""
    if not op.domain.same_points(u.domain):
        raise ValueError("cap mismatch between operator and unitary")
    _, perm, sign = u.terms[0]
    pieces = []
    for t in op.terms:
        cols = np.flatnonzero(t.values)
        rows = t.targets[cols]
        vals = t.values[cols] * (sign[cols] * sign[rows])
        cols, rows = perm[cols], perm[rows]
        delta = np.array([c[rows] - c[cols] for c in u.codomain.coords])
        while cols.size:
            same = (delta == delta[:, :1]).all(axis=0)
            pieces.append(_term(tuple(delta[:, 0].tolist()), len(u.codomain),
                                cols[same], rows[same], vals[same]))
            cols, rows, vals, delta = cols[~same], rows[~same], vals[~same], delta[:, ~same]
    return SparseOperator(u.codomain, u.codomain, _summed(pieces), op.mode)


def tensor(a: SparseOperator, b: SparseOperator, domain: Basis, codomain: Basis) -> SparseOperator:
    """Kronecker product on factor-major tensor bases: each pair of terms,
    a-major, is one term with the shifts concatenated."""
    _check_modes(a, b, "tensor")
    nb_cod = len(b.codomain)
    if len(domain) != len(a.domain) * len(b.domain) or len(codomain) != len(a.codomain) * nb_cod:
        raise ValueError("dimension mismatch in tensor")
    if a.mode.exact:
        _check_exact_bound(_bound(a) * _bound(b), "tensor")
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            inside = (ta.targets[:, None] >= 0) & (tb.targets >= 0)
            terms.append(Term(ta.shift + tb.shift,
                              np.where(inside, ta.targets[:, None] * nb_cod + tb.targets, -1).ravel(),
                              np.where(inside, ta.values[:, None] * tb.values, 0).ravel()))
    return SparseOperator(domain, codomain, terms, a.mode)


def column_max_abs(op: SparseOperator) -> np.ndarray:
    """Per domain rank, the largest |entry| of its column (0 if empty; NaN wins)."""
    out = np.abs(np.zeros(len(op.domain), dtype=op.dtype))
    for t in op.terms:
        out = np.maximum(out, np.abs(t.values))
    return out


def worst_column(op: SparseOperator) -> tuple[object, int | None]:
    """Largest squared column norm, |v| * |v| summed over each column in
    ascending row rank, and the first column in rank order attaining it; a
    NaN column wins at once.  (0.0, None) when every column is zero."""
    n = len(op.domain)
    targets = np.array([t.targets for t in op.terms], dtype=np.intp).reshape(-1, n)
    absv = np.abs(np.array([t.values for t in op.terms], dtype=op.dtype).reshape(-1, n))
    if op.mode.exact and int(absv.max(initial=0)) ** 2 * len(absv) >= EXACT_LIMIT:
        raise OverflowError("exact column norm could overflow int64")
    norms = np.zeros(n, dtype=absv.dtype)
    for v in np.take_along_axis(absv, np.argsort(targets, axis=0, kind="stable"), axis=0):
        norms += v * v  # one term at a time, rows ascending
    nan = np.isnan(norms)
    if nan.any():
        return float("nan"), int(np.argmax(nan))
    top = norms.max(initial=0)
    if not top > 0:
        return 0.0, None
    return top.item(), int(np.argmax(norms == top))


def max_entry_difference(a: SparseOperator, b: SparseOperator,
                         columns: Sequence[int] | np.ndarray) -> tuple[float, object]:
    """Largest |a - b| entry over the given domain ranks, with a witness point.

    The witness is the first maximal entry in (column, row) rank order.
    """
    d = add((1, a), (-1, b))
    wanted = np.zeros(len(a.domain), dtype=bool)
    wanted[np.asarray(columns, dtype=np.intp)] = True
    dev = np.where(wanted, column_max_abs(d), 0)
    if not np.max(dev) != 0:  # a NaN goes on to its witness
        return 0.0, None
    j = int(np.argmax(dev))
    i = min(int(t.targets[j]) for t in d.terms
            if abs(t.values[j]) == dev[j] or np.isnan(t.values[j]))
    return dev[j].item(), (a.codomain.point_of(i), a.domain.point_of(j))
