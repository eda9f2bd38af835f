"""Sparse operator algebra on truncated basis spaces.

Operators are held in compressed sparse column (CSC) arrays with a
handful of entries per column (every generator action touches at most
two basis vectors).  Two scalar modes exist: exact integer arithmetic
(int64) for the crystal limit, where all entries live in {-1, 0, +1},
and float (or complex) arithmetic otherwise.  Targets that fall outside
the truncation are dropped when a matrix is built; with shell truncation
this happens consistently on both sides of every identity, so interior
columns are exact.

Determinism: arithmetic is plain numpy, and repeated positions are
summed one term at a time in the order they occur.  Ties between equal
maxima go to the first in (column, row) rank order, and NaN wins every
maximum, so a NaN entry fails whatever reads it.  Comparisons are one
subtraction, ``add((1, a), (-1, b))``, followed by a reduction.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .coefficients import Mode
from .lattice import Basis

# Exact-mode results must stay below this magnitude, far from int64 wrap-around.
EXACT_LIMIT = 2**62


def _entry_values(vals, exact: bool) -> np.ndarray:
    """Entries as int64 (exact mode), float64 or complex128."""
    arr = np.asarray(vals)
    if not exact:
        return arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if arr.dtype.kind in "uO":  # Python ints numpy did not fit in int64
        arr = np.array(arr.tolist(), dtype=np.int64)  # raises OverflowError
    if arr.size and arr.dtype.kind != "i":
        raise TypeError(f"exact-mode entries must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _max_abs(vals: np.ndarray) -> int:
    """Largest |entry| of an int64 array, as a Python int."""
    return max(int(vals.max()), -int(vals.min())) if vals.size else 0


def _check_exact_bound(bound: int, what: str) -> None:
    if bound >= EXACT_LIMIT:
        raise OverflowError(f"exact {what} could overflow int64: entry bound {bound} >= 2**62")


def _canonical(n_cols: int, n_rows: int, cols, rows, vals):
    """CSC arrays (indptr, rows, vals) of the entries (cols[k], rows[k], vals[k]).

    Rows ascend within each column, entries sharing a position are summed
    from 0 left to right in the order given (a sequential sum, never a
    pairwise reduction), and zero sums are dropped.
    """
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    if cols.shape != rows.shape or cols.shape != vals.shape:
        raise ValueError("entry arrays differ in length")
    if cols.size and not (0 <= cols.min() and cols.max() < n_cols
                          and 0 <= rows.min() and rows.max() < n_rows):
        raise ValueError("entry index outside the operator shape")
    key = cols * n_rows + rows
    if key.size > 1 and not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key = key[order]  # one array at a time, to bound the copies alive at once
        vals = vals[order]
        del order
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        if not first.all():
            starts = np.flatnonzero(first)
            if vals.dtype.kind == "i":
                largest_group = int(np.diff(starts, append=key.size).max())
                _check_exact_bound(_max_abs(vals) * largest_group, "sum")
            sums = np.zeros(starts.size, dtype=vals.dtype)
            # ufunc.at is unbuffered: one term at a time, in index order
            group = np.cumsum(first)
            group -= 1
            np.add.at(sums, group, vals)
            key, vals = key[starts], sums
    keep = vals != 0
    if not keep.all():
        key, vals = key[keep], vals[keep]
    cols = key // n_rows
    indptr = np.zeros(n_cols + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr[1:])
    return indptr, key - cols * n_rows, vals


class SparseOperator:
    """Finite matrix between truncated basis spaces in canonical CSC form.

    Column j holds the rows ``rows[indptr[j]:indptr[j + 1]]`` (ascending)
    with the values at the same positions of ``vals``; no stored value is
    0.  ``vals`` is int64 in the exact mode, float64 or complex128
    otherwise.  The constructor takes the entries (cols[k], rows[k],
    vals[k]) in the order they occur and canonicalises them: repeated
    positions are summed in that order and zero sums dropped.
    """

    __slots__ = ("domain", "codomain", "mode", "indptr", "rows", "vals")

    def __init__(self, domain: Basis, codomain: Basis, cols, rows, vals, mode: Mode):
        self.domain = domain
        self.codomain = codomain
        self.mode = mode
        self.indptr, self.rows, self.vals = _canonical(
            len(domain), len(codomain), cols, rows, _entry_values(vals, mode.exact))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.codomain), len(self.domain))

    @property
    def nnz(self) -> int:
        return len(self.rows)

    def entry_cols(self) -> np.ndarray:
        """Column rank of every stored entry."""
        return np.repeat(np.arange(len(self.domain), dtype=np.intp), np.diff(self.indptr))

    def entries(self) -> Iterator[tuple[int, int, object]]:
        """Yield (row_rank, col_rank, value) over all stored entries."""
        yield from zip(self.rows.tolist(), self.entry_cols().tolist(), self.vals.tolist())

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex if self.vals.dtype.kind == "c" else float)
        out[self.rows, self.entry_cols()] = self.vals
        return out

    def __repr__(self) -> str:
        return (
            f"SparseOperator({self.codomain.label}<-{self.domain.label}, "
            f"shape={self.shape}, nnz={self.nnz}, mode={'exact0' if self.mode.exact else 'float'})"
        )


def _concat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def build_from_rule(domain: Basis, codomain: Basis, rule: Callable, mode: Mode) -> SparseOperator:
    """Matrix whose column at p holds the rule's targets inside the truncation.

    ``rule(*domain.coords)`` returns terms ``(target, values)``: a tuple of
    codomain coordinate arrays and the scalars, one of each per domain
    point.  Zero scalars are not stored; every other target must satisfy
    the codomain lattice invariants (else ValueError), and valid targets
    outside the cap are silently dropped.  Terms are listed in order, so a
    repeated target sums its terms in the order the rule gives them.
    """
    cols, rows, vals = [], [], []
    for target, values in rule(*domain.coords):
        values = np.broadcast_to(values, (len(domain),))
        emit = np.flatnonzero(values != 0)
        target = tuple(np.broadcast_to(c, (len(domain),))[emit] for c in target)
        bad = ~codomain.valid(*target)
        if bad.any():
            k = int(np.argmax(bad))
            point = codomain.point(*(int(c[k]) for c in target))
            raise ValueError(f"rule produced invalid index: {point!r} "
                             f"from {domain.point_of(int(emit[k]))!r}")
        ranks = codomain.rank(*target)
        inside = ranks >= 0
        cols.append(emit[inside])
        rows.append(ranks[inside])
        vals.append(values[emit[inside]])
    return SparseOperator(domain, codomain, _concat(cols, np.intp), _concat(rows, np.intp),
                          _concat(vals, np.int64 if mode.exact else np.float64), mode)


def diagonal(basis: Basis, values, mode: Mode) -> SparseOperator:
    """Diagonal operator with entry values[k] at the basis point of rank k."""
    ranks = np.arange(len(basis), dtype=np.intp)
    return SparseOperator(basis, basis, ranks, ranks, values, mode)


def _gather(indptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of the given columns, in order, and for each
    the index into ``cols`` it came from."""
    starts = indptr[cols]
    counts = indptr[cols + 1] - starts
    owner = np.repeat(np.arange(len(cols), dtype=np.intp), counts)
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum()), owner


def _check_modes(a: SparseOperator, b: SparseOperator, what: str) -> None:
    if a.mode != b.mode:
        raise ValueError(f"mode mismatch in {what}")


def compose(a: SparseOperator, b: SparseOperator, columns=None) -> SparseOperator:
    """Matrix product a @ b (apply b first).

    With ``columns`` (strictly ascending domain ranks) only those columns
    are formed and every other column is empty.  Column j of a @ b reads
    only column j of b, in the same order, so a kept column holds the same
    bits as in the full product.
    """
    if not a.domain.same_points(b.codomain):
        raise ValueError("dimension mismatch in compose")
    _check_modes(a, b, "compose")
    if a.mode.exact:
        per_col = int(np.diff(b.indptr).max(initial=0))
        _check_exact_bound(_max_abs(a.vals) * _max_abs(b.vals) * per_col, "compose")
    if columns is None:
        b_cols, b_rows, b_vals = b.entry_cols(), b.rows, b.vals
    else:
        columns = np.asarray(columns, dtype=np.intp)
        if columns.ndim != 1 or (columns.size and not (
                0 <= columns[0] and columns[-1] < len(b.domain)
                and (columns[1:] > columns[:-1]).all())):
            raise ValueError("compose columns must be strictly ascending domain ranks")
        pos, owner = _gather(b.indptr, columns)
        b_cols, b_rows, b_vals = columns[owner], b.rows[pos], b.vals[pos]
    # every entry b[k, j] meets column k of a, rows ascending
    idx, owner = _gather(a.indptr, b_rows)
    cols, rows, vals = b_cols[owner], a.rows[idx], a.vals[idx] * b_vals[owner]
    del idx, owner, b_cols, b_rows, b_vals  # not held while the product is canonicalised
    return SparseOperator(b.domain, a.codomain, cols, rows, vals, a.mode)


def add(*terms: tuple[object, SparseOperator]) -> SparseOperator:
    """Weighted sum w_1 * op_1 + ... + w_n * op_n of (w, op) terms, in one
    canonical pass over their entries in term order; nested two-term sums
    give the same bits, since 0 + s == s for every stored s.  A single
    term of weight 1 is returned as it is."""
    (w, first), *rest = terms
    if not rest and w == 1:
        return first
    for _, op in rest:
        if not (first.domain.same_points(op.domain) and first.codomain.same_points(op.codomain)):
            raise ValueError("dimension mismatch in add")
        _check_modes(first, op, "add")
    if first.mode.exact:
        _check_exact_bound(sum(abs(w) * _max_abs(op.vals) for w, op in terms), "add")
    return SparseOperator(first.domain, first.codomain,
                          np.concatenate([op.entry_cols() for _, op in terms]),
                          np.concatenate([op.rows for _, op in terms]),
                          np.concatenate([w * op.vals for w, op in terms]), first.mode)


def adjoint(a: SparseOperator) -> SparseOperator:
    """Conjugate transpose (plain transpose in the real and exact modes)."""
    vals = a.vals.conj() if a.vals.dtype.kind == "c" else a.vals
    return SparseOperator(a.codomain, a.domain, a.rows, a.entry_cols(), vals, a.mode)


def tensor(a: SparseOperator, b: SparseOperator, domain: Basis, codomain: Basis) -> SparseOperator:
    """Kronecker product on factor-major tensor bases."""
    _check_modes(a, b, "tensor")
    nb_dom = len(b.domain)
    nb_cod = len(b.codomain)
    if len(domain) != len(a.domain) * nb_dom or len(codomain) != len(a.codomain) * nb_cod:
        raise ValueError("dimension mismatch in tensor")
    if a.mode.exact:
        _check_exact_bound(_max_abs(a.vals) * _max_abs(b.vals), "tensor")
    # every pair of an a entry and a b entry, a-major
    ea = np.repeat(np.arange(a.nnz), b.nnz)
    eb = np.tile(np.arange(b.nnz), a.nnz)
    return SparseOperator(
        domain, codomain,
        a.entry_cols()[ea] * nb_dom + b.entry_cols()[eb],
        a.rows[ea] * nb_cod + b.rows[eb],
        a.vals[ea] * b.vals[eb],
        a.mode,
    )


def max_abs_entry_per_shell(a: SparseOperator) -> list[tuple[int, float]]:
    """Per domain shell m, the largest |entry| over columns at shell m."""
    out = np.zeros(a.domain.cap + 1)
    with np.errstate(invalid="ignore"):  # a NaN entry wins its shell without a warning
        np.maximum.at(out, a.domain.shells[a.entry_cols()], np.abs(a.vals))
    return list(enumerate(out.tolist()))


def max_entry_difference(a: SparseOperator, b: SparseOperator,
                         columns: Sequence[int] | np.ndarray | None = None) -> tuple[float, object]:
    """Largest |a - b| entry over the union support, with a witness point.

    ``columns`` restricts the comparison to the given domain ranks.  The
    witness is the first maximal entry in (column, row) rank order.
    """
    d = add((1, a), (-1, b))
    dev = np.abs(d.vals)
    if columns is not None:
        wanted = np.zeros(len(a.domain), dtype=bool)
        wanted[np.asarray(columns, dtype=np.intp)] = True
        dev = np.where(np.repeat(wanted, np.diff(d.indptr)), dev, 0)
    if not dev.size or np.max(dev) == 0:
        return 0.0, None
    k = int(np.argmax(dev))
    j = int(np.searchsorted(d.indptr, k, side="right")) - 1
    return dev[k].item(), (a.codomain.point_of(int(d.rows[k])), a.domain.point_of(j))
