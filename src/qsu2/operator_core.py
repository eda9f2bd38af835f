"""Sparse operator algebra on truncated basis spaces.

An operator is a short sum of weighted lattice shifts.  Each term has a
shift (the coordinate delta from a column's point to its row's), the
codomain rank of every domain point moved by it (-1 outside the
truncation) and a value at every domain point (0 where the target is -1).
Terms have distinct shifts, so they never share a position.  An operator
carries the q it was built at.  At q == 0, the exact mode of the crystal
limit (entries in {-1, 0, +1}), values are integers of the least signed
type holding the operator's entry bound (int8 up to 127, then int16, int32,
int64), and every exact product or sum is formed in the type its own bound
needs, so none can wrap; else values are float64 or complex128.
Targets outside the truncation are dropped; with shell truncation this
happens alike on both sides of every identity, so interior columns are exact.

Operators are built from rules: a rule is the list of its terms
``(shift, values)``, a coordinate delta (a tuple, one entry per
coordinate) and an array of one value per domain point, evaluated by the
builder on the coordinates of its own basis.  A rule names each shift
once, and each rule term is one term of the operator.

Determinism: plain numpy arithmetic.  Only the constructor sums pieces:
those of one shift one at a time in the order they reach it, pairs of
factors b-major from ``compose``, (w, op) terms in argument order from
``add``; column sums run in term order too.  It may write into, and then
owns, every writable array it is handed, and every term array it keeps
is read-only, so an operator's arrays are never written.  Ties between
equal maxima go to the first in (column, row) rank order, and NaN wins
every maximum, so a NaN entry fails whatever reads it.  Comparisons are
one subtraction, ``add((1, a), (-1, b))``, followed by a reduction.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .lattice import Basis

# Exact-mode results must stay below this magnitude, far from int64 wrap-around.
EXACT_LIMIT = 2**62


def _exact_dtype(bound: int) -> np.dtype:
    """The least signed integer type whose maximum is at least ``bound``
    (int64 for any larger bound, which the overflow guards refuse)."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _entry_values(vals, exact: bool) -> np.ndarray:
    """Entries as float64 or complex128, or in the exact mode as signed
    integers: int arrays as they are, integral finite float arrays below
    2**63 in magnitude in the least type holding them; there, any other
    value or kind of array is a ValueError naming the first refused value."""
    arr = np.asarray(vals)
    if not exact:
        return arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if arr.dtype.kind == "i":
        return arr
    refused = np.ones(arr.shape, dtype=bool)
    if arr.dtype.kind == "f":  # NaN and inf fail the magnitude test
        refused = ~((abs(arr) < 2**63) & (arr == np.trunc(arr)))
    if refused.any():
        raise ValueError("exact-mode entries must be int64 integers, "
                         f"got {arr[refused].tolist()[0]!r}")
    return arr.astype(_exact_dtype(int(abs(arr).max(initial=0))))


def _guarded_dtype(bound: int, what: str) -> np.dtype:
    """The dtype an exact result with entries up to ``bound`` is formed in;
    OverflowError from EXACT_LIMIT on."""
    if bound >= EXACT_LIMIT:
        raise OverflowError(f"exact {what} could overflow int64: entry bound {bound} >= 2**62")
    return _exact_dtype(bound)


def _plus(ufunc, acc: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """ufunc(acc, piece), into acc if it is writable and of the result's dtype
    (the same bits either way); callers hand exact pieces in a dtype holding their sum."""
    inplace = acc.flags.writeable and acc.dtype == np.result_type(acc, piece)
    return ufunc(acc, piece, out=acc if inplace else None)


class Term(NamedTuple):
    """One weighted shift: column j holds ``values[j]`` in row ``targets[j]``."""

    shift: tuple | None  # coordinate delta; None for a map between two lattices
    targets: np.ndarray  # codomain rank of every domain point, -1 outside the truncation
    values: np.ndarray  # value at every domain point, 0 where the target is -1


class SparseOperator:
    """Finite matrix between truncated basis spaces: ``terms`` holds one
    ``Term`` per shift, all values of one ``dtype``.  The constructor sums
    the pieces ``(shift, targets, values)`` of each shift in the order
    given (``_plus``), drops the terms whose values are all zero, casts
    the rest to the dtype they share, so a dropped term takes no part in
    it, and marks every kept array read-only.  In the exact mode ``bound``
    is the largest |entry| as a Python int (0 with no terms), read from
    each kept term's largest and least value, the two reductions that also
    tell a zero term; the overflow guards read it, and ``dtype`` is the
    least signed integer type holding it.  It is None in the float modes."""

    __slots__ = ("domain", "codomain", "q", "dtype", "terms", "bound")

    def __init__(self, domain: Basis, codomain: Basis, pieces, q: float):
        self.domain, self.codomain, self.q = domain, codomain, q
        exact, n = q == 0, len(domain)
        summed: dict = {}
        for shift, targets, values in pieces:
            values = _entry_values(values, exact)
            if targets.shape != (n,) or values.shape != (n,):
                raise ValueError("term arrays must hold one entry per domain point")
            if (acc := summed.get(shift)) is not None:
                targets, values = _plus(np.maximum, acc[0], targets), _plus(np.add, acc[1], values)
            summed[shift] = targets, values
        # per term, its largest |entry| in the exact mode, else whether it is nonzero
        tops = {shift: max(int(v.max()), -int(v.min())) if exact else v.any()
                for shift, (_, v) in summed.items()}
        kept = [(shift, *summed[shift]) for shift, top in tops.items() if top]
        self.bound = max(tops.values(), default=0) if exact else None
        self.dtype = (_exact_dtype(self.bound) if exact
                      else np.result_type(np.float64, *(v for *_, v in kept)))
        self.terms = tuple(Term(shift, targets, values.astype(self.dtype, copy=False))
                           for shift, targets, values in kept)
        for t in self.terms:
            t.targets.flags.writeable = t.values.flags.writeable = False

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
        return (f"SparseOperator({self.codomain.label}<-{self.domain.label}, "
                f"shape={self.shape}, nnz={self.nnz}, q={self.q!r})")


def _term(shift, n: int, cols: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> Term:
    """The term on n columns holding the entries (rows[k], cols[k], vals[k])."""
    targets = np.full(n, -1, dtype=np.intp)
    targets[cols] = rows
    values = np.zeros(n, dtype=vals.dtype)
    values[cols] = vals
    return Term(shift, targets, values)


def build_from_rule(domain: Basis, codomain: Basis, rule: list, q: float) -> SparseOperator:
    """Matrix whose column at p holds each rule term's value at p + shift.

    ``rule`` is the list of terms ``(shift, values)``, values an array of
    one entry per domain point; any other shape, a scalar among them, is a
    ValueError naming the shift.  A rule names each shift at most once
    (else ValueError naming it).  Zero values are not stored; every other
    target must satisfy the codomain lattice invariants (else ValueError
    naming it and its column), and valid targets outside the cap are
    silently dropped.
    """
    n = len(domain)
    terms, seen = [], set()
    for shift, values in rule:
        if shift in seen:
            raise ValueError(f"rule names the shift {shift!r} twice")
        seen.add(shift)
        values = _entry_values(values, q == 0)
        if values.shape != (n,):
            raise ValueError(f"rule term {shift!r} holds values of shape {values.shape}, not ({n},)")
        emit = np.flatnonzero(values != 0)
        target = tuple(c[emit] + d for c, d in zip(domain.coords, shift, strict=True))
        bad = ~codomain.valid(*target)
        if bad.any():
            k = int(np.argmax(bad))
            point = codomain.point(*(int(c[k]) for c in target))
            raise ValueError(f"rule produced invalid index: {point!r} "
                             f"from {domain.point_of(int(emit[k]))!r}")
        ranks = codomain.rank(*target)
        inside = ranks >= 0
        emit, ranks = emit[inside], ranks[inside]
        terms.append(_term(shift, n, emit, ranks, values[emit]))
    return SparseOperator(domain, codomain, terms, q)


def _check_modes(a: SparseOperator, b: SparseOperator, what: str) -> None:
    if a.q != b.q:
        raise ValueError(f"mode mismatch in {what}")


def compose(a: SparseOperator, b: SparseOperator, columns) -> SparseOperator:
    """Matrix product a @ b (apply b first) on the given columns.

    ``columns`` is a boolean mask over the domain points; only the
    columns it marks are formed and every other column is empty.  Each
    pair of a b term and an a term, b-major, is one piece: a gather from
    a's own arrays and one multiply, handed to the constructor as soon as
    it is formed, which sums it into its shift's term.  Column j of a @ b
    reads only column j of b, so a kept column holds the same bits as in
    the full product, which an all-True mask forms.  Exact products and
    sums are formed in the dtype of the product's entry bound.
    """
    if not a.domain.same_points(b.codomain):
        raise ValueError("dimension mismatch in compose")
    _check_modes(a, b, "compose")
    # numpy multiplies float by complex as complex, so casting a's gathered
    # factor first gives the same bits and lets the product overwrite it
    dtype = np.result_type(a.dtype, b.dtype)
    if a.q == 0:  # a column of b holds at most one entry per term
        dtype = _guarded_dtype(a.bound * b.bound * len(b.terms), "compose")
    columns = np.asarray(columns)
    if columns.dtype != bool or columns.shape != (len(b.domain),):
        raise ValueError("columns must be a boolean mask over the domain")

    def pieces():
        for tb in b.terms:
            mid = np.where(columns, tb.targets, -1)
            off = mid < 0  # outside b's truncation or columns: no entry, and a's factor reads 0
            for ta in a.terms:
                targets, values = ta.targets[mid], ta.values[mid].astype(dtype, copy=False)
                targets[off], values[off] = -1, 0
                np.multiply(values, tb.values, out=values)
                values[targets < 0] = 0
                yield Term(tuple(x + y for x, y in zip(ta.shift, tb.shift)), targets, values)

    return SparseOperator(b.domain, a.codomain, pieces(), a.q)


def add(*terms: tuple[object, SparseOperator]) -> SparseOperator:
    """Weighted sum w_1 * op_1 + ... + w_n * op_n of (w, op) terms: every
    weighted term is a piece for the constructor, which sums them shift by
    shift in term order; nested two-term sums give the same bits, since
    0 + s == s for every nonzero s.  A single term of weight 1 is returned
    as it is, and the values of any term of weight 1 are borrowed as they
    are (1 * x == x bit for bit).  In the exact mode every value is first
    cast to the dtype of the sum's entry bound."""
    (w, first), *rest = terms
    if not rest and w == 1:
        return first
    for _, op in rest:
        if not (first.domain.same_points(op.domain) and first.codomain.same_points(op.codomain)):
            raise ValueError("dimension mismatch in add")
        _check_modes(first, op, "add")
    exact = first.q == 0
    if exact:
        dtype = _guarded_dtype(sum(abs(w) * op.bound for w, op in terms), "add")
    widened = ((w, t, t.values.astype(dtype, copy=False) if exact else t.values)
               for w, op in terms for t in op.terms)
    return SparseOperator(first.domain, first.codomain, (
        t._replace(values=v if w == 1 else w * v) for w, t, v in widened), first.q)


def adjoint(a: SparseOperator) -> SparseOperator:
    """Conjugate transpose (plain transpose in the real and exact modes):
    each term scattered to its inverse shift."""
    terms = []
    for t in a.terms:
        cols = np.flatnonzero(t.values)
        terms.append(_term(tuple(-x for x in t.shift), len(a.codomain), t.targets[cols], cols,
                           t.values[cols].conj()))
    return SparseOperator(a.codomain, a.domain, terms, a.q)


def conjugate(op: SparseOperator, u: SparseOperator) -> SparseOperator:
    """U op U* for a signed permutation U, one term from op's basis onto
    another lattice: entry (k, j) of op moves to (perm[k], perm[j]) with
    sign[k] * sign[j], its shift the offset of perm[k] from perm[j] in
    U's codomain coordinates.  The entries of one term of op are split
    into pieces by offset, in order of first occurrence, and the
    constructor sums the pieces of one shift in term order.  Each entry's
    offset is one integer, the difference of its row's and column's
    places in mixed radix with 2 * span + 1 per coordinate (span = max -
    min over the codomain): every coordinate delta is a digit in
    [-span, span], so equal integers mean equal offsets.  A piece's shift
    is read from the coordinates of its first entry."""
    if not op.domain.same_points(u.domain):
        raise ValueError("cap mismatch between operator and unitary")
    _, perm, sign = u.terms[0]
    coords = u.codomain.coords
    place = 0
    for c in coords:
        place = place * (2 * int(c.max() - c.min()) + 1) + c
    pieces = []
    for t in op.terms:
        cols = np.flatnonzero(t.values)
        rows = t.targets[cols]
        vals = t.values[cols] * (sign[cols] * sign[rows])
        cols, rows = perm[cols], perm[rows]
        offset = place[rows] - place[cols]
        while cols.size:
            same = offset == offset[0]
            shift = tuple(int(c[rows[0]] - c[cols[0]]) for c in coords)
            pieces.append(_term(shift, len(u.codomain), cols[same], rows[same], vals[same]))
            rest = ~same
            cols, rows, vals, offset = cols[rest], rows[rest], vals[rest], offset[rest]
    return SparseOperator(u.codomain, u.codomain, pieces, op.q)


def tensor(a: SparseOperator, b: SparseOperator, domain: Basis, codomain: Basis) -> SparseOperator:
    """Kronecker product on factor-major tensor bases: each pair of terms,
    a-major, is one term with the shifts concatenated."""
    _check_modes(a, b, "tensor")
    nb_cod = len(b.codomain)
    if len(domain) != len(a.domain) * len(b.domain) or len(codomain) != len(a.codomain) * nb_cod:
        raise ValueError("dimension mismatch in tensor")
    dtype = np.result_type(a.dtype, b.dtype)
    if a.q == 0:
        dtype = _guarded_dtype(a.bound * b.bound, "tensor")
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            inside = (ta.targets[:, None] >= 0) & (tb.targets >= 0)
            product = np.multiply(ta.values[:, None], tb.values, dtype=dtype)
            terms.append(Term(ta.shift + tb.shift,
                              np.where(inside, ta.targets[:, None] * nb_cod + tb.targets, -1).ravel(),
                              np.where(inside, product, 0).ravel()))
    return SparseOperator(domain, codomain, terms, a.q)


def column_max_abs(op: SparseOperator) -> np.ndarray:
    """Per domain rank, the largest |entry| of its column (0 if empty; NaN wins)."""
    out = np.abs(np.zeros(len(op.domain), dtype=op.dtype))
    for t in op.terms:
        out = np.maximum(out, np.abs(t.values))
    return out


def worst_column(op: SparseOperator) -> tuple[object, int | None]:
    """Largest squared column norm, |v| * |v| summed over each column in
    term order, and the first column in rank order attaining it; a NaN
    column wins.  (0.0, None) when every column is zero.  Exact norms are
    summed in the dtype of their bound."""
    norms = np.abs(np.zeros(len(op.domain), dtype=op.dtype))
    if op.q == 0:
        norms = norms.astype(_guarded_dtype(op.bound ** 2 * len(op.terms), "column norm"))
    for t in op.terms:
        v = np.abs(t.values).astype(norms.dtype, copy=False)
        norms += v * v
    j = int(np.argmax(norms))  # the first NaN, else the first maximum
    return (0.0, None) if norms[j] == 0 else (norms[j].item(), j)


def max_entry_difference(a: SparseOperator, b: SparseOperator,
                         columns: np.ndarray) -> tuple[float, object]:
    """Largest |a - b| entry over the columns marked by ``columns``, a
    boolean mask over the domain points, with a witness point.

    The witness is the first maximal entry in (column, row) rank order.
    """
    columns = np.asarray(columns)
    if columns.dtype != bool or columns.shape != (len(a.domain),):
        raise ValueError("columns must be a boolean mask over the domain")
    d = add((1, a), (-1, b))
    dev = np.where(columns, column_max_abs(d), 0)
    if not np.max(dev) != 0:  # a NaN goes on to its witness
        return 0.0, None
    j = int(np.argmax(dev))
    i = min(int(t.targets[j]) for t in d.terms
            if abs(t.values[j]) == dev[j] or np.isnan(t.values[j]))
    return dev[j].item(), (a.codomain.point_of(i), a.domain.point_of(j))
