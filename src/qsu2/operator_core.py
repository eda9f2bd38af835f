"""Sparse operator algebra on truncated basis spaces.

Operators are stored column-wise with a handful of entries per column
(every generator action touches at most two basis vectors).  Two scalar
modes exist: exact integer arithmetic for the crystal limit, where all
entries live in {-1, 0, +1}, and float (or complex) arithmetic
otherwise.  Targets that fall outside the truncation are dropped when a
matrix is built; with shell truncation this happens consistently on
both sides of every identity, so interior columns are exact.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .coefficients import Mode
from .lattice import Basis

Entry = tuple[int, object]  # (row rank, scalar)


class SparseOperator:
    """Finite matrix between truncated basis spaces, held column-wise."""

    __slots__ = ("domain", "codomain", "cols", "mode")

    def __init__(self, domain: Basis, codomain: Basis, cols, mode: Mode):
        self.domain = domain
        self.codomain = codomain
        self.cols = tuple(tuple(sorted(c)) for c in cols)
        self.mode = mode

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.codomain), len(self.domain))

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def entries(self) -> Iterator[tuple[int, int, object]]:
        """Yield (row_rank, col_rank, value) over all stored entries."""
        for j, col in enumerate(self.cols):
            for i, v in col:
                yield i, j, v

    def to_dense(self) -> np.ndarray:
        dtype = complex if any(isinstance(v, complex) for _, _, v in self.entries()) else float
        out = np.zeros(self.shape, dtype=dtype)
        for i, j, v in self.entries():
            out[i, j] = v
        return out

    def __repr__(self) -> str:
        return (
            f"SparseOperator({self.codomain.label}<-{self.domain.label}, "
            f"shape={self.shape}, nnz={self.nnz}, mode={self.mode.kind})"
        )


def build_from_rule(domain: Basis, codomain: Basis, rule: Callable, mode: Mode) -> SparseOperator:
    """Matrix whose column at p holds the rule's targets inside the truncation.

    ``rule(point)`` returns finitely many (target_point, scalar) pairs.
    Invalid target points (violating the codomain lattice invariants) raise;
    valid targets outside the cap are silently dropped; zero scalars are not
    stored.
    """
    cols = []
    for p in domain.points:
        col = {}
        for target, value in rule(p):
            if not codomain.validator(target):
                raise ValueError(f"rule produced invalid index: {target!r} from {p!r}")
            if value == 0:
                continue
            if target in codomain:
                i = codomain.index_of(target)
                col[i] = col.get(i, 0) + value
        cols.append([(i, v) for i, v in col.items() if v != 0])
    return SparseOperator(domain, codomain, cols, mode)


def identity(basis: Basis, mode: Mode) -> SparseOperator:
    one = 1 if mode.exact else 1.0
    return SparseOperator(basis, basis, [[(j, one)] for j in range(len(basis))], mode)


def diagonal(basis: Basis, fn: Callable, mode: Mode) -> SparseOperator:
    """Diagonal operator with entry fn(point) at each basis point."""
    cols = []
    for j, p in enumerate(basis.points):
        v = fn(p)
        cols.append([(j, v)] if v != 0 else [])
    return SparseOperator(basis, basis, cols, mode)


def _same_space(a: Basis, b: Basis) -> bool:
    return a is b or (len(a) == len(b) and a.points == b.points)


def compose(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """Matrix product a @ b (apply b first)."""
    if not _same_space(a.domain, b.codomain):
        raise ValueError("dimension mismatch in compose")
    if a.mode != b.mode:
        raise ValueError("mode mismatch in compose")
    cols = []
    for col_b in b.cols:
        acc = {}
        for k, bv in col_b:
            for i, av in a.cols[k]:
                acc[i] = acc.get(i, 0) + av * bv
        cols.append([(i, v) for i, v in acc.items() if v != 0])
    return SparseOperator(b.domain, a.codomain, cols, a.mode)


def add(a: SparseOperator, b: SparseOperator, wa=1, wb=1) -> SparseOperator:
    """Weighted sum wa * a + wb * b."""
    if not (_same_space(a.domain, b.domain) and _same_space(a.codomain, b.codomain)):
        raise ValueError("dimension mismatch in add")
    if a.mode != b.mode:
        raise ValueError("mode mismatch in add")
    cols = []
    for ca, cb in zip(a.cols, b.cols):
        acc = {}
        for i, v in ca:
            acc[i] = acc.get(i, 0) + wa * v
        for i, v in cb:
            acc[i] = acc.get(i, 0) + wb * v
        cols.append([(i, v) for i, v in acc.items() if v != 0])
    return SparseOperator(a.domain, a.codomain, cols, a.mode)


def adjoint(a: SparseOperator) -> SparseOperator:
    """Conjugate transpose (plain transpose in the real and exact modes)."""
    cols: list[list[Entry]] = [[] for _ in range(len(a.codomain))]
    for i, j, v in a.entries():
        cols[i].append((j, v.conjugate() if isinstance(v, complex) else v))
    return SparseOperator(a.codomain, a.domain, cols, a.mode)


def tensor(a: SparseOperator, b: SparseOperator, domain: Basis, codomain: Basis) -> SparseOperator:
    """Kronecker product on factor-major tensor bases."""
    if a.mode != b.mode:
        raise ValueError("mode mismatch in tensor")
    nb_dom = len(b.domain)
    nb_cod = len(b.codomain)
    if len(domain) != len(a.domain) * nb_dom or len(codomain) != len(a.codomain) * nb_cod:
        raise ValueError("dimension mismatch in tensor")
    cols = []
    for ja in range(len(a.domain)):
        col_a = a.cols[ja]
        for jb in range(nb_dom):
            col = [(ia * nb_cod + ib, va * vb) for ia, va in col_a for ib, vb in b.cols[jb]]
            cols.append([e for e in col if e[1] != 0])
    return SparseOperator(domain, codomain, cols, a.mode)


def max_abs_entry_per_shell(a: SparseOperator) -> list[tuple[int, float]]:
    """Per domain shell m, the largest |entry| over columns at shell m."""
    out = [0.0] * (a.domain.cap + 1)
    shells = a.domain.shells
    for j, col in enumerate(a.cols):
        m = int(shells[j])
        for _, v in col:
            av = abs(v)
            if av > out[m]:
                out[m] = av
    return list(enumerate(out))


def block_norm(a: SparseOperator, blocks: Iterable[Iterable[int]]) -> float:
    """Spectral norm of ``a`` restricted to the columns listed in ``blocks``.

    The blocks are disjoint sets of column ranks.  When no row is touched by
    two blocks the restriction is block-diagonal, and its norm is the
    largest dense singular value over the blocks (LAPACK SVD, no iteration).
    A shared row or column would make that answer wrong, so it raises.
    """
    row_owner = np.full(len(a.codomain), -1)
    col_seen = np.zeros(len(a.domain), dtype=bool)
    best = 0.0
    for b, block in enumerate(blocks):
        block = list(block)
        if col_seen[block].any():
            raise ValueError("blocks share a column")
        col_seen[block] = True
        entries = [(i, k, v) for k, j in enumerate(block) for i, v in a.cols[j]]
        if not entries:
            continue
        rows, cols, values = zip(*entries)
        support, local = np.unique(rows, return_inverse=True)
        if (row_owner[support] >= 0).any():
            raise ValueError("blocks share a row: the restriction is not block-diagonal")
        row_owner[support] = b
        values = np.array(values)
        dense = np.zeros((len(support), len(block)), dtype=values.dtype)
        dense[local, cols] = values
        best = max(best, float(np.linalg.norm(dense, 2)))
    return best


def max_entry_difference(a: SparseOperator, b: SparseOperator,
                         columns: Iterable[int] | None = None) -> tuple[float, object]:
    """Largest |a - b| entry over the union support, with a witness point.

    ``columns`` restricts the comparison to the given domain ranks.
    """
    if not (_same_space(a.domain, b.domain) and _same_space(a.codomain, b.codomain)):
        raise ValueError("dimension mismatch in comparison")
    worst = 0.0
    witness = None
    col_range = range(len(a.domain)) if columns is None else columns
    for j in col_range:
        da = dict(a.cols[j])
        db = dict(b.cols[j])
        for i in da.keys() | db.keys():
            d = abs(da.get(i, 0) - db.get(i, 0))
            if d > worst:
                worst = d
                witness = (a.codomain.point_of(i), a.domain.point_of(j))
    return worst, witness


def columns_equal_exact(a: SparseOperator, b: SparseOperator,
                        columns: Iterable[int]) -> tuple[int, object]:
    """Count exactly mismatching columns (integer mode); returns first witness."""
    mismatches = 0
    witness = None
    for j in columns:
        if dict(a.cols[j]) != dict(b.cols[j]):
            mismatches += 1
            if witness is None:
                witness = a.domain.point_of(j)
    return mismatches, witness
