"""Independent oracle for ``qsu2 tails``: exact tail norms by dense SVD.

The difference operator ``D = U lambda_q U* - I (x) pi_q`` is rebuilt here
from the Clebsch-Gordan and direct-integral formulas, without qsu2, so the
oracle survives any refactor of the program's operator core.  ``D_alpha``
keeps ``t`` and ``D_beta`` lowers it by one, so distinct column values of
``t`` hit disjoint rows: every tail restriction ``s + |t| >= m`` is
block-diagonal in the column ``t``, and its norm is the largest singular
value over blocks of at most ``(cap + 1)(cap + 2) / 2`` columns.
"""

from __future__ import annotations

import math

import numpy as np

# A tail value further than this (relative) from the oracle fails its item.
# It equals the CLI's own TAIL_SLACK; it must not be loosened.
TAIL_RTOL = 1e-8


def _g(k: int, q: float) -> float:
    """sqrt(1 - q^(2k)), evaluated without cancellation near |q| = 1."""
    return math.sqrt(-math.expm1(2 * k * math.log(abs(q)))) if k > 0 else 0.0


def _u(n2: int, i2: int, j2: int) -> tuple[int, tuple[int, int, int]]:
    """Sign and (r, s, t) image of a doubled Gamma point under U."""
    hi, lo = max(i2, j2), min(i2, j2)
    sign = -1 if ((hi - j2) // 2) % 2 else 1
    return sign, ((n2 - hi) // 2, (n2 + lo) // 2, (j2 - i2) // 2)


def _lambda_terms(q: float, gen: str, n2: int, i2: int, j2: int):
    """Targets and coefficients of lambda_q(gen) on the basis vector (n2, i2, j2)."""
    g = lambda k: _g(k, q)
    if gen == "alpha":
        yield ((n2 + 1, i2 - 1, j2 - 1),
               q ** (n2 + (i2 + j2) // 2 + 1) * g((n2 - j2) // 2 + 1) * g((n2 - i2) // 2 + 1)
               / (g(n2 + 1) * g(n2 + 2)))
        if n2 >= 1 and i2 > -n2 and j2 > -n2:
            yield ((n2 - 1, i2 - 1, j2 - 1),
                   g((n2 + j2) // 2) * g((n2 + i2) // 2) / (g(n2) * g(n2 + 1)))
    else:
        yield ((n2 + 1, i2 + 1, j2 - 1),
               -(q ** ((n2 + j2) // 2)) * g((n2 - j2) // 2 + 1) * g((n2 + i2) // 2 + 1)
               / (g(n2 + 1) * g(n2 + 2)))
        if n2 >= 1 and i2 < n2 and j2 > -n2:
            yield ((n2 - 1, i2 + 1, j2 - 1),
                   q ** ((n2 + i2) // 2) * g((n2 + j2) // 2) * g((n2 - i2) // 2) / (g(n2) * g(n2 + 1)))


def difference_entries(q: float, cap: int, gen: str) -> dict:
    """Nonzero entries {(row point, column point): value} of D_gen on shells <= cap."""
    entries: dict = {}
    for n2 in range(cap + 1):
        for i2 in range(-n2, n2 + 1, 2):
            for j2 in range(-n2, n2 + 1, 2):
                sign_col, col = _u(n2, i2, j2)
                for (tn2, ti2, tj2), value in _lambda_terms(q, gen, n2, i2, j2):
                    if tn2 <= cap:
                        sign_row, row = _u(tn2, ti2, tj2)
                        key = (row, col)
                        entries[key] = entries.get(key, 0.0) + sign_col * sign_row * value
    for m in range(cap + 1):
        for r in range(m + 1):
            for s in range(m - r + 1):
                k = m - r - s
                for t in {k, -k}:
                    if gen == "alpha":
                        row, value = (r, s - 1, t), _g(s, q)
                        keep = s >= 1
                    else:
                        row, value = (r, s, t - 1), q**s
                        keep = r + s + abs(t - 1) <= cap
                    if keep:
                        key = (row, (r, s, t))
                        entries[key] = entries.get(key, 0.0) - value
    return {key: v for key, v in entries.items() if v != 0.0}


def tail_norms(q: float, cap: int, gen: str) -> list[float]:
    """Norm of D_gen restricted to the columns with s + |t| >= m, for m = 0..cap."""
    blocks: dict[int, dict] = {}
    for (row, col), value in difference_entries(q, cap, gen).items():
        blocks.setdefault(col[2], {})[(row, col)] = value
    norms = [0.0] * (cap + 1)
    for t, block in blocks.items():
        rows = {row: k for k, row in enumerate(sorted({row for row, _ in block}))}
        cols = sorted({col for _, col in block}, key=lambda c: c[1])
        col_rank = {col: k for k, col in enumerate(cols)}
        dense = np.zeros((len(rows), len(cols)))
        for (row, col), value in block.items():
            dense[rows[row], col_rank[col]] = value
        pi_shell = np.array([col[1] + abs(t) for col in cols])
        for m in range(cap + 1):
            keep = pi_shell >= m
            if keep.any():
                norms[m] = max(norms[m], float(np.linalg.norm(dense[:, keep], 2)))
    return norms


def rejects(value: float, exact: float) -> bool:
    """Whether a reported tail norm misses the oracle by more than TAIL_RTOL."""
    return not abs(value - exact) <= TAIL_RTOL * abs(exact)
