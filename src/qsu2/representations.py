"""Builders for the representations of quantum SU(2) and the defining
relation checker.

Two faithful representations are constructed on finite shell
truncations: the GNS action lambda_q on l2(Gamma), given by the
Clebsch-Gordan coefficients, and the direct-integral action pi_q on
l2(N x Z) (lifted to the full lattice as I (x) pi_q).  The same
builders give the crystal limits lambda_0 and pi_0 at q = 0, held in
exact integers: their matrix entries lie in {-1, 0, +1}.  Starred
generators are always the exact matrix adjoints of the unstarred ones,
so *-compatibility holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import coefficients as cf
from .coefficients import EXACT_ZERO, float_mode, g_table, power_table
from .lattice import full_basis, gamma_basis, nat_basis, pi_basis, pi_tensor_basis
from .operator_core import (
    EXACT_LIMIT,
    SparseOperator,
    add,
    adjoint,
    build_from_rule,
    compose,
    identity,
    tensor,
)

UNIT_CIRCLE_TOL = 1e-12  # largest ||z| - 1| of an irreducible's parameter z


class Generator(str, Enum):
    ALPHA = "alpha"
    BETA = "beta"
    ALPHA_STAR = "alpha_star"
    BETA_STAR = "beta_star"

    @property
    def starred(self) -> bool:
        return self.value.endswith("_star")

    @property
    def base(self) -> "Generator":
        return Generator(self.value.removesuffix("_star"))


def _as_generator(gen) -> Generator:
    return gen if isinstance(gen, Generator) else Generator(gen)


def _section(basis, rule, q: float) -> SparseOperator:
    """Generator section from a coefficient rule, in the mode that q selects.

    At q = 0 the coefficient formulas take crystal values in {-1, 0, +1}
    and the section is held in exact integers; otherwise in floats.
    """
    if q != 0.0:
        return build_from_rule(basis, basis, rule, float_mode(q))
    return build_from_rule(basis, basis, lambda *c: [(t, _integer(v)) for t, v in rule(*c)],
                           EXACT_ZERO)


def _integer(values: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(values) | (values != np.trunc(values))
    if bad.any():
        raise ValueError(f"non-integer crystal coefficient {values[np.argmax(bad)].item()!r}")
    return values.astype(np.int64)


def build_lambda(q: float, cap: int, gen) -> SparseOperator:
    """GNS generator section on the shell-capped l2(Gamma); exact at q = 0."""
    gen = _as_generator(gen)
    if gen.starred:
        return adjoint(build_lambda(q, cap, gen.base))

    if gen is Generator.ALPHA:
        def rule(n2, i2, j2):
            return [((n2 + 1, i2 - 1, j2 - 1), cf.a_plus(n2, i2, j2, q)),
                    ((n2 - 1, i2 - 1, j2 - 1), cf.a_minus(n2, i2, j2, q))]
    else:
        def rule(n2, i2, j2):
            return [((n2 + 1, i2 + 1, j2 - 1), cf.b_plus(n2, i2, j2, q)),
                    ((n2 - 1, i2 + 1, j2 - 1), cf.b_minus(n2, i2, j2, q))]

    return _section(gamma_basis(cap), rule, q)


def _pi_rule(q: float, gen: Generator):
    """Action of pi_q(gen) on the basis vectors (s, t) of l2(N x Z)."""
    if gen is Generator.ALPHA:
        return lambda s, t: [((s - 1, t), g_table(q, int(s.max()))[s])]  # g(0) = 0
    return lambda s, t: [((s, t - 1), power_table(q, int(s.max()))[s])]


def build_pi(q: float, cap: int, gen) -> SparseOperator:
    """Direct-integral generator section on the shell-capped l2(N x Z);
    exact at q = 0."""
    gen = _as_generator(gen)
    if gen.starred:
        return adjoint(build_pi(q, cap, gen.base))
    return _section(pi_basis(cap), _pi_rule(q, gen), q)


def build_ipi(q: float, cap: int, gen) -> SparseOperator:
    """I (x) pi_q on the shell-capped full lattice: the pi_q rule on (s, t)
    for every r; exact at q = 0."""
    gen = _as_generator(gen)
    if gen.starred:
        return adjoint(build_ipi(q, cap, gen.base))
    pi_rule = _pi_rule(q, gen)

    def rule(r, s, t):
        return [((r, *target), v) for target, v in pi_rule(s, t)]

    return _section(full_basis(cap), rule, q)


def build_irrep(q: float, z: complex, dim: int) -> tuple[SparseOperator, SparseOperator]:
    """The infinite-dimensional irreducible indexed by z on the unit circle.

    alpha acts as the weighted down-shift e_k -> g(k) e_{k-1}, beta as the
    diagonal e_k -> z q^k e_k.
    """
    if q == 0.0 or not abs(q) < 1.0:
        raise ValueError("irreducibles need 0 < |q| < 1")
    if not abs(abs(z) - 1.0) <= UNIT_CIRCLE_TOL:  # NaN z fails too
        raise ValueError("irreducible parameter z must lie on the unit circle")
    if dim < 1:
        raise ValueError("irreducible section needs dim >= 1")
    mode = float_mode(q)
    basis = nat_basis(dim)
    alpha = build_from_rule(basis, basis, lambda k: [((k - 1,), g_table(q, dim)[k])], mode)
    z = complex(z)
    beta = build_from_rule(basis, basis, lambda k: [((k,), z * power_table(q, dim)[k])], mode)
    return alpha, beta


def coproduct_images(q: float, cap: int) -> tuple[SparseOperator, SparseOperator]:
    """(pi_q (x) pi_q) of the comultiplied generators on l2(N x Z)^(x)2.

    Delta(alpha) = alpha (x) alpha - q beta* (x) beta and
    Delta(beta) = beta (x) alpha + alpha* (x) beta; feeding the pair to the
    relation checker verifies the homomorphism property on the truncation.
    """
    if q == 0.0:
        raise ValueError("coproduct images need 0 < |q| < 1")
    a = build_pi(q, cap, Generator.ALPHA)
    b = build_pi(q, cap, Generator.BETA)
    basis2 = pi_tensor_basis(cap)
    d_alpha = add(
        tensor(a, a, basis2, basis2),
        tensor(adjoint(b), b, basis2, basis2),
        1.0,
        -q,
    )
    d_beta = add(
        tensor(b, a, basis2, basis2),
        tensor(adjoint(a), b, basis2, basis2),
    )
    return d_alpha, d_beta


@dataclass(frozen=True)
class RelationResidual:
    name: str
    residual: float
    witness: object


@dataclass(frozen=True)
class RelationReport:
    cap: int
    margin: int
    exact: bool
    rows: tuple[RelationResidual, ...]

    @property
    def max_residual(self) -> float:
        """Largest residual; a NaN residual propagates instead of hiding."""
        residuals = [r.residual for r in self.rows]
        if any(r != r for r in residuals):
            return float("nan")
        return max(residuals, default=0.0)


def check_relations(ops, margin: int = 2) -> RelationReport:
    """Residuals of the defining relations on interior shells.

    ``ops`` maps generator names to operator sections on one basis; missing
    starred generators are filled in by matrix adjoints.  Each relation is a
    word of length <= 2, evaluated on every basis vector of shell <=
    cap - margin; the report holds the largest column norm per relation and
    the witnessing basis point.  At q = 0 the crystal relations are checked
    in exact integer arithmetic.
    """
    ops = {_as_generator(k): v for k, v in ops.items()}
    a = ops[Generator.ALPHA]
    b = ops[Generator.BETA]
    astar = ops[Generator.ALPHA_STAR] if Generator.ALPHA_STAR in ops else adjoint(a)
    bstar = ops[Generator.BETA_STAR] if Generator.BETA_STAR in ops else adjoint(b)
    basis = a.domain
    cap = basis.cap
    if margin < 2:
        raise ValueError("margin must be at least 2")
    if cap < margin:
        raise ValueError("no interior: cap < margin")
    mode = a.mode
    eye = identity(basis, mode)

    # Each relation is built, reduced to its worst interior column and
    # dropped before the next is built, so one relation operator is alive
    # at a time.
    if mode.exact:
        relations = [
            ("a*a+b*b-I", lambda: add(add(compose(astar, a), compose(bstar, b)), eye, 1, -1)),
            ("aa*-I", lambda: add(compose(a, astar), eye, 1, -1)),
            ("ab", lambda: compose(a, b)),
            ("ab*", lambda: compose(a, bstar)),
            ("b*b-bb*", lambda: add(compose(bstar, b), compose(b, bstar), 1, -1)),
        ]
    else:
        q = mode.q
        relations = [
            ("a*a+b*b-I", lambda: add(add(compose(astar, a), compose(bstar, b)), eye, 1.0, -1.0)),
            ("aa*+q^2bb*-I",
             lambda: add(add(compose(a, astar), compose(b, bstar), 1.0, q * q), eye, 1.0, -1.0)),
            ("ab-qba", lambda: add(compose(a, b), compose(b, a), 1.0, -q)),
            ("ab*-qb*a", lambda: add(compose(a, bstar), compose(bstar, a), 1.0, -q)),
            ("b*b-bb*", lambda: add(compose(bstar, b), compose(b, bstar), 1.0, -1.0)),
        ]

    interior = np.flatnonzero(basis.shells <= cap - margin)
    rows = []
    for name, build in relations:
        worst, j = _worst_column(build(), interior)
        rows.append(RelationResidual(name, worst**0.5, None if j is None else basis.point_of(j)))
    return RelationReport(cap, margin, mode.exact, tuple(rows))


def _worst_column(op: SparseOperator, columns: np.ndarray) -> tuple[object, int | None]:
    """Largest squared column norm, |v| * |v| summed in entry order, over
    ``columns`` and the first column in rank order attaining it; a NaN
    column wins at once.  (0.0, None) when every column is zero."""
    absv = np.abs(op.vals)
    if op.mode.exact:
        if int(absv.max(initial=0)) ** 2 * int(np.diff(op.indptr).max(initial=0)) >= EXACT_LIMIT:
            raise OverflowError("exact column norm could overflow int64")
    norms = np.zeros(len(op.domain), dtype=absv.dtype)
    np.add.at(norms, op.entry_cols(), absv * absv)  # each column summed in entry order
    norms = norms[columns]
    nan = np.isnan(norms)
    if nan.any():
        return float("nan"), int(columns[np.argmax(nan)])
    top = norms.max(initial=0)
    if not top > 0:
        return 0.0, None
    return top.item(), int(columns[np.argmax(norms == top)])

