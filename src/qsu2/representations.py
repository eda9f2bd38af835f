"""Builders for the representations of quantum SU(2) and the defining
relation checker.

Two faithful representations are constructed on finite shell
truncations: the GNS action lambda_q on l2(Gamma), given by the
Clebsch-Gordan coefficients, and the direct-integral action pi_q on
l2(N x Z) (lifted to the full lattice as I (x) pi_q).  The same
builders give the crystal limits lambda_0 and pi_0 at q = 0, held in
exact integers: their matrix entries lie in {-1, 0, +1}.  The builders
take the generators of GENERATORS; the starred letters are their matrix
adjoints, formed by ``adjoint``, so *-compatibility holds by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import coefficients as cf
from .coefficients import EXACT_ZERO, float_mode, g_table, power_table
from .lattice import full_basis, gamma_basis, nat_basis, pi_basis, pi_tensor_basis
from .operator_core import (
    SparseOperator,
    add,
    adjoint,
    build_from_rule,
    compose,
    tensor,
    worst_column,
)

UNIT_CIRCLE_TOL = 1e-12  # largest ||z| - 1| of an irreducible's parameter z
GENERATORS = ("alpha", "beta")  # the builders' generators; a* and b* are their adjoints


def _section(basis, rule, q: float) -> SparseOperator:
    """A generator's section from a coefficient rule: exact integers at
    q = 0, where the coefficients take crystal values in {-1, 0, +1}."""
    return build_from_rule(basis, basis, rule, EXACT_ZERO if q == 0.0 else float_mode(q))


def build_lambda(q: float, cap: int, gen: str) -> SparseOperator:
    """GNS generator section on the shell-capped l2(Gamma); exact at q = 0."""
    # read per call, so a wrapper patched onto the module (perfbench's tracer) is the one called
    terms = {"alpha": (cf.a_plus, cf.a_minus), "beta": (cf.b_plus, cf.b_minus)}
    if gen not in terms:
        raise ValueError(f"unknown generator {gen!r}: choose alpha or beta")
    return _section(gamma_basis(cap), lambda *p: [term(*p, q) for term in terms[gen]], q)


def _pi_rule(q: float, gen: str):
    """Action of pi_q(gen) on the basis vectors (s, t) of l2(N x Z)."""
    if gen == "alpha":
        return lambda s, t: [((-1, 0), g_table(q, int(s.max()))[s])]  # g(0) = 0
    if gen == "beta":
        return lambda s, t: [((0, -1), power_table(q, int(s.max()))[s])]
    raise ValueError(f"unknown generator {gen!r}: choose alpha or beta")


def build_pi(q: float, cap: int, gen: str) -> SparseOperator:
    """Direct-integral generator section on the shell-capped l2(N x Z);
    exact at q = 0."""
    return _section(pi_basis(cap), _pi_rule(q, gen), q)


def build_ipi(q: float, cap: int, gen: str) -> SparseOperator:
    """I (x) pi_q on the shell-capped full lattice: the pi_q rule on (s, t)
    for every r; exact at q = 0."""
    pi_rule = _pi_rule(q, gen)

    def rule(r, s, t):
        return [((0, *shift), v) for shift, v in pi_rule(s, t)]

    return _section(full_basis(cap), rule, q)


def build_irrep(q: float, z: complex, dim: int) -> tuple[SparseOperator, SparseOperator]:
    """The infinite-dimensional irreducible indexed by z on the unit circle.

    alpha acts as the weighted down-shift e_k -> g(k) e_{k-1}, beta as the
    diagonal e_k -> z q^k e_k.
    """
    mode = float_mode(q)
    if not abs(abs(z) - 1.0) <= UNIT_CIRCLE_TOL:  # NaN z fails too
        raise ValueError("irreducible parameter z must lie on the unit circle")
    if dim < 1:
        raise ValueError("irreducible section needs dim >= 1")
    basis = nat_basis(dim)
    alpha = build_from_rule(basis, basis, lambda k: [((-1,), g_table(q, dim)[k])], mode)
    z = complex(z)
    beta = build_from_rule(basis, basis, lambda k: [((0,), z * power_table(q, dim)[k])], mode)
    return alpha, beta


def coproduct_images(q: float, cap: int) -> tuple[SparseOperator, SparseOperator]:
    """(pi_q (x) pi_q) of the comultiplied generators on l2(N x Z)^(x)2.

    Delta(alpha) = alpha (x) alpha - q beta* (x) beta and
    Delta(beta) = beta (x) alpha + alpha* (x) beta; feeding the pair to the
    relation checker verifies the homomorphism property on the truncation.
    """
    float_mode(q)  # refuses q = 0 and |q| >= 1
    a = build_pi(q, cap, "alpha")
    b = build_pi(q, cap, "beta")
    basis2 = pi_tensor_basis(cap)
    d_alpha = add((1.0, tensor(a, a, basis2, basis2)), (-q, tensor(adjoint(b), b, basis2, basis2)))
    d_beta = add((1, tensor(b, a, basis2, basis2)), (1, tensor(adjoint(a), b, basis2, basis2)))
    return d_alpha, d_beta


@dataclass(frozen=True)
class RelationResidual:
    name: str
    residual: float
    witness: object


@dataclass(frozen=True)
class RelationReport:
    rows: tuple[RelationResidual, ...]  # in the order of RELATIONS


# The defining relations of C(SU_q(2)), each a sum of weighted words:
# products xy of two of a, a*, b, b* (y applied first), or the identity
# I.  A term's weight at q is read from its label; at q = 0 the
# q-weighted terms vanish, and they drop out of the relation and its name.
_WEIGHTS = {"+": lambda q: 1, "-": lambda q: -1, "+q^2": lambda q: q * q, "-q": lambda q: -q}
RELATIONS = (
    (("+", "a*a"), ("+", "b*b"), ("-", "I")),
    (("+", "aa*"), ("+q^2", "bb*"), ("-", "I")),
    (("+", "ab"), ("-q", "ba")),
    (("+", "ab*"), ("-q", "b*a")),
    (("+", "b*b"), ("-", "bb*")),
)
# Evaluating b*b-bb* right after a*a+b*b-I frees b*b and bb* before aa* is
# formed, so at most three words are alive at once.
_EVALUATION_ORDER = (0, 4, 1, 2, 3)
_MARGIN = 2  # a product of two letters is exact on the shells <= cap - 2


def check_relations(ops) -> RelationReport:
    """Residuals of the defining relations on interior shells.

    ``ops`` maps "alpha" and "beta" to operator sections on one basis, and
    holds no other key (ValueError); the starred letters are their matrix
    adjoints.  Every relation of ``RELATIONS`` is evaluated at the mode's q
    (exact integers at q = 0) on the interior columns, the basis vectors of
    shell <= cap - 2: each distinct word is composed once (``compose`` over
    that column set; I is 1 on those columns alone) and dropped after its
    last reader in ``_EVALUATION_ORDER``; each relation is summed by one
    ``add``.  Every other column of a relation operator is empty.  The
    report holds, in table order, the largest column norm per relation and
    its witness point.
    """
    expected = set(GENERATORS)
    if ops.keys() != expected:
        raise ValueError(f"check_relations takes the keys {GENERATORS} alone; unexpected "
                         f"{sorted(ops.keys() - expected)}, missing {sorted(expected - ops.keys())}")
    a, b = ops["alpha"], ops["beta"]
    letters = {"a": a, "b": b, "a*": adjoint(a), "b*": adjoint(b)}
    basis = a.domain
    cap = basis.cap
    if cap < _MARGIN:
        raise ValueError(f"no interior: cap < {_MARGIN}")
    mode = a.mode
    inside = basis.shells <= cap - _MARGIN
    interior = np.flatnonzero(inside)

    def form(word):
        if word == "I":
            identity = [((0,) * len(basis.coords), inside.astype(np.int64))]
            return build_from_rule(basis, basis, lambda *p: identity, mode)
        x, y = re.findall(r"[ab]\*?", word)
        return compose(letters[x], letters[y], interior)

    table = [[(_WEIGHTS[label](mode.q), label, word) for label, word in terms
              if not (mode.exact and "q" in label)] for terms in RELATIONS]
    last = {word: i for i in _EVALUATION_ORDER for _, _, word in table[i]}
    words: dict[str, SparseOperator] = {}
    rows = [None] * len(table)
    for i in _EVALUATION_ORDER:
        terms = table[i]
        for _, _, word in terms:
            if word not in words:
                words[word] = form(word)
        # one relation operator is alive at a time: reduced, then dropped
        worst, j = worst_column(add(*((w, words[word]) for w, _, word in terms)))
        for word in [word for word in words if last[word] == i]:
            del words[word]
        name = "".join(label + word for _, label, word in terms).removeprefix("+")
        rows[i] = RelationResidual(name, worst**0.5, None if j is None else basis.point_of(j))
    return RelationReport(tuple(rows))

