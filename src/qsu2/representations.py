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
from typing import NamedTuple

import numpy as np

from . import coefficients as cf
from .coefficients import float_mode, g_table, power_table
from .lattice import full_basis, gamma_basis, nat_basis, pi_basis, pi_tensor_basis
from .operator_core import (
    SparseOperator,
    Term,
    add,
    adjoint,
    build_from_rule,
    compose,
    tensor,
    worst_column,
)

UNIT_CIRCLE_TOL = 1e-12  # largest ||z| - 1| of an irreducible's parameter z
GENERATORS = ("alpha", "beta")  # the builders' generators; a* and b* are their adjoints


def _mode(q: float) -> float:
    """The mode a section is built in, checked before any term is
    evaluated: q itself at q = 0, the exact mode, where the coefficients
    take crystal values in {-1, 0, +1}, else ``float_mode(q)``."""
    return q if q == 0.0 else float_mode(q)


def build_lambda(q: float, cap: int, gen: str) -> SparseOperator:
    """GNS generator section on the shell-capped l2(Gamma); exact at q = 0."""
    # read per call, so a wrapper patched onto the module (perfbench's tracer) is the one called
    terms = {"alpha": (cf.a_plus, cf.a_minus), "beta": (cf.b_plus, cf.b_minus)}
    if gen not in terms:
        raise ValueError(f"unknown generator {gen!r}: choose alpha or beta")
    basis, mode = gamma_basis(cap), _mode(q)
    return build_from_rule(basis, basis, [term(basis, q) for term in terms[gen]], mode)


def _pi_rule(q: float, gen: str, s: np.ndarray) -> list:
    """The terms ``(shift, values)`` of pi_q(gen) on l2(N x Z) at the
    points s: shifts (ds, dt), values read from s alone, since pi_q reads
    no t."""
    if gen == "alpha":
        return [((-1, 0), g_table(q, int(s.max()))[s])]  # g(0) = 0
    if gen == "beta":
        return [((0, -1), power_table(q, int(s.max()))[s])]
    raise ValueError(f"unknown generator {gen!r}: choose alpha or beta")


def build_pi(q: float, cap: int, gen: str) -> SparseOperator:
    """Direct-integral generator section on the shell-capped l2(N x Z);
    exact at q = 0."""
    basis, mode = pi_basis(cap), _mode(q)
    return build_from_rule(basis, basis, _pi_rule(q, gen, basis.coords[0]), mode)


def build_ipi(q: float, cap: int, gen: str) -> SparseOperator:
    """I (x) pi_q on the shell-capped full lattice: the pi_q terms at every
    point's s, their shifts lifted by (0, ds, dt); exact at q = 0."""
    basis, mode = full_basis(cap), _mode(q)
    lifted = [((0, *shift), v) for shift, v in _pi_rule(q, gen, basis.coords[1])]
    return build_from_rule(basis, basis, lifted, mode)


def build_irrep(q: float, z: complex, dim: int) -> tuple[SparseOperator, SparseOperator]:
    """The infinite-dimensional irreducible indexed by z on the unit circle:
    the fibre at z of pi_q, whose terms read no t.  e_k is pi_q's s, and a
    term shifting t by dt takes the phase z**-dt, so alpha acts as the
    weighted down-shift e_k -> g(k) e_{k-1}, beta as e_k -> z q^k e_k.
    A z within UNIT_CIRCLE_TOL of the circle is replaced by z / |z|, on it.
    """
    float_mode(q)  # refuses q = 0 and |q| >= 1
    if not abs(abs(z) - 1.0) <= UNIT_CIRCLE_TOL:  # NaN z fails too
        raise ValueError("irreducible parameter z must lie on the unit circle")
    if dim < 1:
        raise ValueError("irreducible section needs dim >= 1")
    basis, z = nat_basis(dim), complex(z) / abs(z)
    return tuple(build_from_rule(basis, basis, [((ds,), v if dt == 0 else z ** -dt * v)
                                                for (ds, dt), v in _pi_rule(q, gen, basis.coords[0])], q)
                 for gen in GENERATORS)


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


class RelationResidual(NamedTuple):
    name: str
    residual: float
    witness: object


class RelationReport(NamedTuple):
    rows: tuple[RelationResidual, ...]  # in the order of RELATIONS


# The defining relations of C(SU_q(2)) as the paper writes them, each a sum
# of terms (_TERM): a sign, a weight 1, q or q^2, and a word, the product xy
# of two of a, a*, b, b* (y applied first) or the identity I.  At q = 0 the
# q-weighted terms vanish, and they drop out of the relation and its name.
RELATIONS = ("a*a+b*b-I", "aa*+q^2bb*-I", "ab-qba", "ab*-qb*a", "b*b-bb*")
_TERM = re.compile(r"([+-]?)(q\^2|q|)((?:[ab]\*?){2}|I)")
# Evaluating b*b-bb* right after a*a+b*b-I frees b*b and bb* before aa* is
# formed, so at most three words are alive at once.
_EVALUATION_ORDER = (0, 4, 1, 2, 3)
_MARGIN = 2  # a product of two letters is exact on the shells <= cap - 2


def check_relations(ops) -> RelationReport:
    """Residuals of the defining relations on interior shells.

    ``ops`` maps "alpha" and "beta" to operator sections on one basis, and
    holds no other key (ValueError); the starred letters are their matrix
    adjoints.  Every relation of ``RELATIONS`` is split into its terms by
    ``_TERM`` and evaluated at the operators' q (exact integers at q = 0) on
    the interior columns, the basis vectors of shell <= cap - 2: each
    distinct word is composed once (``compose`` with their boolean mask) and
    dropped after its last reader in ``_EVALUATION_ORDER``; the identity I,
    one zero-shift term, 1 on those columns alone, is formed anew for each
    relation that reads it and dropped after it, never held across another
    relation; each relation is summed by one ``add``.
    Every other column of a relation operator is empty.  The report holds, in
    table order, the largest column norm per relation, its witness point and
    its name: the text of the terms it kept, the relation itself unless q = 0.
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
    q = a.q
    inside = basis.shells <= cap - _MARGIN

    def form(word):
        if word == "I":  # ints, which the exact mode narrows to int8; it refuses bools
            return SparseOperator(basis, basis, [Term((0,) * len(basis.coords), np.where(
                inside, np.arange(len(basis)), -1), inside.astype(np.int64))], q)
        x, y = re.findall(r"[ab]\*?", word)
        return compose(letters[x], letters[y], inside)

    # per relation, (weight, text, word) of each term: the sign times 1, q or q * q
    table = [[((-1 if m[1] == "-" else 1) * {"": 1, "q": q, "q^2": q * q}[m[2]], m[0], m[3])
              for m in _TERM.finditer(relation) if not (q == 0 and m[2])] for relation in RELATIONS]
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
        for word in [word for word in words if word == "I" or last[word] == i]:
            del words[word]
        name = "".join(text for _, text, _ in terms).removeprefix("+")
        rows[i] = RelationResidual(name, worst**0.5, None if j is None else basis.point_of(j))
    return RelationReport(tuple(rows))

