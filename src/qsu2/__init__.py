"""Finite-truncation verification toolkit for the two faithful
representations of quantum SU(2) and their crystal-limit equivalence.

The package constructs, on shell truncations, the GNS representation on
l2(Gamma), the direct-integral representation on l2(N x Z), the exact
q = 0 unitary between them, and the difference operators for q != 0,
and certifies (exactly at q = 0, numerically otherwise) the identities
and estimates underlying the equivalence.
"""

from .coefficients import (
    EXACT_ZERO,
    Mode,
    a_minus,
    a_plus,
    b_minus,
    b_plus,
    float_mode,
    g,
    t_parts,
    verify_g_estimates,
)
from .equivalence import (
    DECAY_TARGETS,
    SignedIndexMap,
    closed_form,
    conjugate,
    crosscheck_decomposition,
    decay_loglog_slope,
    decay_report,
    diagonal_values,
    difference,
    tail_norms,
    unitary_u,
    verify_q0_equivalence,
)
from .lattice import (
    FullIndex,
    GammaIndex,
    PiIndex,
    full_basis,
    gamma_basis,
    pi_basis,
    sheet_of,
)
from .operator_core import (
    SparseOperator,
    add,
    adjoint,
    build_from_rule,
    compose,
    diagonal,
    identity,
    max_abs_entry_per_shell,
)
from .representations import (
    Generator,
    build_ipi,
    build_irrep,
    build_lambda,
    build_pi,
    check_relations,
    coproduct_images,
)

__version__ = "0.1.0"
