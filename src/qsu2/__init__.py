"""Finite-truncation verification toolkit for the two faithful
representations of quantum SU(2) and their crystal-limit equivalence.

The package constructs, on shell truncations, the GNS representation on
l2(Gamma), the direct-integral representation on l2(N x Z), the exact
q = 0 unitary between them, and the difference operators for q != 0,
and certifies (exactly at q = 0, numerically otherwise) the identities
and estimates underlying the equivalence.
"""

__version__ = "0.1.0"
