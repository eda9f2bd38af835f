"""Test-side views of qsu2 objects that the package itself never needs."""


def basis_points(basis) -> list:
    """Point objects of a basis in rank order, built from its coordinate arrays."""
    return list(map(basis.point, *(c.tolist() for c in basis.coords)))


def entries(op) -> list:
    """(row rank, column rank, value) of every stored entry of an operator."""
    return list(zip(op.rows.tolist(), op.entry_cols().tolist(), op.vals.tolist()))


def sheet_of(p) -> int:
    """Doubled sheet label 2k of the sheet Gamma_k = {n - max(i, j) = k}.

    Sheet 0 is the right-and-rear face of the pyramid; removing it leaves a
    replica of the whole lattice, whose face is sheet 1, and so on.
    """
    return p.n2 - max(p.i2, p.j2)
