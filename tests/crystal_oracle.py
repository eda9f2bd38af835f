"""Hand encodings of the crystal (q = 0) actions, the reference for the
exact mode of the qsu2 builders.

They are written out from the paper's description of the crystal limit,
not evaluated from the Clebsch-Gordan formulas, so comparing the two is a
check of the formulas at q = 0.  Gamma points are in doubled coordinates
(n2, i2, j2); points are plain tuples, which compare equal to qsu2's
index tuples.

lambda_0(alpha) drops (n, i, j) to (n - 1/2, i - 1/2, j - 1/2) off the
faces i = -n and j = -n.  lambda_0(beta) jumps up to
(n + 1/2, i + 1/2, j - 1/2) with sign -1 on the face j = -n and drops to
(n - 1/2, i + 1/2, j - 1/2) with sign +1 on the face i = -n; the j = -n
branch takes priority at the common corner, where the drop coefficient
vanishes.  pi_0(alpha) is the shift s -> s - 1, pi_0(beta) the shift
t -> t - 1 on the bottom fiber s = 0; I (x) pi_0 acts the same for every r.

u_backward is the inverse of the crystal-limit unitary, the tests'
reference for U*: it is a second formula, not read back from U.
"""

from qsu2.coefficients import t_parts

# Crystal limits of the four Clebsch-Gordan coefficients.  a_plus is O(q)
# and vanishes; the others are indicators with values in {-1, 0, +1}.

def a_plus0(n2: int, i2: int, j2: int) -> int:
    return 0


def a_minus0(n2: int, i2: int, j2: int) -> int:
    return 1 if (i2 > -n2 and j2 > -n2) else 0


def b_plus0(n2: int, i2: int, j2: int) -> int:
    return -1 if j2 == -n2 else 0


def b_minus0(n2: int, i2: int, j2: int) -> int:
    return 1 if (i2 == -n2 and j2 > -n2) else 0


def lambda0_action(gen: str, p):
    n2, i2, j2 = p
    if gen == "alpha":
        if i2 > -n2 and j2 > -n2:
            return [((n2 - 1, i2 - 1, j2 - 1), 1)]
        return []
    if j2 == -n2:
        return [((n2 + 1, i2 + 1, j2 - 1), -1)]
    if i2 == -n2:
        return [((n2 - 1, i2 + 1, j2 - 1), 1)]
    return []


def pi0_action(gen: str, p):
    s, t = p
    if gen == "alpha":
        return [((s - 1, t), 1)] if s >= 1 else []
    return [((0, t - 1), 1)] if s == 0 else []


def ipi0_action(gen: str, p):
    r, s, t = p
    if gen == "alpha":
        return [((r, s - 1, t), 1)] if s >= 1 else []
    return [((r, 0, t - 1), 1)] if s == 0 else []


def columns(action, gen: str, points) -> dict:
    """{column point: {row point: entry}} of a generator on the truncation
    ``points``; targets outside it are dropped, starred generators are the
    transposes (the entries are real)."""
    base = gen.removesuffix("_star")
    inside = set(points)
    cols = {p: {} for p in points}
    for p in points:
        for target, value in action(base, p):
            if target in inside:
                if gen == base:
                    cols[p][target] = value
                else:
                    cols[target][p] = value
    return cols


def u_backward(r, s, t):
    """Image of full-lattice points under U*, elementwise: (sign, n2, i2, j2)
    with sign (-1)^(t_minus), 2n = r + s + |t|, 2i = -r + s - t,
    2j = -r + s + t."""
    sign = 1 - 2 * (t_parts(t)[1] & 1)
    return sign, r + s + abs(t), -r + s - t, -r + s + t
