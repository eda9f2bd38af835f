"""Every report item kind can fail: per kind, one scoped mutation of the
program under which at least one item of that kind fails at a small cap.

Each row runs its command twice through ``cli.main``: unchanged, where
every item passes, and under its mutation (one ``monkeypatch`` of one
formula or one value), where an item of each named kind fails.  A kind
with no row here has no known mutation that makes it fail.
"""

import json
from fnmatch import fnmatchcase

import pytest

from qsu2 import coefficients, equivalence, representations
from qsu2.cli import main


def _flip_one_u_sign(monkeypatch):
    """The sign of U at the middle point of its Gamma basis, negated."""
    clean = equivalence.u_forward

    def flipped(n2, i2, j2):
        sign, *image = clean(n2, i2, j2)
        sign = sign.copy()
        sign[len(sign) // 2] *= -1
        return sign, *image

    monkeypatch.setattr(equivalence, "u_forward", flipped)


def _a_plus_takes_a_minus_values(monkeypatch):
    """a_plus keeps its step but takes the values of a_minus."""
    a_plus, a_minus = coefficients.a_plus, coefficients.a_minus
    monkeypatch.setattr(coefficients, "a_plus",
                        lambda basis, q: (a_plus(basis, q)[0], a_minus(basis, q)[1]))


def _scale_a_plus(factor):
    def mutate(monkeypatch):
        a_plus = coefficients.a_plus

        def scaled(basis, q):
            step, values = a_plus(basis, q)
            return step, values * factor

        monkeypatch.setattr(coefficients, "a_plus", scaled)
    return mutate


def _scale_r2(monkeypatch):
    """The closed form's R2 diagonal, times 51."""
    clean = equivalence.diagonal_values
    monkeypatch.setattr(equivalence, "diagonal_values",
                        lambda q, cap, name: clean(q, cap, name) * (51 if name == "R2" else 1))


def _scale_irrep_g(monkeypatch):
    """The g table the irreducibles read, times 1 + 1e-6."""
    clean = representations.g_table
    monkeypatch.setattr(representations, "g_table", lambda q, kmax: clean(q, kmax) * (1 + 1e-6))


# id: (mutation, argv, item name patterns, each of which must name a failing item)
MUTATIONS = {
    "u-sign": (_flip_one_u_sign, ["verify-q0", "--cap", "8"], ["intertwine/*"]),
    "a-plus-as-a-minus-q0": (_a_plus_takes_a_minus_values, ["verify-q0", "--cap", "8"],
                             ["intertwine/alpha", "relations/lambda0/*"]),
    "a-plus-as-a-minus": (_a_plus_takes_a_minus_values,
                          ["verify-relations", "--q", "0.5", "--cap", "8"], ["lambda/*"]),
    "a-plus-1e-6-relations": (_scale_a_plus(1 + 1e-6),
                              ["verify-relations", "--q", "0.5", "--cap", "8"], ["lambda/*"]),
    "a-plus-1e-6-equivalence": (_scale_a_plus(1 + 1e-6),
                                ["verify-equivalence", "--q", "0.5", "--cap", "8"], ["alpha"]),
    "r2-times-51": (_scale_r2, ["verify-equivalence", "--q", "0.5", "--cap", "8"], ["alpha"]),
    "irrep-g-1e-6": (_scale_irrep_g, ["irrep", "--q", "0.5", "--dim", "16"], ["a*a+b*b-I"]),
}


def _items(capsys, argv) -> tuple[int, list]:
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)["items"]


@pytest.mark.parametrize("row", list(MUTATIONS))
def test_mutation_fails_its_item_kind(monkeypatch, capsys, row):
    mutate, argv, kinds = MUTATIONS[row]
    code, items = _items(capsys, argv)
    assert code == 0 and all(item["pass"] for item in items)
    mutate(monkeypatch)
    code, items = _items(capsys, argv)
    assert code == 1
    for kind in kinds:
        failed = [item["name"] for item in items if fnmatchcase(item["name"], kind) and not item["pass"]]
        assert failed, kind
