"""Every report item kind can fail: per kind, one scoped mutation of the
program under which at least one item of that kind fails at a small cap.

Each row runs its command twice through ``cli.main``: unchanged, where
every item passes, and under its mutation (one ``monkeypatch`` of one
formula or one value), where an item of each named kind fails.  A kind
with no row here has no known mutation that makes it fail; REPORTED lists
those kinds, and every kind of item the command matrix produces has a row
or is listed there.
"""

import json
import re
from fnmatch import fnmatchcase

import pytest

from qsu2 import coefficients, equivalence, representations
from qsu2.cli import main
from test_command_matrix import MATRIX


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


def _scale_term(name, factor):
    """The values of one Clebsch-Gordan term, times factor."""
    def mutate(monkeypatch):
        term = getattr(coefficients, name)

        def scaled(basis, q):
            step, values = term(basis, q)
            return step, values * factor

        monkeypatch.setattr(coefficients, name, scaled)
    return mutate


def _scale_r2(monkeypatch):
    """The closed form's R2 diagonal, times 51."""
    clean = equivalence.diagonal_values
    monkeypatch.setattr(equivalence, "diagonal_values",
                        lambda q, cap, name: clean(q, cap, name) * (51 if name == "R2" else 1))


def _scale_pi_g(factor):
    """The g table that pi and its irreducible fibres read, times factor."""
    def mutate(monkeypatch):
        clean = representations.g_table
        monkeypatch.setattr(representations, "g_table", lambda q, kmax: clean(q, kmax) * factor)
    return mutate


# id: (mutation, argv, item name patterns, each of which must name a failing item)
MUTATIONS = {
    "u-sign": (_flip_one_u_sign, ["verify-q0", "--cap", "8"], ["intertwine/*"]),
    "a-plus-as-a-minus-q0": (_a_plus_takes_a_minus_values, ["verify-q0", "--cap", "8"],
                             ["intertwine/alpha", "relations/lambda0/*"]),
    "a-plus-as-a-minus": (_a_plus_takes_a_minus_values,
                          ["verify-relations", "--q", "0.5", "--cap", "8"], ["lambda/*"]),
    "a-plus-1e-6-relations": (_scale_term("a_plus", 1 + 1e-6),
                              ["verify-relations", "--q", "0.5", "--cap", "8"], ["lambda/*"]),
    "a-plus-1e-6-equivalence": (_scale_term("a_plus", 1 + 1e-6),
                                ["verify-equivalence", "--q", "0.5", "--cap", "8"], ["alpha"]),
    "b-plus-1e-6-equivalence": (_scale_term("b_plus", 1 + 1e-6),
                                ["verify-equivalence", "--q", "0.5", "--cap", "8"], ["beta"]),
    "r2-times-51": (_scale_r2, ["verify-equivalence", "--q", "0.5", "--cap", "8"], ["alpha"]),
    "pi-g-1e-6": (_scale_pi_g(1 + 1e-6), ["verify-relations", "--q", "0.5", "--cap", "8"],
                  ["pi/*"]),
    "pi-g-doubled-q0": (_scale_pi_g(2), ["verify-q0", "--cap", "8"], ["relations/pi0/*"]),
    "irrep-g-1e-6": (_scale_pi_g(1 + 1e-6), ["irrep", "--q", "0.5", "--dim", "16"], ["a*a+b*b-I"]),
}

# (command, kind) of the items that are reported, not certified: no known
# mutation makes them fail (ROADMAP item 13)
REPORTED = [("estimates", "k=*"), ("decay", "shell=*"), ("decay", "normalized_constant"),
            ("decay", "fitted_ratio"), ("tails", "m=*")]

# the name of a relation row: a sum of terms, such as ``a*a+b*b-I`` or ``ab``
_RELATION = re.compile(f"(?:{representations._TERM.pattern})+")


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


def _kind(name: str) -> str:
    """The kind of an item name: the rows of one relation report are one
    kind (``pi/*``; ``*`` for the irrep's unprefixed rows), a numbered item
    is its stem's (``m=*``, ``k=*``), and any other name is its own kind."""
    head, slash, tail = name.rpartition("/")
    if _RELATION.fullmatch(tail):
        return head + slash + "*"
    stem, equals, _ = name.partition("=")
    return stem + equals + "*" if equals else name


def test_every_item_kind_has_a_mutation_or_is_reported(capsys):
    # every kind of item the command matrix produces, in JSON, has an item
    # that a MUTATIONS row of its command fails, or is listed as reported
    uncovered = set()
    for argv in [["verify-q0", "--cap", "8"]] + [argv for argv, _ in MATRIX.values()]:
        argv = [arg for arg in argv if arg not in ("--format", "csv")]
        command = argv[0]
        patterns = [kind for _, row_argv, kinds in MUTATIONS.values() if row_argv[0] == command
                    for kind in kinds]
        kinds: dict[str, list] = {}
        for item in _items(capsys, argv)[1]:
            kinds.setdefault(_kind(item["name"]), []).append(item["name"])
        uncovered |= {(command, kind) for kind, names in kinds.items()
                      if (command, kind) not in REPORTED
                      and not any(fnmatchcase(name, p) for name in names for p in patterns)}
    assert sorted(uncovered) == []


def test_item_kinds():
    assert [_kind(name) for name in (
        "lambda/a*a+b*b-I", "relations/pi0/ab", "aa*+q^2bb*-I", "b*b-bb*", "intertwine/alpha",
        "alpha", "m=3", "k=2:|1-1/g|", "shell=0", "fitted_ratio")] == [
        "lambda/*", "relations/pi0/*", "*", "*", "intertwine/alpha",
        "alpha", "m=*", "k=*", "shell=*", "fitted_ratio"]
