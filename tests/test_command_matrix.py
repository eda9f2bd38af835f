"""Command matrix pinned against recorded reports.

A refactor must leave the verdicts and witnesses of these commands
unchanged.  verify-q0 is exact, so its whole report is pinned byte for
byte; the float commands pin item names (CSV: the index column), pass
flags and witnesses, never values, which may move in the last digits
with the platform's LAPACK.
"""

import json

import pytest

from qsu2.cli import main

def verify_q0_report(cap):
    """The report of verify-q0 at a passing cap: every value exactly 0."""
    return (
        f'{{"command":"verify-q0","params":{{"cap":{cap}}},"items":['
        + ",".join(
            f'{{"name":"{name}","value":0,"bound":0,"pass":true,"witness":null}}'
            for name in [f"intertwine/{gen}" for gen in ("alpha", "beta", "alpha_star", "beta_star")]
            + [f"relations/{label}/{rel}" for label in ("lambda0", "pi0")
               for rel in ("a*a+b*b-I", "aa*-I", "ab", "ab*", "b*b-bb*")]
        )
        + '],"pass":true,"max_residual":0,"elapsed_ms":0}\n'
    )


_TAILS = [(f"m={m}", True, None) for m in range(7)]
_TAILS_ODD = [(f"m={m}", True, None) for m in range(8)]

MATRIX = {
    # witnesses at noise level: argmaxes of residuals near 1e-16, so any
    # change to the order of floating-point operations moves them
    "verify-relations-cap30": (
        ["verify-relations", "--q", "-0.4268728488224803", "--cap", "30"],
        [
            ("lambda/a*a+b*b-I", True, "GammaIndex(n2=16, i2=-12, j2=-14)"),
            ("lambda/aa*+q^2bb*-I", True, "GammaIndex(n2=18, i2=-6, j2=6)"),
            ("lambda/ab-qba", True, "GammaIndex(n2=5, i2=-1, j2=-3)"),
            ("lambda/ab*-qb*a", True, "GammaIndex(n2=5, i2=-3, j2=-1)"),
            ("lambda/b*b-bb*", True, "GammaIndex(n2=9, i2=-9, j2=-1)"),
            ("pi/a*a+b*b-I", True, "PiIndex(s=3, t=0)"),
            ("pi/aa*+q^2bb*-I", True, "PiIndex(s=2, t=0)"),
            ("pi/ab-qba", True, "PiIndex(s=6, t=0)"),
            ("pi/ab*-qb*a", True, "PiIndex(s=6, t=0)"),
            ("pi/b*b-bb*", True, None),
        ],
    ),
    "verify-relations-near1": (
        ["verify-relations", "--q", "0.999999", "--cap", "12"],
        [
            ("lambda/a*a+b*b-I", True, "GammaIndex(n2=8, i2=-6, j2=-6)"),
            ("lambda/aa*+q^2bb*-I", True, "GammaIndex(n2=9, i2=-7, j2=-7)"),
            ("lambda/ab-qba", True, "GammaIndex(n2=9, i2=-7, j2=5)"),
            ("lambda/ab*-qb*a", True, "GammaIndex(n2=9, i2=5, j2=-7)"),
            ("lambda/b*b-bb*", True, "GammaIndex(n2=9, i2=-9, j2=9)"),
            ("pi/a*a+b*b-I", True, "PiIndex(s=3, t=0)"),
            ("pi/aa*+q^2bb*-I", True, "PiIndex(s=9, t=0)"),
            ("pi/ab-qba", True, "PiIndex(s=9, t=0)"),
            ("pi/ab*-qb*a", True, "PiIndex(s=9, t=0)"),
            ("pi/b*b-bb*", True, None),
        ],
    ),
    "verify-relations": (
        ["verify-relations", "--q", "0.47", "--cap", "6"],
        [
            ("lambda/a*a+b*b-I", True, "GammaIndex(n2=3, i2=-1, j2=1)"),
            ("lambda/aa*+q^2bb*-I", True, "GammaIndex(n2=3, i2=-1, j2=-1)"),
            ("lambda/ab-qba", True, "GammaIndex(n2=2, i2=0, j2=0)"),
            ("lambda/ab*-qb*a", True, "GammaIndex(n2=2, i2=0, j2=0)"),
            ("lambda/b*b-bb*", True, "GammaIndex(n2=3, i2=-3, j2=1)"),
            ("pi/a*a+b*b-I", True, "PiIndex(s=3, t=0)"),
            ("pi/aa*+q^2bb*-I", True, "PiIndex(s=2, t=0)"),
            ("pi/ab-qba", True, None),
            ("pi/ab*-qb*a", True, None),
            ("pi/b*b-bb*", True, None),
        ],
    ),
    "verify-equivalence": (
        ["verify-equivalence", "--q", "0.5", "--cap", "6"],
        [("alpha", True, None), ("beta", True, None)],
    ),
    "decay-csv": (
        ["decay", "--q", "0.5", "--cap", "6", "--target", "R1mR3", "--format", "csv"],
        [(str(m), "true") for m in range(7)] + [("C", "true"), ("ratio", "true")],
    ),
    "tails-alpha": (["tails", "--q", "0.5", "--cap", "6", "--gen", "alpha"], _TAILS),
    "tails-beta": (["tails", "--q", "0.5", "--cap", "6", "--gen", "beta"], _TAILS),
    "tails-alpha-odd": (["tails", "--q=-0.45", "--cap", "7", "--gen", "alpha"], _TAILS_ODD),
    "tails-beta-odd": (["tails", "--q=-0.45", "--cap", "7", "--gen", "beta"], _TAILS_ODD),
    "estimates": (
        ["estimates", "--q", "0.5", "--kmax", "4"],
        [(f"k={k}:{lhs}", True, None) for k in range(1, 5) for lhs in ("|1-g|", "|1-1/g|")],
    ),
    "irrep": (
        ["irrep", "--q", "0.5", "--z-re", "0.6", "--z-im", "0.8", "--dim", "8"],
        [
            ("a*a+b*b-I", True, "1"),
            ("aa*+q^2bb*-I", True, "0"),
            ("ab-qba", True, None),
            ("ab*-qb*a", True, None),
            # complex products round b*b - bb* to 5.3e-17 at e_0, not to 0
            ("b*b-bb*", True, "0"),
        ],
    ),
}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_verify_q0_report_bytes(capsys):
    assert run(capsys, ["verify-q0", "--cap", "12"]) == (0, verify_q0_report(12))


def test_verify_q0_report_bytes_cap40(capsys):
    assert run(capsys, ["verify-q0", "--cap", "40"]) == (0, verify_q0_report(40))


@pytest.mark.parametrize("command", list(MATRIX))
def test_names_verdicts_witnesses(capsys, command):
    argv, expected = MATRIX[command]
    code, out = run(capsys, argv)
    assert code == 0
    if "csv" in argv:
        rows = [tuple(line.split(",")[k] for k in (0, 3)) for line in out.splitlines()[1:]]
    else:
        rows = [(it["name"], it["pass"], it["witness"]) for it in json.loads(out)["items"]]
    assert rows == expected
