"""CLI behaviour: exit codes, report schemas, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsu2
from qsu2 import cli, equivalence
from qsu2.cli import main
from qsu2.lattice import full_basis, gamma_basis
from qsu2.report import ReportItem, VerificationReport, render


README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_q0_passes(capsys):
    code, out, _ = run(capsys, "verify-q0", "--cap", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify-q0"
    assert doc["pass"] is True
    assert doc["params"] == {"cap": 8}
    names = [it["name"] for it in doc["items"]]
    assert "intertwine/alpha" in names and "relations/pi0/aa*-I" in names
    assert all(it["pass"] for it in doc["items"])


def test_verify_q0_cap_zero_usage_error(capsys):
    code, out, err = run(capsys, "verify-q0", "--cap", "0")
    assert code == 2
    assert out == ""
    assert "no interior" in err


def test_verify_equivalence_cap_zero_usage_error(capsys):
    # at cap 0 no column has shell <= cap - 1, so nothing would be checked
    code, out, err = run(capsys, "verify-equivalence", "--q", "0.5", "--cap", "0")
    assert code == 2
    assert out == ""
    assert "no interior" in err


def test_q_zero_redirects_to_exact_command(capsys):
    code, _, err = run(capsys, "verify-relations", "--q", "0", "--cap", "6")
    assert code == 2
    assert "verify-q0" in err


def test_q_out_of_range(capsys):
    code, _, err = run(capsys, "tails", "--q", "1.5", "--cap", "4", "--gen", "alpha")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-q0", "--bogus", "1"])
    assert exc.value.code == 2


def test_quantitative_failure_exit_code(capsys):
    # an absurdly tight tolerance turns machine-epsilon residuals into failures
    code, out, _ = run(capsys, "verify-relations", "--q", "0.5", "--cap", "6", "--tol", "1e-20")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False


def test_relations_report_schema(capsys):
    code, out, _ = run(capsys, "verify-relations", "--q", "0.5", "--cap", "6")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "params", "items", "pass", "max_residual", "elapsed_ms"]
    item = doc["items"][0]
    assert list(item) == ["name", "value", "bound", "pass", "witness"]
    assert doc["max_residual"] < 1e-12
    assert doc["elapsed_ms"] == 0


def test_float_serialization_17_digits(capsys):
    _, out, _ = run(capsys, "verify-relations", "--q", "0.5", "--cap", "6")
    # 1e-12 default tolerance printed with 17 significant digits
    assert '"tol":9.9999999999999998e-13' in out


@pytest.mark.parametrize("values", [[float("nan"), 1e-17], [1e-17, float("nan")]],
                         ids=["nan-first", "nan-last"])
def test_report_max_residual_propagates_nan(values):
    items = [ReportItem(f"item{i}", v, 1e-12, v < 1e-12) for i, v in enumerate(values)]
    report = VerificationReport("verify-relations", {}, items)
    assert math.isnan(report.max_residual)
    assert json.loads(render(report, "json"))["max_residual"] is None


# Bytes of the crafted report below as the per-value serializer wrote them.
GOLDEN_JSON = (
    '{"command":"golden","params":{"q":-0.5,"cap":3,"flag":true,"off":false,"none":null,'
    '"tol":9.9999999999999998e-13,"name":"a \\"quoted\\" \\u00e9\\u2192","nested":{"list":[1,2.5,'
    'null],"tuple":["x",null,-0]}},'
    '"items":[{"name":"none","value":null,"bound":null,"pass":true,"witness":null}'
    ',{"name":"int","value":3,"bound":0,"pass":false,"witness":"GammaIndex(n2=1, i2=-1, j2=1)"}'
    ',{"name":"float","value":0.10000000000000001,"bound":9.9999999999999998e-13,"pass":true,'
    '"witness":null}'
    ',{"name":"nan","value":null,"bound":1,"pass":false,"witness":"PiIndex(s=3, t=0)"}'
    ',{"name":"inf","value":null,"bound":null,"pass":false,"witness":null}'
    ',{"name":"negzero","value":-0,"bound":0,"pass":true,"witness":null}'
    ',{"name":"np","value":0.66666666666666663,"bound":1.0000000000000001e+301,"pass":true,'
    '"witness":null}'
    ',{"name":"quote \\"w\\" \\u00e9","value":1e-300,"bound":4.9406564584124654e-324,"pass":true,'
    '"witness":"say \\"hi\\" \\u2192 \\\\ \\n"}'
    ',{"name":"bool","value":true,"bound":false,"pass":true,"witness":null}],"pass":false,'
    '"max_residual":null,"elapsed_ms":0}\n'
)


def test_json_report_golden_bytes():
    # numpy integer and bool scalars write the same bytes as Python's
    for integer, boolean in ((int, bool), (np.int64, np.bool_)):
        report = VerificationReport(
            "golden",
            {"q": -0.5, "cap": integer(3), "flag": boolean(True), "off": boolean(False), "none": None,
             "tol": np.float64(1e-12), "name": 'a "quoted" é→',
             "nested": {"list": [integer(1), 2.5, float("nan")], "tuple": ("x", None, -0.0)}},
            [
                ReportItem("none", None, None, boolean(True), None),
                ReportItem("int", integer(3), integer(0), boolean(False), "GammaIndex(n2=1, i2=-1, j2=1)"),
                ReportItem("float", 0.1, 1e-12, True, None),
                ReportItem("nan", float("nan"), 1.0, False, "PiIndex(s=3, t=0)"),
                ReportItem("inf", float("inf"), float("-inf"), False, None),
                ReportItem("negzero", -0.0, 0.0, True, None),
                ReportItem("np", np.float64(2.0) / 3, np.float64(1e300) * 10, True, None),
                ReportItem('quote "w" é', 1e-300, 5e-324, True, 'say "hi" → \\ \n'),
                ReportItem("bool", boolean(True), boolean(False), boolean(True), None),
            ],
        )
        assert render(report, "json") == GOLDEN_JSON, integer


def test_report_max_residual_reads_numpy_integers():
    items = [ReportItem("small", 1e-3, 1e-12, False), ReportItem("count", np.int64(-2), 0, np.bool_(False))]
    report = VerificationReport("verify-q0", {"cap": np.int64(3)}, items)
    assert report.max_residual == 2
    assert render(report, "csv") == "index,value,bound,pass\nsmall,0.001,9.9999999999999998e-13,false\ncount,-2,0,false\n"
    assert json.loads(render(report, "json"))["params"] == {"cap": 3}


def _nan_at_one_point(monkeypatch):
    """Make equivalence.diagonal_values return NaN at the point (1, 1, 0)."""
    clean = equivalence.diagonal_values

    def poisoned(q, cap, name):
        values = clean(q, cap, name).copy()
        values[int(full_basis(cap).rank(1, 1, 0))] = math.nan
        return values

    monkeypatch.setattr(equivalence, "diagonal_values", poisoned)


@pytest.mark.parametrize("argv", [
    ["verify-equivalence", "--q", "0.5", "--cap", "6"],
    ["decay", "--q", "0.5", "--cap", "6", "--target", "R1mR3"],
], ids=["verify-equivalence", "decay"])
def test_nan_coefficient_fails_the_report(monkeypatch, capsys, argv):
    _nan_at_one_point(monkeypatch)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["max_residual"] is None


def test_estimates_csv(capsys):
    code, out, _ = run(capsys, "estimates", "--q", "0.5", "--kmax", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,value,bound,pass"
    assert len(lines) == 1 + 2 * 3  # two inequalities per k
    assert lines[1].startswith("1,0.13397459621556135,0.25,true")


@pytest.mark.parametrize("argv", [("verify-relations", "--q", "0.47", "--cap", "6"),
                                  ("verify-q0", "--cap", "4")], ids=["verify-relations", "verify-q0"])
def test_relation_csv_rows_are_told_apart(capsys, argv):
    # each relation is checked on two representations: the index is the full item name
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    index = [line.split(",")[0] for line in out.splitlines()[1:]]
    _, doc, _ = run(capsys, *argv)
    assert index == [it["name"] for it in json.loads(doc)["items"]]
    assert len(set(index)) == len(index) == (10 if argv[0] == "verify-relations" else 14)


def test_equivalence_command(capsys):
    code, out, _ = run(capsys, "verify-equivalence", "--q", "0.5", "--cap", "6")
    assert code == 0
    doc = json.loads(out)
    assert {it["name"] for it in doc["items"]} == {"alpha", "beta"}
    assert doc["max_residual"] < 1e-13


def test_decay_command(capsys):
    code, out, _ = run(capsys, "decay", "--q", "0.5", "--cap", "6", "--target", "R1mR3")
    assert code == 0
    doc = json.loads(out)
    names = [it["name"] for it in doc["items"]]
    assert "shell=0" in names and "normalized_constant" in names and "fitted_ratio" in names


@pytest.mark.parametrize("cap, target",
                         [(0, target) for target in equivalence.DECAY_TARGETS] + [(1, "T1mT3")])
def test_decay_with_nothing_fitted_fails(capsys, cap, target):
    # no two consecutive shells are both nonzero, so no ratio can be fitted
    code, out, _ = run(capsys, "decay", "--q", "0.5", "--cap", str(cap), "--target", target)
    doc = json.loads(out)
    assert doc["items"][-1] == {"name": "fitted_ratio", "value": None, "bound": None,
                                "pass": False, "witness": None}
    assert doc["pass"] is False and code == 1


def test_tails_command(capsys):
    code, out, _ = run(capsys, "tails", "--q", "0.5", "--cap", "6", "--gen", "beta")
    assert code == 0
    doc = json.loads(out)
    values = [it["value"] for it in doc["items"]]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-8  # nonincreasing up to the CLI's TAIL_SLACK


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tol_usage_error(capsys, value):
    code, out, err = run(capsys, "verify-relations", "--q", "0.5", "--cap", "6", "--tol", value)
    assert code == 2
    assert out == ""
    assert "tol" in err


def test_non_finite_z_re_usage_error(capsys):
    code, out, err = run(capsys, "irrep", "--q", "0.5", "--z-re", "nan", "--dim", "5")
    assert code == 2
    assert out == ""
    assert "--z-re" in err


def test_non_finite_z_im_usage_error(capsys):
    code, out, err = run(capsys, "irrep", "--q", "0.5", "--z-im", "inf", "--dim", "5")
    assert code == 2
    assert out == ""
    assert "--z-im" in err


def test_irrep_command(capsys):
    code, out, _ = run(capsys, "irrep", "--q", "0.5", "--z-re", "0.6", "--z-im", "0.8", "--dim", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["items"]) == 5


def test_out_file_and_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["verify-relations", "--q", "0.5", "--cap", "6", "--out", str(p)])
        assert code == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(monkeypatch, tmp_path, capsys, where):
    def refuse(args):
        raise AssertionError("the command ran before --out was opened")

    monkeypatch.setattr(cli, "cmd_verify_q0", refuse)
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, stdout, err = run(capsys, "verify-q0", "--cap", "2", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert f"qsu2: error: cannot write --out {out}" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-relations", "--q", "0.5", "--cap", "1"], "--cap"),
        (["irrep", "--q", "0.5", "--z-re", "2"], "--z-re"),
        (["irrep", "--q", "0.5", "--dim", "1"], "--dim"),
    ],
    ids=["relations-cap", "irrep-z", "irrep-dim"],
)
def test_usage_error_leaves_out_untouched(tmp_path, capsys, argv, flag):
    out = tmp_path / "o.json"
    out.write_bytes(b"sentinel\n")
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert out.read_bytes() == b"sentinel\n"
    assert stdout == ""
    assert flag in err


def test_stdout_determinism(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "decay", "--q", "0.5", "--cap", "5", "--target", "T2mT4")
        outs.append(out)
    assert outs[0] == outs[1]


def test_size_budget_closed_form():
    parser = cli.build_parser()
    for cap in range(8):
        args = parser.parse_args(["verify-q0", "--cap", str(cap)])
        assert cli._size(args) == ("cap", len(gamma_basis(cap))) == ("cap", len(full_basis(cap)))
    # the largest documented invocation fits, the next cap past the budget does not
    assert cli._size(parser.parse_args(["verify-q0", "--cap", "40"])) == ("cap", 23821)
    assert cli._size(parser.parse_args(["verify-q0", "--cap", "51"]))[1] <= cli.MAX_POINTS
    assert cli._size(parser.parse_args(["verify-q0", "--cap", "52"]))[1] > cli.MAX_POINTS


@pytest.mark.parametrize(
    "argv, handler",
    [
        (["verify-q0", "--cap", "52"], "cmd_verify_q0"),
        (["tails", "--q", "0.5", "--gen", "beta", "--cap", "1000000000"], "cmd_tails"),
        (["irrep", "--q", "0.5", "--dim", str(cli.MAX_POINTS + 1)], "cmd_irrep"),
        (["estimates", "--q", "0.5", "--kmax", str(cli.MAX_POINTS + 1)], "cmd_estimates"),
    ],
    ids=["cap", "cap-huge", "dim", "kmax"],
)
def test_size_budget_usage_error(monkeypatch, capsys, argv, handler):
    def refuse(args):
        raise AssertionError("the command ran past the size budget")

    monkeypatch.setattr(cli, handler, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[-2]} {argv[-1]} enumerates" in err and "budget" in err


def test_cli_import_loads_no_scipy():
    # importing scipy.sparse costs 0.17-0.26 s of set-up and 20-22 MB of RSS,
    # more than the benchmark's bounds allow; storage stays on numpy
    src = str(Path(qsu2.__file__).resolve().parents[1])
    code = "import sys, qsu2.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _readme_examples() -> list[str]:
    """The qsu2 lines of the README's "Command-line usage" block."""
    section = README.read_text(encoding="utf-8").split("## Command-line usage", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("qsu2 ")]


def test_readme_cli_examples_parse_within_budget():
    # every example of the README's "Command-line usage" block must parse
    # with the current flags and fit the size budget; none is run here
    examples = _readme_examples()
    assert len(examples) >= 7
    parser = cli.build_parser()
    for line in examples:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        flag, size = cli._size(args)
        assert size <= cli.MAX_POINTS, (line, flag, size)


def test_readme_shows_every_command():
    commands = [shlex.split(line)[1] for line in _readme_examples()]
    assert sorted(commands) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: qsu2 {command} ")


# Keys of each command's report params, in order, as the commands wrote
# them before the command table derived them from the flags.
PARAMS = {
    "verify-q0": (["--cap", "2"], ["cap"]),
    "verify-relations": (["--q", "0.5", "--cap", "2"], ["q", "cap", "tol"]),
    "verify-equivalence": (["--q", "0.5", "--cap", "2"], ["q", "cap", "tol"]),
    "estimates": (["--q", "0.5", "--kmax", "2"], ["q", "kmax", "c"]),
    "decay": (["--q", "0.5", "--cap", "2", "--target", "Dbeta"], ["q", "cap", "target", "pattern"]),
    "tails": (["--q", "0.5", "--cap", "2", "--gen", "alpha"], ["q", "cap", "gen"]),
    "irrep": (["--q", "0.5", "--dim", "3"], ["q", "z_re", "z_im", "dim", "tol"]),
}


def test_params_pins_cover_every_command():
    assert list(PARAMS) == list(cli.COMMANDS)


@pytest.mark.parametrize("command", list(PARAMS))
def test_report_params_keys_in_order(capsys, command):
    argv, keys = PARAMS[command]
    code, out, _ = run(capsys, command, *argv)
    assert code == 0
    assert list(json.loads(out)["params"]) == keys


def test_readme_states_every_least_size():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for name, command in cli.COMMANDS.items():
        if command.least:
            assert f"`{name} --{command.size}` below {command.least}" in text, name
