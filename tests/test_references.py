"""No helper exists only for tests: every public module-level function and
class of qsu2 is read somewhere in the package or in the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsu2"
# the console script `qsu2 = qsu2.cli:main` calls it from outside
ENTRY_POINTS = {("cli", "main")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced(package: Path = PACKAGE, benchmark: Path = ROOT / "perfbench") -> list[str]:
    """module.name of every public module-level def or class that no name
    or attribute of the package or the benchmark (its tests aside) reads."""
    used = set()
    for path in sorted(package.glob("*.py")) + sorted(benchmark.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (path.stem, node.name) not in ENTRY_POINTS
        and node.name not in used
    ]


def test_every_public_definition_is_referenced_outside_tests():
    assert unreferenced() == []


def test_a_test_only_helper_is_caught(tmp_path):
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef helper():\n    return used()\n\n\n"
        "class _Private:\n    pass\n", encoding="utf-8")
    (package / "cli.py").write_text("def main():\n    return 0\n", encoding="utf-8")
    assert unreferenced(package, tmp_path / "none") == ["mod.helper"]
