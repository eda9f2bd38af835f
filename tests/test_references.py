"""No helper exists only for tests: every public module-level function and
class of qsu2, and every public method and property of its classes, is read
somewhere in the package or in the benchmark, and every private
module-level function is read somewhere in the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsu2"
# the console script `qsu2 = qsu2.cli:main` calls it from outside
ENTRY_POINTS = {("cli", "main")}
# read only by the benchmark's own tests, which go with the next benchmark change
MEMBERS_READ_BY_BENCHMARK_TESTS = {"lattice.Basis.points", "operator_core.SparseOperator.entries"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _readers(package: Path, benchmark: Path) -> list[ast.Module]:
    """The package and the benchmark (its tests aside), parsed."""
    return [_tree(path) for path in sorted(package.glob("*.py")) + sorted(benchmark.glob("*.py"))]


def _public_defs(body) -> list:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unreferenced(package: Path = PACKAGE, benchmark: Path = ROOT / "perfbench") -> list[str]:
    """module.name of every public module-level def or class that no name
    or attribute of the package or the benchmark (its tests aside) reads."""
    used = set()
    for tree in _readers(package, benchmark):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in _public_defs(_tree(path).body)
        if (path.stem, node.name) not in ENTRY_POINTS and node.name not in used
    ]


def unread_members(package: Path = PACKAGE, benchmark: Path = ROOT / "perfbench",
                   exempt=MEMBERS_READ_BY_BENCHMARK_TESTS) -> list[str]:
    """module.Class.name of every public method or property of a package
    class that no attribute of the package or the benchmark (its tests
    aside) reads; a bare name of the same spelling does not count."""
    read = {node.attr for tree in _readers(package, benchmark) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for cls in _public_defs(_tree(path).body) if isinstance(cls, ast.ClassDef)
        for node in _public_defs(cls.body) if not isinstance(node, ast.ClassDef)
        if node.name not in read and f"{path.stem}.{cls.name}.{node.name}" not in exempt
    ]


def uncalled_private(package: Path = PACKAGE) -> list[str]:
    """module.name of every private module-level function that no name or
    attribute of the package reads outside its own definition."""
    trees = {path.stem: _tree(path) for path in sorted(package.glob("*.py"))}
    found = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            own = set(ast.walk(node))
            if not any(isinstance(other, ast.Name) and other.id == node.name
                       or isinstance(other, ast.Attribute) and other.attr == node.name
                       for t in trees.values() for other in ast.walk(t) if other not in own):
                found.append(f"{stem}.{node.name}")
    return found


def test_every_public_definition_is_referenced_outside_tests():
    assert unreferenced() == []


def test_every_public_method_is_read_outside_tests():
    assert unread_members() == []


def test_every_private_function_is_called_in_the_package():
    assert uncalled_private() == []


def test_a_private_function_only_tests_call_is_caught(tmp_path):
    # `_used` is called, `_recursive` only calls itself and `_spare` is read
    # by no one; the dunder `__getattr__` is a hook, not a helper
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else _used()\n\n\n"
        "def _spare():\n    return 0\n\n\n"
        "def __getattr__(name):\n    return name\n", encoding="utf-8")
    (package / "other.py").write_text("from . import mod\n\nVALUE = mod._used()\n",
                                       encoding="utf-8")
    assert uncalled_private(package) == ["mod._recursive", "mod._spare"]


def test_a_test_only_helper_is_caught(tmp_path):
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef helper():\n    return used()\n\n\n"
        "class _Private:\n    pass\n", encoding="utf-8")
    (package / "cli.py").write_text("def main():\n    return 0\n", encoding="utf-8")
    assert unreferenced(package, tmp_path / "none") == ["mod.helper"]


def test_a_test_only_method_is_caught(tmp_path):
    # `size` is read as an attribute and `rows` is a property read as one;
    # `dense` is only a local name and `_private` is not public
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Op:\n"
        "    def size(self):\n        return 1\n\n"
        "    @property\n    def rows(self):\n        return self.size()\n\n"
        "    def dense(self):\n        return 0\n\n"
        "    def _private(self):\n        return 0\n\n\n"
        "def use(op):\n    dense = op.rows\n    return dense\n", encoding="utf-8")
    assert unread_members(package, tmp_path / "none", exempt=set()) == ["mod.Op.dense"]
    assert unread_members(package, tmp_path / "none", exempt={"mod.Op.dense"}) == []
