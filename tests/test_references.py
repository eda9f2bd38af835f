"""No helper exists only for tests: every public module-level function and
class of qsu2, and every public method and property of its classes, is read
somewhere in the package or in the benchmark, and every private
module-level function and every private module-level name an assignment
binds (a table such as ``_MARGIN``) is read somewhere in the package.  The sparse algebra
of operator_core imports no qsu2 module but lattice, no module of the
package scatters through ``np.<ufunc>.at`` or checks through an ``assert``
statement, only the entry point in cli touches the C allocator, and no
module imports ``dataclasses``: records are ``typing.NamedTuple``s, like
``Term`` and the lattice indices, and the import would cost every start-up.
The one ``try`` statement of the package is the ``except OSError`` around
opening ``--out`` in ``cli.main``: anything else a command raises is a fault,
not a usage error, and propagates.
Only operator_core and equivalence, whose ``tail_norms`` reads the band of an
operator from its terms, read an attribute named ``terms``.  Index arithmetic
never divides to halve: it shifts (``>> 1``) and masks (``& 1``).  No module
calls ``np.append``, which copies its operand whole, or ``np.broadcast_to``:
a rule term holds one value per domain point, and no scalar stands in for
them.  The narrow integer types (``int8``, ``int16``, ``int32``) and
``iinfo`` are named only in operator_core's one dtype helper, so the exact
mode's dtype follows from its entry bound in one place.  An array's write
flag (``writeable``, ``setflags``) is named only in operator_core, whose
constructor marks every term array read-only: no other module makes an
operator array writable, or relies on writing into one."""

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


def _module_level_names(node) -> list[str]:
    """The names a module-level statement defines: a function's, or those
    an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_private(package: Path = PACKAGE) -> list[str]:
    """module.name of every private module-level function or assigned name
    that no loaded name or attribute of the package reads outside the
    statement that defines it."""
    trees = {path.stem: _tree(path) for path in sorted(package.glob("*.py"))}
    found = []
    for stem, tree in trees.items():
        for node in tree.body:
            own = set(ast.walk(node))
            for name in _module_level_names(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(isinstance(other, ast.Name) and other.id == name
                           and isinstance(other.ctx, ast.Load)
                           or isinstance(other, ast.Attribute) and other.attr == name
                           for t in trees.values() for other in ast.walk(t) if other not in own):
                    found.append(f"{stem}.{name}")
    return found


def package_imports(path: Path) -> set[str]:
    """The qsu2 modules a module imports: ``from .x import`` and ``from . import x``."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def ufunc_at_calls(package: Path = PACKAGE) -> list[str]:
    """module:line np.<ufunc>.at of every unbuffered scatter call in the package."""
    return [
        f"{path.stem}:{node.lineno} np.{node.func.value.attr}.at"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "at" and isinstance(node.func.value, ast.Attribute)
        and isinstance(node.func.value.value, ast.Name) and node.func.value.value.id == "np"
    ]


def assert_statements(package: Path = PACKAGE) -> list[str]:
    """module:line of every assert statement in the package."""
    return [f"{path.stem}:{node.lineno} assert"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]


def allocator_touches(package: Path = PACKAGE) -> list[str]:
    """module:line of every ctypes import and every name, attribute or
    string ``mallopt`` outside cli.py, whose ``main`` alone sets the allocator."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        hits = set()
        for node in ast.walk(_tree(path)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(module.split(".")[0] == "ctypes" for module in modules):
                hits.add((node.lineno, "ctypes"))
            elif "mallopt" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "value", None)):
                hits.add((node.lineno, "mallopt"))
        found += [f"{path.stem}:{line} {what}" for line, what in sorted(hits)]
    return found



def dataclasses_imports(package: Path = PACKAGE) -> list[str]:
    """module:line of every import of ``dataclasses`` in the package."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(_tree(path)):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in (module.split(".")[0] for module in modules):
                found.append(f"{path.stem}:{node.lineno}")
    return found


# the modules that may read an operator's terms
TERM_READERS = {"operator_core", "equivalence"}


def term_reads(package: Path = PACKAGE) -> list[str]:
    """module:line of every read of an attribute named ``terms`` outside TERM_READERS."""
    return [f"{path.stem}:{node.lineno} .terms"
            for path in sorted(package.glob("*.py")) if path.stem not in TERM_READERS
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and node.attr == "terms"]


def test_only_operator_core_and_equivalence_read_terms():
    # every other module goes through the operator algebra
    assert term_reads() == []


def test_a_term_read_is_caught(tmp_path):
    # any attribute named terms, nested too, but not a local name, a string
    # or a read inside one of TERM_READERS
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "def f(op, terms):\n"
        "    n = len(op.terms)\n"
        "    if n:\n"
        "        return [t.shift for t in op.terms]\n"
        "    return terms, 'op.terms'\n", encoding="utf-8")
    (package / "equivalence.py").write_text("def g(d):\n    return d.terms\n", encoding="utf-8")
    assert term_reads(package) == ["mod:2 .terms", "mod:4 .terms"]


def test_no_dataclasses_import():
    assert dataclasses_imports() == []


def test_a_dataclasses_import_is_caught(tmp_path):
    # both import forms, nested too, but not the word in a comment
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np  # not dataclasses\n\n\n"
        "def f():\n"
        "    import dataclasses as dc\n"
        "    return dc\n", encoding="utf-8")
    assert dataclasses_imports(package) == ["mod:1", "mod:2", "mod:7"]


def test_only_cli_touches_the_allocator():
    # a library import must leave the allocator as the host program set it
    assert allocator_touches() == []


def test_an_allocator_touch_is_caught(tmp_path):
    # every ctypes import and every spelling of mallopt outside cli.py;
    # cli.py itself, and the word in a comment, are not
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "import ctypes.util\n"
        "from ctypes import CDLL\n"
        "import numpy as np  # not mallopt\n\n"
        "libc = CDLL(None)\n"
        "libc.mallopt(-3, 1)\n"
        "getattr(libc, 'mallopt')\n"
        "mallopt = None\n", encoding="utf-8")
    (package / "cli.py").write_text("import ctypes\n\nctypes.CDLL(None).mallopt(-1, 1)\n",
                                    encoding="utf-8")
    assert allocator_touches(package) == [
        "mod:1 ctypes", "mod:2 ctypes", "mod:6 mallopt", "mod:7 mallopt", "mod:8 mallopt"]


def test_operator_core_imports_only_the_lattice():
    # the scalar policy (q and its coefficients) stays out of the sparse algebra
    assert package_imports(PACKAGE / "operator_core.py") == {"lattice"}


def test_a_second_package_import_is_caught(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import numpy as np\nfrom . import coefficients\n"
                      "from .lattice import Basis\n", encoding="utf-8")
    assert package_imports(module) == {"coefficients", "lattice"}


def test_every_public_definition_is_referenced_outside_tests():
    assert unreferenced() == []


def test_every_public_method_is_read_outside_tests():
    assert unread_members() == []


def test_every_private_function_is_called_in_the_package():
    # private tables too: a lookup table left behind by a rewrite is caught
    assert unread_private() == []


def test_no_ufunc_at_scatter():
    # per-group reductions run over sorted runs (``reduceat``), not scatters
    assert ufunc_at_calls() == []


def test_a_ufunc_at_call_is_caught(tmp_path):
    # `np.add.at` and `np.minimum.at` are scatters; a method named `at` on
    # anything but a numpy ufunc, and `reduceat`, are not
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "import numpy as np\n\n\n"
        "def f(out, idx, v, frame):\n"
        "    np.add.at(out, idx, v)\n"
        "    frame.loc.at(0)\n"
        "    np.minimum.reduceat(v, idx)\n"
        "    return np.minimum.at(out, idx, v)\n", encoding="utf-8")
    assert ufunc_at_calls(package) == ["mod:5 np.add.at", "mod:8 np.minimum.at"]


def _try_clauses(node, scope: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield f"{scope} except {ast.unparse(child.type) if child.type else ''}".rstrip()
        elif isinstance(child, ast.Try) and not child.handlers:
            yield f"{scope} try/finally"
        inner = (f"{scope}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope)
        yield from _try_clauses(child, inner)


def try_clauses(package: Path = PACKAGE) -> list[str]:
    """module.function and caught type of every except clause in the
    package, and module.function of every try with none (a try/finally)."""
    return [clause for path in sorted(package.glob("*.py"))
            for clause in _try_clauses(_tree(path), path.stem)]


def test_only_main_catches_and_only_the_out_error():
    # a library error inside a command is a fault with its traceback, never exit 2
    assert try_clauses() == ["cli.main except OSError"]


def test_a_try_clause_is_caught(tmp_path):
    # every except clause, bare and tuple ones and those nested in a method
    # too, and a try/finally; not the word in a string
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Op:\n"
        "    def f(self, x):\n"
        "        try:\n"
        "            return 1 / x\n"
        "        except (ValueError, ZeroDivisionError):\n"
        "            try:\n"
        "                return 'except ValueError'\n"
        "            finally:\n"
        "                pass\n\n\n"
        "def g():\n"
        "    try:\n"
        "        pass\n"
        "    except OSError as exc:\n"
        "        pass\n\n\n"
        "try:\n"
        "    import numpy\n"
        "except:\n"
        "    numpy = None\n", encoding="utf-8")
    assert try_clauses(package) == ["mod.Op.f except (ValueError, ZeroDivisionError)",
                                    "mod.Op.f try/finally", "mod.g except OSError", "mod except"]


def test_no_assert_statement():
    # `python -O` drops an assert statement, and the check with it
    assert assert_statements() == []


def test_an_assert_statement_is_caught(tmp_path):
    # an assert statement, nested too, but not a raised AssertionError
    # or the word in a string
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    if x > 1:\n"
        "        assert x != 2\n"
        "    if x > 3:\n"
        "        raise AssertionError('assert x <= 3')\n"
        "    return x\n", encoding="utf-8")
    assert assert_statements(package) == ["mod:2 assert", "mod:4 assert"]


def _halving(node) -> str | None:
    """What a node spells if it halves or takes a parity by division:
    ``divmod`` (the builtin or an attribute), ``// 2`` or ``% 2``."""
    if "divmod" in (getattr(node, "id", None), getattr(node, "attr", None)):
        return "divmod"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.FloorDiv, ast.Mod)):
        right = node.right if isinstance(node, ast.BinOp) else node.value
        if isinstance(right, ast.Constant) and right.value == 2:
            return "// 2" if isinstance(node.op, ast.FloorDiv) else "% 2"
    return None


def division_halvings(package: Path = PACKAGE) -> list[str]:
    """module:line and spelling of every ``divmod``, ``// 2`` and ``% 2`` in the package."""
    found = []
    for path in sorted(package.glob("*.py")):
        hits = sorted((node.lineno, what) for node in ast.walk(_tree(path))
                      if (what := _halving(node)))
        found += [f"{path.stem}:{line} {what}" for line, what in hits]
    return found


def test_index_arithmetic_halves_by_shift():
    # halving is `>> 1` and parity `& 1`; points_below's `// 6` is not a halving
    assert division_halvings() == []


def test_a_division_halving_is_caught(tmp_path):
    # both spellings of divmod, `// 2` and `% 2` nested and augmented too;
    # not `// 6`, `>> 1`, `& 1` or the words in a string or a comment
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "import numpy as np\n\n\n"
        "def f(k, n):\n"
        "    i, j = np.divmod(k, n)\n"
        "    a, b = divmod(k, n)\n"
        "    c = (k + (n // 2)) * 3\n"
        "    k %= 2\n"
        "    d = n * (n + 1) // 6 + (k >> 1) + (k & 1)  # not // 2\n"
        "    return i, j, a, b, c, d, 'n % 2', (k % 2 == 0)\n", encoding="utf-8")
    assert division_halvings(package) == [
        "mod:5 divmod", "mod:6 divmod", "mod:7 // 2", "mod:8 % 2", "mod:10 % 2"]


def numpy_uses(name: str, package: Path = PACKAGE) -> list[str]:
    """module:line of every ``np.<name>`` or ``numpy.<name>`` in the package."""
    return [f"{path.stem}:{line} np.{name}"
            for path in sorted(package.glob("*.py"))
            for line in sorted(node.lineno for node in ast.walk(_tree(path))
                               if isinstance(node, ast.Attribute) and node.attr == name
                               and isinstance(node.value, ast.Name)
                               and node.value.id in ("np", "numpy"))]


def test_no_numpy_append():
    # np.append copies its operand whole; a list's append is not np.append
    assert numpy_uses("append") == []


def test_a_numpy_append_is_caught(tmp_path):
    # both module names, nested and uncalled too; not a list's or an
    # attribute's append, or the words in a string or a comment
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "import numpy\n"
        "import numpy as np\n\n\n"
        "def f(x, out, pieces):\n"
        "    y = np.append(x, -1)\n"
        "    pieces.append(y)  # not np.append\n"
        "    out.values.append(0)\n"
        "    grow = numpy.append\n"
        "    return grow(np.append(x, 0), 1), 'np.append(x, 0)'\n", encoding="utf-8")
    assert numpy_uses("append", package) == ["mod:6 np.append", "mod:9 np.append",
                                             "mod:10 np.append"]


def test_no_numpy_broadcast_to():
    # a rule term holds one value per domain point; build_from_rule refuses a scalar
    assert numpy_uses("broadcast_to") == []


def test_a_numpy_broadcast_to_is_caught(tmp_path):
    # both module names, uncalled too; not another object's broadcast_to,
    # np.broadcast_arrays, or the words in a string or a comment
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "import numpy\n"
        "import numpy as np\n\n\n"
        "def f(values, n, view):\n"
        "    if values.shape != (n,):  # not np.broadcast_to\n"
        "        values = np.broadcast_to(values, (n,))\n"
        "    spread = numpy.broadcast_to\n"
        "    view.broadcast_to(n)\n"
        "    return np.broadcast_arrays(values, spread(0, (n,))), 'np.broadcast_to(1, (n,))'\n",
        encoding="utf-8")
    assert numpy_uses("broadcast_to", package) == ["mod:7 np.broadcast_to", "mod:8 np.broadcast_to"]


# the one function that may name the narrow integer types: (module, function)
DTYPE_HELPER = ("operator_core", "_exact_dtype")
NARROW_INTEGER_NAMES = {"int8", "int16", "int32", "iinfo"}


def narrow_integer_names(package: Path = PACKAGE) -> list[str]:
    """module:line name of every name or attribute int8, int16, int32 or
    iinfo in the package outside DTYPE_HELPER, a module-level function."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = _tree(path)
        helper = {id(node) for top in tree.body
                  if isinstance(top, ast.FunctionDef) and (path.stem, top.name) == DTYPE_HELPER
                  for node in ast.walk(top)}
        names = [(node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
                 for node in ast.walk(tree) if id(node) not in helper
                 and (isinstance(node, ast.Name) and node.id in NARROW_INTEGER_NAMES
                      or isinstance(node, ast.Attribute) and node.attr in NARROW_INTEGER_NAMES)]
        found += [f"{path.stem}:{line} {name}" for line, name in sorted(names, key=lambda n: n[0])]
    return found


def test_narrow_integer_types_only_in_the_dtype_helper():
    # an exact operator's dtype follows from its bound in one place
    assert narrow_integer_names() == []


def test_a_narrow_integer_name_is_caught(tmp_path):
    # both module names, bare imported names and uncalled ones, and the
    # helper's own name anywhere but at operator_core's top level; not the
    # helper itself, np.int64, or the words in a string or a comment
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "operator_core.py").write_text(
        "import numpy as np\n\n\n"
        "def _exact_dtype(bound):\n"
        "    for dtype in (np.int8, np.int16, np.int32):\n"
        "        if bound <= np.iinfo(dtype).max:\n"
        "            return dtype\n"
        "    return np.int64\n\n\n"
        "def f(v):\n"
        "    return v.astype(np.int16), 'np.int8'  # not np.int32\n", encoding="utf-8")
    (package / "mod.py").write_text(
        "import numpy\n"
        "from numpy import iinfo\n\n\n"
        "def _exact_dtype(bound):\n"
        "    return numpy.int32 if bound < iinfo(numpy.int32).max else numpy.int64\n", encoding="utf-8")
    assert narrow_integer_names(package) == [
        "mod:6 int32", "mod:6 iinfo", "mod:6 int32", "operator_core:12 int16"]


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
    assert unread_private(package) == ["mod._recursive", "mod._spare"]


def test_an_orphaned_private_table_is_caught(tmp_path):
    # `_USED` is read and `_A` is read through an attribute; `_WEIGHTS` is
    # only read by its own statement and only bound again in a function, and
    # `_B` and the annotated `_LIMIT` are read by no one; `__all__` is a dunder
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "mod.py").write_text(
        "_USED = 1\n"
        "_WEIGHTS = {'+': lambda q: 1, '-': lambda q: -_WEIGHTS}\n"
        "_A, _B = 1, 2\n"
        "_LIMIT: int = 3\n"
        "__all__ = []\n\n\n"
        "def f(q):\n    _WEIGHTS = q\n    return _USED\n", encoding="utf-8")
    (package / "other.py").write_text("from . import mod\n\nVALUE = mod._A\n", encoding="utf-8")
    assert unread_private(package) == ["mod._WEIGHTS", "mod._B", "mod._LIMIT"]


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


# the one module that may name an array's write flag
WRITE_FLAG_MODULE = "operator_core"


def write_flag_names(package: Path = PACKAGE) -> list[str]:
    """module:line name of every name, attribute or keyword ``writeable`` or
    ``setflags``, and every string ``writeable`` in any case, outside
    WRITE_FLAG_MODULE."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == WRITE_FLAG_MODULE:
            continue
        hits = set()
        for node in ast.walk(_tree(path)):
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None)}
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value.lower())
            hits |= {(node.lineno, name) for name in names & {"writeable", "setflags"}}
        found += [f"{path.stem}:{line} {name}" for line, name in sorted(hits)]
    return found


def test_only_operator_core_names_the_write_flag():
    # term arrays are read-only from construction on, and stay so
    assert write_flag_names() == []


def test_a_write_flag_name_is_caught(tmp_path):
    # the attribute, a setflags call, the keyword of as_strided and the
    # flag's string key, nested too; not operator_core itself, a property
    # of another spelling, or the words in a string or a comment
    package = tmp_path / "qsu2"
    package.mkdir()
    (package / "operator_core.py").write_text(
        "def freeze(t):\n    t.values.flags.writeable = False\n", encoding="utf-8")
    (package / "mod.py").write_text(
        "from numpy.lib.stride_tricks import as_strided\n\n\n"
        "def f(op, x):\n"
        "    op.terms[0].values.flags.writeable = True\n"
        "    if x.size:\n"
        "        x.setflags(write=True)\n"
        "    y = as_strided(x, writeable=True)\n"
        "    x.flags['WRITEABLE'] = True  # not writeable\n"
        "    return y, x.flags.owndata, 'not writeable'\n", encoding="utf-8")
    assert write_flag_names(package) == [
        "mod:5 writeable", "mod:7 setflags", "mod:8 writeable", "mod:9 writeable"]
