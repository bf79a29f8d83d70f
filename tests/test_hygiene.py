"""Source hygiene checks; all but the last need nothing beyond the standard
library.

Every module under ``src/cvlab/``, ``tests/`` and ``tools/`` must use each
name it imports.  A name counts as used when the module reads it anywhere (an
annotation, a string annotation, a decorator, a default) or lists it in
``__all__``.  ``from __future__`` imports and import statements carrying a
``# noqa`` comment are exempt.

Every public top-level name in ``src/cvlab/`` (a function, a class or an
assigned name such as a constant) must be referenced from ``src/cvlab/``
outside its own definition, or be listed in
``UNREFERENCED_ALLOWED`` with the reason it stays.  A reference is a name, an
attribute, an imported name or a string that is exactly the identifier (as
``estimators._DISPATCH`` names the estimators); a symbol only tests use has to
justify staying.  So must every public method or property of a top-level
class there (dunders are exempt), referenced from outside its own definition:
another statement, another item of its class or its class header.  Every
private top-level name there (a function, a class or an assigned name, not a
dunder) must be referenced the same way, with no exceptions: a private name
nothing in ``src/cvlab/`` uses is dead code.

No module in ``src/cvlab/`` imports or reads another's private name (one
leading underscore, not a dunder): each reads the others through their
public names only.

Each public estimator's parameters after ``(dataset, trainer)`` are its
``estimators._DISPATCH`` row, in order: ``run`` and ``_run`` zip the row with
the arguments positionally.

Each input kind has one reader (``READERS``): inside ``src/cvlab/``,
``csv.reader`` is used only in ``core.read_csv_table`` and ``configparser``
only in ``cli.load_config``.

The code-line counter, ``tools/code_lines.py``, counts a small source exactly,
and the golden-file comparer, ``tools/golden_diff.py``, sorts the keys of two
small files into kept, moved, added and removed, failing on any key moved
outside its ``--moved`` globs or added or removed.
The output comparer, ``tools/same_outputs.py``, finds no difference between
this checkout and a copy of its ``src``, and exactly one in a copy with one
changed output line.

The CLI has a converter for each type its schemas use and no other: every
``cli._CONVERTERS`` kind is the type of some ``cli._SCHEMAS`` key, and every
schema type, less its ``?``, has a converter.
"""

import ast
import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cvlab"
MODULES = sorted(path for top in (SRC, ROOT / "tests", ROOT / "tools") for path in top.glob("*.py"))


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name bound -> line, for every import statement without ``# noqa``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


def _annotation_strings(tree: ast.Module):
    """Every string inside an annotation (``x: "B"``, ``-> list["B"]``)."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.value


def _all_entries(tree: ast.Module):
    """The strings a module-level ``__all__ = [...]`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            entries = getattr(node.value, "elts", [])
            yield from (e.value for e in entries if isinstance(e, ast.Constant))


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    return used | set(_all_entries(tree))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    imported = _imported_names(tree, source.splitlines())
    return sorted((line, name) for name, line in imported.items() if name not in used)


class TestUnusedImports:
    def test_every_imported_name_is_used(self):
        found = [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in MODULES
            for line, name in unused_imports(path.read_text(encoding="utf-8"))
        ]
        assert not found, "unused imports:\n" + "\n".join(found)

    @pytest.mark.parametrize(
        "source, want",
        [
            ("import os\n", [(1, "os")]),
            ("import os.path\nos.sep\n", []),
            ("from a import b as c\nb\n", [(1, "c")]),
            ("from __future__ import annotations\n", []),
            ("import os  # noqa: F401\n", []),
            ("from a import (\n    b,  # noqa\n    c,\n)\n", []),
            ("from a import b\n__all__ = ['b']\n", []),
            ("from a import B\ndef f(x: 'list[B]'): pass\n", []),
            ("from a import B\ndef f() -> list['B']: pass\n", []),
            ("from a import b\nprint('b')\n", [(1, "b")]),
            ("from a import b\ndef f():\n    from c import d\n    return b\n", [(3, "d")]),
        ],
    )
    def test_checker(self, source, want):
        assert unused_imports(source) == want


# "module.name" of each public top-level symbol (or "module.Class.name" of
# each public method) that src/cvlab never refers to, with the reason it stays.
UNREFERENCED_ALLOWED = {
    "core.write_dataset_csv": "writes the dataset CSV that read_dataset_csv reads",
}


def _references(node: ast.AST) -> set[str]:
    """Names, attributes, imported names and identifier strings under ``node``."""
    found = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            found.add(part.id)
        elif isinstance(part, ast.Attribute):
            found.add(part.attr)
        elif isinstance(part, ast.alias):
            found.update(part.name.split("."))
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            if part.value.isidentifier():
                found.add(part.value)
    return found


METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*METHODS, ast.ClassDef)


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement binds: a function or class, or assignment targets."""
    if isinstance(node, DEFINITIONS):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [part.id for t in targets for part in ast.walk(t) if isinstance(part, ast.Name)]
    return []


def _unreferenced(sources: dict[str, str], wanted) -> list[str]:
    """"module.name" of each name that a top-level statement of ``sources``
    ({module: source}) binds, ``wanted(statement, name)`` selects, and no
    other top-level statement refers to."""
    definitions, statements = [], []
    for module, source in sources.items():
        for index, node in enumerate(ast.parse(source).body):
            own = (module, index)
            definitions.extend(
                (own, module, name) for name in _bound_names(node) if wanted(node, name)
            )
            statements.append((own, _references(node)))
    return sorted(
        f"{module}.{name}" for own, module, name in definitions
        if not any(name in refs for other, refs in statements if other != own)
    )


def unreferenced_methods(sources: dict[str, str]) -> list[str]:
    """"module.Class.name" of each public method or property (not a dunder) of
    a top-level class of ``sources`` that nothing outside its own definition
    refers to: no other top-level statement, no other item of its class and no
    part of its class header."""
    definitions, units = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                units.append((None, _references(node)))
                continue
            header = [*node.bases, *node.keywords, *node.decorator_list]
            units.append((None, set().union(*map(_references, header))))
            for item in node.body:
                own = None
                if isinstance(item, METHODS) and not item.name.startswith("_"):
                    own = f"{module}.{node.name}.{item.name}"
                    definitions.append((own, item.name))
                units.append((own, _references(item)))
    return sorted({
        own for own, name in definitions
        if not any(name in refs for other, refs in units if other != own)
    })


def unreferenced_symbols(sources: dict[str, str]) -> list[str]:
    """"module.name" of each public top-level name of ``sources`` ({module:
    source}), a function, a class or an assigned name, that no top-level
    statement but its own refers to, and "module.Class.name" of each public
    method or property that nothing outside its definition refers to."""
    return sorted(_unreferenced(sources, lambda node, name: not name.startswith("_"))
                  + unreferenced_methods(sources))


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """"module.name" of each private top-level name of ``sources`` (a function,
    a class or an assigned name starting with one underscore, not a dunder)
    that no top-level statement but its own refers to."""
    return _unreferenced(
        sources, lambda node, name: name.startswith("_") and not name.endswith("__")
    )


class TestUnreferencedSymbols:
    def test_every_public_symbol_is_referenced_or_allowed(self):
        sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
        assert unreferenced_symbols(sources) == sorted(UNREFERENCED_ALLOWED)

    @pytest.mark.parametrize(
        "sources, want",
        [
            ({"a": "def f(): pass\n"}, ["a.f"]),
            ({"a": "class C: pass\n"}, ["a.C"]),
            ({"a": "def _f(): pass\n"}, []),
            ({"a": "def f():\n    return f()\n"}, ["a.f"]),
            ({"a": "def f(): pass\ndef g():\n    return f()\n"}, ["a.g"]),
            ({"a": "def f(): pass\n", "b": "from a import f\n"}, []),
            ({"a": "def f(): pass\n", "b": "import a\na.f()\n"}, []),
            ({"a": "def f(): pass\nTABLE = {'key': 'f'}\n"}, ["a.TABLE"]),
            ({"a": "def f(): pass\nDOC = 'calls f once'\n"}, ["a.DOC", "a.f"]),
            ({"a": "def _g():\n    def h(): pass\n    return h\n"}, []),
            ({"a": "X = 1\n"}, ["a.X"]),
            ({"a": "X: int = 1\n"}, ["a.X"]),
            ({"a": "A, B = 1, 2\nprint(A)\n"}, ["a.B"]),
            ({"a": "X = 1\ndef _f():\n    return X\n"}, []),
            ({"a": "X = 1\n", "b": "from a import X\n"}, []),
            ({"a": "X = 1\n", "b": "import a\na.X\n"}, []),
            ({"a": "_X = 1\n__all__ = []\n"}, []),
            ({"a": "class C:\n    def m(self): pass\n", "b": "from a import C\n"}, ["a.C.m"]),
            ({"a": "class C:\n    def m(self): pass\n", "b": "from a import C\nC().m()\n"}, []),
            ({"a": "class C:\n    def m(self):\n        return self.m()\n",
              "b": "from a import C\n"}, ["a.C.m"]),
            ({"a": "class C:\n    def m(self): pass\n    def n(self):\n        self.m()\n",
              "b": "from a import C\nC().n()\n"}, []),
            ({"a": "class C:\n    def m(self): pass\n",
              "b": "from a import C\ngetattr(C(), 'm')\n"}, []),
            ({"a": "class C:\n    @property\n    def p(self):\n        return 1\n",
              "b": "from a import C\n"}, ["a.C.p"]),
            ({"a": "class C:\n    @property\n    def p(self):\n        return 1\n",
              "b": "from a import C\nC().p\n"}, []),
            ({"a": "class C:\n    def __init__(self): pass\n", "b": "from a import C\n"}, []),
            ({"a": "class C:\n    def _m(self): pass\n", "b": "from a import C\n"}, []),
        ],
    )
    def test_checker(self, sources, want):
        assert unreferenced_symbols(sources) == want


class TestUnreferencedPrivateNames:
    def test_every_private_name_is_referenced(self):
        sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
        assert unreferenced_private_names(sources) == []

    @pytest.mark.parametrize(
        "sources, want",
        [
            ({"a": "def _f(): pass\n"}, ["a._f"]),
            ({"a": "class _C: pass\n"}, ["a._C"]),
            ({"a": "_X = 1\n"}, ["a._X"]),
            ({"a": "_X: int = 1\n"}, ["a._X"]),
            ({"a": "_A, _B = 1, 2\nprint(_A)\n"}, ["a._B"]),
            ({"a": "def _f():\n    return _f()\n"}, ["a._f"]),
            ({"a": "_X = 1\ndef f():\n    return _X\n"}, []),
            ({"a": "_X = {}\n", "b": "import a\na._X\n"}, []),
            ({"a": "def _f(): pass\nTABLE = {'key': '_f'}\n"}, []),
            ({"a": "def f(): pass\nX = 1\n__version__ = '1'\n"}, []),
            ({"a": "def f():\n    def _h(): pass\n    return _h\n"}, []),
        ],
    )
    def test_checker(self, sources, want):
        assert unreferenced_private_names(sources) == want


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(sources: dict[str, str]) -> list[str]:
    """"module: other.name" of each private name that a module of ``sources``
    ({module: source}, the modules of the ``cvlab`` package) imports from
    another, or reads as an attribute of another it imported."""
    package = "cvlab"
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        bound = {}  # name bound to a sibling module -> that module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                parent = package if node.level else ""
                where = ".".join(filter(None, [parent, node.module]))
                for alias in node.names:
                    if where == package:
                        bound[alias.asname or alias.name] = alias.name
                    elif where.startswith(f"{package}.") and _private(alias.name):
                        found.add(f"{module}: {where.split('.', 1)[1]}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(f"{package}.") and alias.asname:
                        bound[alias.asname] = alias.name.split(".", 1)[1]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and _private(node.attr)):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in bound:
                found.add(f"{module}: {bound[owner.id]}.{node.attr}")
            elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                  and owner.value.id == package):
                found.add(f"{module}: {owner.attr}.{node.attr}")
    return sorted(found)


class TestNoPrivateReads:
    def test_no_module_reads_another_modules_private_name(self):
        sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
        assert private_reads(sources) == []

    @pytest.mark.parametrize(
        "source, want",
        [
            ("from cvlab.a import _x\n", ["b: a._x"]),
            ("from cvlab.a import x, __version__\n", []),
            ("from .a import _x\n", ["b: a._x"]),
            ("from cvlab import a\na._x\n", ["b: a._x"]),
            ("from cvlab import a as c\nc._x()\n", ["b: a._x"]),
            ("from . import a\na._X[0]\n", ["b: a._X"]),
            ("import cvlab.a as c\nc._x\n", ["b: a._x"]),
            ("import cvlab.a\ncvlab.a._x\n", ["b: a._x"]),
            ("from cvlab import a\na.x\nself._x\n", []),
            ("from other import _x\nimport numpy as np\nnp._x\n", []),
            ("from cvlab import a\ndef f():\n    return a._x\n", ["b: a._x"]),
        ],
    )
    def test_checker(self, source, want):
        assert private_reads({"a": "_x = 1\n", "b": source}) == want


def signature_mismatches(source: str) -> list[str]:
    """Each estimator a module's ``_DISPATCH`` rows name ({key: (name,
    fields)}) that is not a top-level function of the module whose
    parameters after the first two are the row's fields, in order."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_DISPATCH" for t in node.targets))
    found = []
    for row in table.values:
        name, fields = ast.literal_eval(row)
        if name not in functions:
            found.append(f"{name}: no such function")
            continue
        args = functions[name].args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if params[2:] != list(fields):
            found.append(f"{name}: takes {params[2:]}, row {list(fields)}")
    return found


class TestSignaturesAreRows:
    def test_each_estimator_takes_its_row(self):
        source = (SRC / "estimators.py").read_text(encoding="utf-8")
        assert signature_mismatches(source) == []

    @pytest.mark.parametrize(
        "source, want",
        [
            ("def f(d, t, a, b=1): pass\n_DISPATCH = {1: ('f', ('a', 'b'))}\n", []),
            ("def f(d, t): pass\n_DISPATCH = {1: ('f', ())}\n", []),
            ("def f(d, t, b, a): pass\n_DISPATCH = {1: ('f', ('a', 'b'))}\n",
             ["f: takes ['b', 'a'], row ['a', 'b']"]),
            ("def f(d, t, a): pass\n_DISPATCH = {1: ('f', ('a', 'b'))}\n",
             ["f: takes ['a'], row ['a', 'b']"]),
            ("def f(d, t, a, *, b): pass\n_DISPATCH = {1: ('f', ('a',))}\n",
             ["f: takes ['a', 'b'], row ['a']"]),
            ("_DISPATCH = {1: ('g', ('a',))}\n", ["g: no such function"]),
        ],
    )
    def test_checker(self, source, want):
        assert signature_mismatches(source) == want


# Each input kind has one reader: where in src/cvlab its parser may be used.
READERS = {"csv.reader": "core.read_csv_table", "configparser": "cli.load_config"}


def _reader_names(node: ast.AST) -> set[str]:
    """The readers of ``READERS`` that ``node`` uses: an attribute ``csv.reader``
    or ``from csv import reader``, and any ``configparser`` name or
    ``from configparser import``; a plain ``import`` uses neither."""
    found = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Attribute) and isinstance(part.value, ast.Name):
            if f"{part.value.id}.{part.attr}" == "csv.reader":
                found.add("csv.reader")
        elif isinstance(part, ast.Name) and part.id == "configparser":
            found.add("configparser")
        elif isinstance(part, ast.ImportFrom) and part.module == "configparser":
            found.add("configparser")
        elif isinstance(part, ast.ImportFrom) and part.module == "csv":
            found.update("csv.reader" for alias in part.names if alias.name == "reader")
    return found


def reader_uses(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(reader, place) of each reader ``sources`` ({module: source}) use,
    the place being "module.name" of the top-level function or class that
    uses it, or "module" for a use outside them."""
    uses = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            place = f"{module}.{node.name}" if isinstance(node, DEFINITIONS) else module
            uses.update((reader, place) for reader in _reader_names(node))
    return sorted(uses)


class TestOneReaderPerInput:
    def test_each_reader_is_used_in_its_one_place(self):
        sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
        assert reader_uses(sources) == sorted(READERS.items())

    @pytest.mark.parametrize(
        "sources, want",
        [
            ({"a": "import csv\ndef f(fh):\n    return csv.reader(fh)\n"}, [("csv.reader", "a.f")]),
            ({"a": "import csv\nR = csv.reader\n"}, [("csv.reader", "a")]),
            ({"a": "from csv import reader\n"}, [("csv.reader", "a")]),
            ({"a": "import csv\ndef f(fh):\n    return csv.writer(fh)\n"}, []),
            ({"a": "import csv\nclass C:\n    def m(self, fh):\n        csv.reader(fh)\n"},
             [("csv.reader", "a.C")]),
            ({"a": "import configparser\n"}, []),
            ({"a": "import configparser\ndef f():\n    return configparser.ConfigParser()\n"},
             [("configparser", "a.f")]),
            ({"a": "from configparser import ConfigParser\n"}, [("configparser", "a")]),
            ({"a": "import configparser\ndef f():\n    def g():\n        configparser.Error\n"},
             [("configparser", "a.f")]),
            ({"a": "import csv\ndef f(fh):\n    csv.reader(fh)\n",
              "b": "import csv\ndef g(fh):\n    csv.reader(fh)\n"},
             [("csv.reader", "a.f"), ("csv.reader", "b.g")]),
        ],
    )
    def test_checker(self, sources, want):
        assert reader_uses(sources) == want


COUNTED = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """One-line docstring."""
    y = (x +
         1)
    return """a string,
not a docstring"""


class C:
    """Class
    docstring."""

    z = 1
'''


class TestCodeLineCounter:
    def test_counts_code_lines_only(self, tmp_path, capsys):
        path = ROOT / "tools" / "code_lines.py"
        spec = importlib.util.spec_from_file_location("code_lines", path)
        code_lines = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(code_lines)
        # import, def, the two lines of y, the two of the return, class, z
        assert code_lines.count_code_lines(COUNTED) == 8
        (tmp_path / "a.py").write_text(COUNTED, encoding="utf-8")
        (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
        assert code_lines.main([str(tmp_path)]) == 0
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["8", "1", "9"]


class TestGoldenDiff:
    def test_kept_moved_added_and_removed_keys(self, tmp_path, capsys):
        path = ROOT / "tools" / "golden_diff.py"
        spec = importlib.util.spec_from_file_location("golden_diff", path)
        golden_diff = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden_diff)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text('{"a/x": ["1|0", "!E"], "a/y": ["2|0"], "b/y": ["3|0"]}', encoding="utf-8")
        # a/x kept; a/y and b/y moved (a reordered list moves)
        new.write_text('{"a/x": ["1|0", "!E"], "a/y": ["2|1", "4|0"], "b/y": ["3|0", "3|0"]}',
                       encoding="utf-8")
        assert golden_diff.main([str(old), str(new), "--moved", "*/y"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "kept    a/x  2 -> 2",
            "moved   a/y  1 -> 2",
            "moved   b/y  1 -> 2",
            "3 keys, 4 -> 6 entries: 1 kept (2 -> 2 entries); 2 moved (2 -> 4 entries); "
            "0 added (0 -> 0 entries); 0 removed (0 -> 0 entries)",
        ]
        assert golden_diff.main([str(old), str(new), "--moved", "a/*"]) == 1
        assert "moved   b/y  1 -> 2  (not under --moved)" in capsys.readouterr().out
        new.write_text('{"a/x": ["!E", "1|0"], "c/z": []}', encoding="utf-8")
        assert golden_diff.main([str(old), str(new), "--moved", "*"]) == 1
        assert capsys.readouterr().out.splitlines()[:4] == [
            "moved   a/x  2 -> 2", "removed a/y  1 -> 0", "removed b/y  1 -> 0", "added   c/z  0 -> 0",
        ]


class TestSameOutputs:
    def test_a_copy_matches_and_one_changed_line_is_one_difference(self, tmp_path):
        path = ROOT / "tools" / "same_outputs.py"
        spec = importlib.util.spec_from_file_location("same_outputs", path)
        same_outputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(same_outputs)
        copy = tmp_path / "copy"
        shutil.copytree(SRC, copy / "src" / "cvlab", ignore=shutil.ignore_patterns("__pycache__"))
        head = same_outputs.run_cases(ROOT, ["decompose"])
        assert sorted(head["decompose"]) == [
            "exit code", "file out.csv", "file out.json", "stderr", "stdout"
        ]
        assert same_outputs.differences(head, same_outputs.run_cases(copy, ["decompose"])) == []
        cli = copy / "src" / "cvlab" / "cli.py"
        cli.write_text(cli.read_text(encoding="utf-8").replace('f"rms_cond={', 'f"rms-cond={'),
                       encoding="utf-8")
        found = same_outputs.differences(head, same_outputs.run_cases(copy, ["decompose"]))
        assert len(found) == 1
        header, *diff = found[0].splitlines()
        assert header == "decompose: stdout differs"
        assert [line[:10] for line in diff[1:]] == ["-rms_cond=", "+rms-cond="]


def converter_mismatches(converters, schemas) -> list[str]:
    """Each converter kind no schema key has, and each schema type (less its
    "?") with no converter; ``schemas`` is {subcommand: {section: {key: type}}}."""
    types = {kind.rstrip("?") for sections in schemas.values()
             for keys in sections.values() for kind in keys.values()}
    return sorted([f"unused converter '{kind}'" for kind in set(converters) - types]
                  + [f"no converter for '{kind}'" for kind in types - set(converters)])


class TestConvertersMatchSchemas:
    def test_every_converter_serves_a_key_and_every_key_has_one(self):
        from cvlab import cli

        assert converter_mismatches(cli._CONVERTERS, cli._SCHEMAS) == []

    @pytest.mark.parametrize(
        "converters, schemas, want",
        [
            ({"int": int}, {"run": {"s": {"n": "int"}}}, []),
            ({"int": int}, {"run": {"s?": {"n": "int?"}}}, []),
            ({"int": int, "bool": bool}, {"run": {"s": {"n": "int"}}}, ["unused converter 'bool'"]),
            ({}, {"run": {"s": {"n": "int?"}}}, ["no converter for 'int'"]),
            ({"int": int}, {"a": {"s": {"n": "int"}}, "b": {"t": {"x": "float"}}},
             ["no converter for 'float'"]),
            ({"int": int, "str": str}, {"a": {"s": {"n": "int"}}, "b": {"t": {"x": "str"}}}, []),
        ],
    )
    def test_checker(self, converters, schemas, want):
        assert converter_mismatches(converters, schemas) == want
