"""Every function, class and method of ``src/repro`` is used somewhere.

The test parses every module of ``src/``, ``tests/``, ``perfbench/``,
``benchmarks/`` and ``examples/`` with :mod:`ast` and reads its uses off
the code, not off its words:

* a method counts as used where its name is the name of an attribute
  (``obj.name``) or appears in a string literal that is not a docstring
  (``getattr(obj, "name")``);
* a function or class counts as used where its name is an identifier
  (a name or an attribute), is imported, or appears in such a string.

Comments and docstrings are not code, so a name mentioned only there is
dead.  Listing a name in a package ``__init__.py`` (its imports and
``__all__``) re-exports it; that is not a use.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench", "benchmarks", "examples")

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Names reached by a computed attribute name instead of a literal one:
#: ``ProgramGenerator`` draws one of its ``_shape_*`` methods with
#: ``getattr(self, "_shape_" + shape)``.
DYNAMIC_PREFIXES = ("_shape_",)

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.AST) -> Iterator[Tuple[str, int, bool]]:
    """``(name, line, is_method)`` of every function, class and method."""
    methods = {
        id(child)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for child in node.body
        if isinstance(child, _FUNCTIONS)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef,) + _FUNCTIONS):
            yield node.name, node.lineno, id(node) in methods


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _docstrings(tree: ast.AST) -> Set[int]:
    """The ids of the docstring constants of every scope of *tree*."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _parsed(path: Path, source: Path) -> ast.Module:
    """The module at *path*, without its re-exports when it is a package
    ``__init__.py`` under *source*."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "__init__.py" and source in path.parents:
        tree.body = [node for node in tree.body if not _is_reexport(node)]
    return tree


def uses(root: Path) -> Tuple[Counter, Counter]:
    """Attribute names and string-literal words (the uses of a method),
    and every identifier, imported name and string-literal word (the uses
    of a function or class), over the searched code under *root*."""
    attributes: Counter = Counter()
    identifiers: Counter = Counter()
    for directory in SEARCHED:
        for path in sorted((root / directory).rglob("*.py")):
            tree = _parsed(path, root / "src" / "repro")
            docstrings = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    attributes[node.attr] += 1
                    identifiers[node.attr] += 1
                elif isinstance(node, ast.Name):
                    identifiers[node.id] += 1
                elif isinstance(node, ast.alias):
                    identifiers.update(node.name.split("."))
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                ):
                    words = WORD.findall(node.value)
                    attributes.update(words)
                    identifiers.update(words)
    return attributes, identifiers


def dead_definitions(root: Path = ROOT) -> List[str]:
    """``module:line name`` of every definition of ``src/repro`` under
    *root* whose name has no use."""
    attributes, identifiers = uses(root)
    dead = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line, is_method in sorted(_definitions(tree), key=lambda d: d[1]):
            if (name.startswith("__") and name.endswith("__")) or name.startswith(
                DYNAMIC_PREFIXES
            ):
                continue
            if not (attributes if is_method else identifiers)[name]:
                dead.append("%s:%d %s" % (path.relative_to(root), line, name))
    return dead


def test_every_definition_is_used():
    assert dead_definitions() == []


def test_comments_and_docstrings_are_not_uses(tmp_path):
    """A method named only in a comment, a docstring or as a bare name is
    dead; one named as an attribute or in a string is used."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "module.py").write_text(
        "class ToyShape:\n"
        "    def toy_area(self):\n"
        "        pass\n\n"
        "    def toy_corners(self):\n"
        "        pass\n\n"
        "    def toy_sides(self):\n"
        "        pass\n\n"
        "    def toy_edges(self):\n"
        "        pass\n\n\n"
        "def toy_helper():\n"
        '    """Calls toy_edges() and toy_unused()."""\n'
        "    return ToyShape().toy_area(), getattr(ToyShape(), 'toy_corners')\n\n\n"
        "def toy_unused():\n"
        "    toy_sides = 1  # toy_edges\n"
        "    return toy_sides\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_module.py").write_text(
        "from repro.module import toy_helper\n"
    )
    assert [site.split()[1] for site in dead_definitions(tmp_path)] == [
        "toy_sides",
        "toy_edges",
        "toy_unused",
    ]
