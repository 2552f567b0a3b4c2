"""Every function, class and method of ``src/repro`` is used somewhere.

The test parses each module with :mod:`ast` and looks for every defined
name as a word in the rest of the code base: ``src/``, ``tests/``,
``perfbench/``, ``benchmarks/`` and ``examples/``.  A name found nowhere
but in its own definitions is dead code.  Listing a name in a package
``__init__.py`` (its imports and ``__all__``) re-exports it; that is not
a use.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "perfbench", "benchmarks", "examples")

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Names reached by a computed attribute name instead of a literal one:
#: ``ProgramGenerator`` draws one of its ``_shape_*`` methods with
#: ``getattr(self, "_shape_" + shape)``.
DYNAMIC_PREFIXES = ("_shape_",)


def _definitions(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _searched_text(path: Path) -> str:
    """The text of *path* whose words count as uses."""
    text = path.read_text(encoding="utf-8")
    if path.name != "__init__.py" or SOURCE not in path.parents:
        return text
    tree = ast.parse(text)
    lines = text.splitlines()
    kept = []
    for node in tree.body:
        if not _is_reexport(node):
            kept.extend(lines[node.lineno - 1 : node.end_lineno])
    return "\n".join(kept)


def dead_definitions() -> List[str]:
    """``module:line name`` of every definition whose name has no use."""
    words: Counter = Counter()
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            words.update(WORD.findall(_searched_text(path)))
    defined: Counter = Counter()
    sites = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _definitions(tree):
            defined[name] += 1
            sites.append((path.relative_to(ROOT), line, name))
    return [
        "%s:%d %s" % (path, line, name)
        for path, line, name in sites
        if words[name] <= defined[name]
        and not (name.startswith("__") and name.endswith("__"))
        and not name.startswith(DYNAMIC_PREFIXES)
    ]


def test_every_definition_is_used():
    assert dead_definitions() == []
