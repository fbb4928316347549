"""Every function, class and method under ``src/`` is named somewhere the
library, the benchmarks or the examples can reach it.

The scan reads syntax, not text: a definition counts as used when some
``*.py`` file under ``src/``, ``benchmarks/`` or ``examples/`` names it
outside the lines of its own definition, through a ``Name``, an
``Attribute``, an import (either side of an alias, or any part of a
dotted module path) or an identifier-shaped string constant: an
``__all__`` entry, a lazy ``__getattr__`` table or ``getattr`` name, or
a ``module:function,function`` entry of the CLI's experiment table
(identifiers joined by ``.``, ``:`` or ``,``).  Docstrings and comments
do not count.  Dunder methods are protocol hooks and are skipped.  What
only ``tests/`` names is dead weight in ``src/`` unless :data:`ALLOWED`
gives the reason it stays.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")

#: ``path:name`` -> why the symbol stays although nothing above names it.
ALLOWED = {
    "src/repro/analysis/absint.py:check_observations": (
        "the runtime-versus-abstract cross-check that recorded programs "
        "(ROADMAP 2(c)) and the corrected noise model (23(c)) build on"
    ),
    "src/repro/ckks/encryptor.py:encrypt_symmetric": (
        "the scheme's secret-key encryption; the decrypt tests encrypt "
        "every level of the ladder's chains with it"
    ),
    "src/repro/analysis/sanitize.py:reset_stats": (
        "goes with the per-test reset of process-wide counters (ROADMAP 22(b))"
    ),
}

_IDENTIFIERS = re.compile(r"[A-Za-z_]\w*(?:[.:,][A-Za-z_]\w*)*")


def _definitions(tree: ast.AST):
    """``(name, first line, last line)`` of each def and class, its
    decorators included."""
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        yield node.name, first, node.end_lineno


def _uses(tree: ast.AST):
    """``(name, line)`` of every reference to a name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for name in (alias.name, alias.asname):
                    for part in (name or "").split("."):
                        yield part, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENTIFIERS.fullmatch(node.value)
        ):
            for part in re.split(r"[.:,]", node.value):
                yield part, node.lineno


def unnamed_definitions() -> list[str]:
    """``path:name`` of every ``src/`` definition named nowhere else."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    # name -> [(path, line)], read once.
    where: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in trees.items():
        for name, line in _uses(tree):
            where[name].append((path, line))
    unnamed = []
    for path, tree in trees.items():
        if path.parts[len(ROOT.parts)] != "src":
            continue
        for name, first, last in _definitions(tree):
            if not any(
                other != path or not first <= line <= last
                for other, line in where[name]
            ):
                unnamed.append(f"{path.relative_to(ROOT).as_posix()}:{name}")
    return unnamed


def test_src_holds_only_what_something_names():
    unnamed = set(unnamed_definitions())
    stray = sorted(unnamed - ALLOWED.keys())
    assert not stray, (
        "defined under src/ but named nowhere in src/, benchmarks/ or "
        "examples/ (delete, or add to ALLOWED with a reason):\n"
        + "\n".join(stray)
    )
    # An entry whose symbol is gone, or is named again, leaves the list.
    assert not ALLOWED.keys() - unnamed
