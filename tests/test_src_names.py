"""Every function, class and method under ``src/`` is named somewhere the
library, the benchmarks or the examples can reach it.

The scan is textual: a definition counts as used when its name appears
as a word in any ``*.py`` file under ``src/``, ``benchmarks/`` or
``examples/``, outside the lines of its own definition (docstrings and
comments included, so it errs towards keeping).  Dunder methods are
protocol hooks and are skipped.  What only ``tests/`` names is dead
weight in ``src/`` unless :data:`ALLOWED` gives the reason it stays.
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
    "src/repro/ckks/evalmod.py:reference_eval_mod": (
        "test oracle: the plaintext sine EvalMod approximates"
    ),
    "src/repro/ckks/polyeval.py:reference_chebyshev": (
        "test oracle: the plaintext Chebyshev series the evaluator computes"
    ),
    "src/repro/nt/ntt_reference.py:schoolbook_negacyclic": (
        "test oracle: the O(n^2) negacyclic product the NTTs are checked against"
    ),
    "src/repro/analysis/sanitize.py:reset_stats": (
        "goes with the per-test reset of process-wide counters (ROADMAP 22(b))"
    ),
}

_WORD = re.compile(r"\w+")


def _definitions(path: Path, text: str):
    """``(name, first line, last line)`` of each def and class, its
    decorators included."""
    for node in ast.walk(ast.parse(text)):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        yield node.name, first, node.end_lineno


def unnamed_definitions() -> list[str]:
    """``path:name`` of every ``src/`` definition named nowhere else."""
    texts = {
        path: path.read_text(encoding="utf-8")
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    # word -> [(path, line)], read once.
    where: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, text in texts.items():
        for number, line in enumerate(text.splitlines(), 1):
            for word in set(_WORD.findall(line)):
                where[word].append((path, number))
    unnamed = []
    for path, text in texts.items():
        if path.parts[len(ROOT.parts)] != "src":
            continue
        for name, first, last in _definitions(path, text):
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
