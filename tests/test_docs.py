"""The prose documents name files that exist, and README and DESIGN.md
stay short.

A backticked span that is a file path (``*.py``, ``.json``, ``.txt``,
``.md`` or ``.yml``, optionally followed by ``::test`` or ``:line``) in
README.md, DESIGN.md or EXPERIMENTS.md must name a tracked file: as a
repo-relative path, a path relative to ``src/repro/``, or a bare
basename of some tracked file.  Commands and placeholders
(``results/<stem>.txt``) are not paths and are not checked.
"""

from __future__ import annotations

import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
README_MAX_LINES = 350
PERFORMANCE_MAX_LINES = 80
#: A ratchet: a change that shortens DESIGN.md lowers it, and none
#: raises it.
DESIGN_MAX_LINES = 1621

_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(
    r"([\w./-]+\.(?:py|json|txt|md|yml))(?:(?:::|:)[\w:\[\]-]*)?")


def _tracked_files() -> set[str]:
    """``git ls-files`` in a checkout; every file on disk otherwise."""
    try:
        out = subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {
            p.relative_to(ROOT).as_posix() for p in ROOT.rglob("*")
            if p.is_file() and ".git" not in p.parts
        }
    return set(out.split())


def _doc_paths(doc: str):
    text = (ROOT / doc).read_text(encoding="utf-8")
    for match in _SPAN.finditer(text):
        path = _PATH.fullmatch(match.group(1))
        if path:
            line = text.count("\n", 0, match.start()) + 1
            yield line, path.group(1)


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_name_tracked_files(doc):
    tracked = _tracked_files()
    basenames = {name.rsplit("/", 1)[-1] for name in tracked}
    dead = [
        f"{doc}:{line}: `{path}`"
        for line, path in _doc_paths(doc)
        if path not in tracked
        and f"src/repro/{path}" not in tracked
        and path not in basenames
    ]
    assert not dead, "paths that name no tracked file:\n" + "\n".join(dead)


def test_paths_are_found():
    """The scan sees the documents' path references at all."""
    assert sum(1 for doc in DOCS for _ in _doc_paths(doc)) >= 20


def test_readme_is_a_front_door():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= README_MAX_LINES
    start = lines.index("## Performance")
    end = next(
        (i for i in range(start + 1, len(lines))
         if lines[i].startswith("## ")),
        len(lines),
    )
    assert end - start <= PERFORMANCE_MAX_LINES


def test_design_does_not_grow():
    lines = (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= DESIGN_MAX_LINES
