"""fhelint core: findings, pragmas, the pass list, and the driver.

``fhelint`` is a small AST-based lint engine specialized to the hazards
of this codebase: the narrow/wide modular-arithmetic split of
:mod:`repro.nt.modmath` makes silent uint64 overflow, unreduced
residues, and floats in integer-only kernels the dominant failure
modes, and generic linters cannot see any of them.  Each pass in :data:`PASSES`
has a ``rule`` id, a one-line ``description``, and a ``check(module)``
yielding ``(node, message)`` pairs for one parsed module; the driver
turns them into :class:`Finding` objects and applies pragma
suppression.

Intentional violations are suppressed with pragmas, which double as
in-source proofs of why the flagged line is safe::

    r = a * b % q  # fhelint: ok[overflow-hazard] both operands < 2^31

- ``# fhelint: ok[rule-id] <reason>`` suppresses one rule on that line
  (or anywhere inside a multi-line expression starting there).
- ``# fhelint: ok`` suppresses every rule on that line.
- A standalone ``# fhelint: disable[rule-id]`` line disables the rule
  for the whole file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.async_tasks import AsyncTaskLeakPass
from repro.analysis.dtypes import DtypeRoutingPass
from repro.analysis.exception_hygiene import ExceptionHygienePass
from repro.analysis.overflow import OverflowHazardPass
from repro.errors import ParameterError

#: Every fhelint pass, in the order ``lint --list-rules`` prints them.
PASSES = (
    OverflowHazardPass(),
    DtypeRoutingPass(),
    ExceptionHygienePass(),
    AsyncTaskLeakPass(),
)

_PRAGMA_RE = re.compile(r"#\s*fhelint:\s*(ok|disable)(?:\[([a-z0-9-]+)\])?")

#: Matches every rule id in a pragma without a bracketed rule.
ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class SourceModule:
    """A parsed Python file plus its pragma suppression tables."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)
        # Statement spans, for pragma lookup: a finding's node may be a
        # sub-expression spanning fewer lines than the statement it sits
        # in, but the pragma can legitimately sit on any continuation
        # line of that statement.
        self._stmt_spans: list[tuple[int, int]] = [
            (node.lineno, node.end_lineno or node.lineno)
            for node in ast.walk(self.tree)
            if isinstance(node, ast.stmt)
        ]
        self.line_ok: dict[int, set[str]] = {}
        self.file_disabled: set[str] = set()
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _PRAGMA_RE.search(line)
            if not match:
                continue
            kind, rule = match.group(1), match.group(2) or ALL_RULES
            if kind == "ok":
                self.line_ok.setdefault(lineno, set()).add(rule)
            else:
                self.file_disabled.add(rule)

    @classmethod
    def from_path(cls, path: Path) -> "SourceModule":
        return cls(str(path), path.read_text())

    def suppressed(self, rule: str, node: ast.AST) -> bool:
        """Whether ``rule`` is pragma-suppressed for ``node``.

        A pragma anywhere inside the *innermost statement* containing
        the node counts: findings often point at a sub-expression, while
        the ``# fhelint: ok[...]`` comment may sit on any continuation
        line of the multi-line statement around it.
        """
        if rule in self.file_disabled or ALL_RULES in self.file_disabled:
            return True
        if not self.line_ok:
            return False
        start = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", None) or start
        start, end = self._enclosing_statement_span(start, end)
        for line in range(start, end + 1):
            rules = self.line_ok.get(line)
            if rules and (rule in rules or ALL_RULES in rules):
                return True
        return False

    def _enclosing_statement_span(
        self, start: int, end: int
    ) -> tuple[int, int]:
        """The innermost statement span containing ``[start, end]``."""
        best = (start, end)
        best_size = None
        for s_start, s_end in self._stmt_spans:
            if s_start <= start and end <= s_end:
                size = s_end - s_start
                if best_size is None or size < best_size:
                    best, best_size = (s_start, s_end), size
        return best


def passes_for(rules: Sequence[str] | None) -> tuple:
    """The passes for ``rules`` (every pass when ``None``)."""
    if rules is None:
        return PASSES
    by_rule = {p.rule: p for p in PASSES}
    missing = [r for r in rules if r not in by_rule]
    if missing:
        known = ", ".join(sorted(by_rule))
        raise ParameterError(f"unknown lint rules {missing}; known: {known}")
    return tuple(by_rule[r] for r in rules)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through directly)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise ParameterError(f"not a Python file or directory: {path}")


def lint_source(module: SourceModule, passes: Sequence) -> list[Finding]:
    """Run ``passes`` over one parsed module, honoring pragmas."""
    findings = []
    for lint_pass in passes:
        for node, message in lint_pass.check(module):
            if module.suppressed(lint_pass.rule, node):
                continue
            findings.append(
                Finding(
                    rule=lint_pass.rule,
                    path=module.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    message=message,
                )
            )
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def run_lint(
    paths: Iterable[str | Path], rules: Sequence[str] | None = None
) -> list[Finding]:
    """Lint every Python file under ``paths`` with the selected passes.

    Returns the findings sorted by location.  Suppression pragmas are
    honored; a file that fails to parse produces a single ``parse-error``
    finding rather than aborting the run.
    """
    passes = passes_for(rules)
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            module = SourceModule.from_path(path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="parse-error",
                    path=str(path),
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    message=f"could not parse: {exc.msg}",
                )
            )
            continue
        findings.extend(lint_source(module, passes))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_report(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.render() for f in findings]
    lines.append(
        f"fhelint: {len(findings)} finding(s)" if findings else "fhelint: clean"
    )
    return "\n".join(lines)
