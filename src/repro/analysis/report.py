"""Machine-readable finding reports.

``bitpacker-repro lint`` and ``verify-trace`` render findings as plain
text by default; ``--format json`` emits a small stable schema for
scripting.  Trace findings use a ``trace:<name>`` pseudo-path and the
op index as the line number.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from repro.analysis.core import Finding
from repro.errors import ParameterError

#: Formats the CLI accepts for ``--format``.
FORMATS = ("text", "json")

_TOOL_NAME = "fhelint"


def findings_to_json(
    findings: Sequence[Finding],
    rule_docs: Mapping[str, str] | None = None,
) -> str:
    """The stable JSON schema: version, tool, findings, summary."""
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    doc = {
        "version": 1,
        "tool": _TOOL_NAME,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                **(
                    {"description": rule_docs[f.rule]}
                    if rule_docs and f.rule in rule_docs
                    else {}
                ),
            }
            for f in findings
        ],
        "summary": {"total": len(findings), "by_rule": by_rule},
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def render_findings(
    findings: Sequence[Finding],
    fmt: str,
    rule_docs: Mapping[str, str] | None = None,
) -> str:
    """Render ``findings`` in one of :data:`FORMATS` (text via core)."""
    if fmt == "text":
        from repro.analysis.core import render_report

        return render_report(findings)
    if fmt == "json":
        return findings_to_json(findings, rule_docs)
    raise ParameterError(
        f"unknown report format {fmt!r}; choose from {', '.join(FORMATS)}"
    )
