"""Timing-hygiene pass: intervals must not be measured with wall time.

``time.time()`` follows the system clock, which NTP slews and the
administrator can step; an interval measured with it can come out
negative or wildly wrong, and serve's retry/backoff/deadline logic
(DESIGN.md Sec. 13) silently misbehaves.  The repo's conventions:

- **intervals / deadlines** — ``time.monotonic()``;
- **profiling** — :mod:`repro.obs` spans (``perf_counter`` based);
- **wall-clock stamps** — only the profile exporter in
  :mod:`repro.obs` records absolute time (``created_unix``).

The ``timing-hygiene`` pass therefore flags every ``time.time()`` call
and every ``from time import time`` outside ``repro/obs/``.  A genuine
wall-clock stamp elsewhere must carry a
``# fhelint: ok[timing-hygiene] <reason>`` pragma.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.core import LintPass, SourceModule, register

_CALL_MSG = (
    "time.time() is wall-clock: use time.monotonic() for intervals or a "
    "repro.obs span for profiling (pragma-justify real timestamp needs)"
)
_IMPORT_MSG = (
    "`from time import time` invites wall-clock interval bugs; import "
    "the module and use time.monotonic() (or a repro.obs span)"
)


class TimingHygienePass(LintPass):
    rule = "timing-hygiene"
    description = "wall-clock time.time() used outside repro.obs"

    def check(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        # The obs package is the one sanctioned wall-clock user: profile
        # documents carry a `created_unix` stamp.
        if "obs" in Path(module.path).parts:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "time"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
            ):
                yield node, _CALL_MSG
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                if any(alias.name == "time" for alias in node.names):
                    yield node, _IMPORT_MSG


register(TimingHygienePass())
