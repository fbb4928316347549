"""Async-task-leak pass: fire-and-forget tasks vanish mid-flight.

The serve layer (:mod:`repro.serve`) runs everything on one asyncio
event loop, and the loop only keeps a *weak* reference to the tasks it
runs.  ``asyncio.create_task(coro())`` as a bare statement therefore
has two failure modes that never show up in a quick test:

- **Garbage collection mid-flight.**  With no strong reference, the
  task object is collectable as soon as the creating frame returns;
  CPython may drop it before the coroutine finishes, silently
  cancelling in-flight work (queue drains, settlement, drain timers).
- **Swallowed exceptions.**  A task nobody awaits or stores reports
  its exception only via the loop's exception handler at GC time —
  long after the request that caused it has been answered (or worse,
  never answered: a dropped response the books cannot explain).

The ``async-task-leak`` pass flags every ``create_task``/
``ensure_future`` call whose result is discarded — an expression
statement — anywhere in a module.  Storing the task (assignment,
``.append(...)`` onto a task list, passing it to ``gather``/``wait``,
awaiting it) is the fix; a genuinely detached task should say why with
``# fhelint: ok[async-task-leak] <reason>`` and add a done-callback.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.core import SourceModule

#: Call names that spawn an event-loop task whose handle must be kept.
_SPAWNERS = frozenset({"create_task", "ensure_future"})


def _callee_tail(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class AsyncTaskLeakPass:
    rule = "async-task-leak"
    description = "create_task/ensure_future results that are discarded"

    def check(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Expr):
                continue
            value = node.value
            # `await create_task(...)` keeps a reference for the full
            # lifetime and surfaces the exception — that is the safe
            # spelling, not a leak.
            if isinstance(value, ast.Await):
                continue
            name = self._spawner_name(value)
            if name is None:
                continue
            yield value, (
                f"{name}(...) result is discarded: the event loop keeps "
                "only a weak reference, so the task can be "
                "garbage-collected mid-flight and its exception is "
                "swallowed; store the task (or await it), or justify "
                "with a pragma and add a done-callback"
            )

    @staticmethod
    def _spawner_name(value: ast.AST) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        name = _callee_tail(value.func)
        if name in _SPAWNERS:
            return name
        return None
