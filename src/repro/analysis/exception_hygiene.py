"""Exception-hygiene pass: raise the library's own errors.

The library promises that every failure it raises derives from
:class:`repro.errors.ReproError`, so callers can catch library errors
without masking programming bugs.  ``assert`` statements break that
contract twice over: they raise the wrong type *and* vanish entirely
under ``python -O``.  Bare built-in exceptions break it once.  The
``exception-hygiene`` pass flags both in library code:

- ``assert`` statements (use an explicit check raising a
  ``repro.errors`` subclass);
- ``raise`` of a built-in exception type (``ValueError``,
  ``RuntimeError``, ``TypeError``, ...).

``NotImplementedError`` (abstract-method protocol) and bare ``raise``
re-raises are allowed, as is *catching* built-ins around third-party
calls.  (A bare ``except:`` on the catching side is ruff's E722.)
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.core import SourceModule

_BUILTIN_EXCEPTIONS = frozenset(
    {
        "ArithmeticError",
        "AssertionError",
        "BaseException",
        "Exception",
        "IndexError",
        "KeyError",
        "LookupError",
        "OverflowError",
        "RuntimeError",
        "StopIteration",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)

_ASSERT_MSG = (
    "`assert` in library code raises AssertionError and disappears under "
    "-O; raise a repro.errors subclass explicitly"
)
_RAISE_MSG = (
    "raising built-in {name} from library code; use the repro.errors "
    "hierarchy (e.g. ParameterError) so callers can catch ReproError"
)


class ExceptionHygienePass:
    rule = "exception-hygiene"
    description = "asserts or bare built-in exceptions in library code"

    def check(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield node, _ASSERT_MSG
            elif isinstance(node, ast.Raise) and node.exc is not None:
                name = self._raised_name(node.exc)
                if name in _BUILTIN_EXCEPTIONS:
                    yield node, _RAISE_MSG.format(name=name)

    def _raised_name(self, exc: ast.AST) -> str | None:
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            return exc.id
        return None

