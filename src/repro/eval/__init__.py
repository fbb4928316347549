"""Experiment harnesses: one module per paper figure/table.

Every harness returns plain data (lists of row dataclasses/dicts) and has
a ``render`` helper that prints the paper-style table, so benchmarks,
tests, and examples can share them.  ``repro.eval.common`` holds the
memoized trace/chain/simulation plumbing all harnesses use.
"""

from repro.eval import common

__all__ = ["common"]
