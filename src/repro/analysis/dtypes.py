"""Dtype-routing pass: the residue kernels are integer-only.

Every residue matrix is uint64, and the kernels that compute on it —
``nt/modmath.py``, ``nt/ntt.py``, ``backends/`` — work in wrapping
uint64 (or uint32) ufuncs, so their results cannot depend on the
platform's floating-point widths.  This pass flags any float dtype
(``np.longdouble``, ``np.float64``, ``float`` ...) in those modules.
The exact float64 arithmetic of the four-step NTT is admitted site by
site, each pragma stating the bound that keeps its integers below 2^53.
(``rns/convert.py`` is outside the set on purpose: its float64
``alpha`` estimate counts CRT overflows, it never holds a residue.)
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.core import SourceModule

_FLOAT_MSG = (
    "float dtype in a residue kernel; the uint64 paths are integer-only "
    "(mulhi64 / mod_mul_shoup) so results cannot depend on the platform's "
    "floating-point widths"
)
_FLOAT_DTYPES = frozenset(
    {"longdouble", "clongdouble", "float128", "float64", "float32", "double"}
)


def _is_residue_kernel(module: SourceModule) -> bool:
    path = module.path.replace("\\", "/")
    return path.endswith(("nt/modmath.py", "nt/ntt.py")) or "/backends/" in path


class DtypeRoutingPass:
    rule = "dtype-routing"
    description = "float dtypes in the integer-only residue kernels"

    def check(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        if not _is_residue_kernel(module):
            return
        for node in ast.walk(module.tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == "float" or name in _FLOAT_DTYPES:
                yield node, _FLOAT_MSG
