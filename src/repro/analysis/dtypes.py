"""Dtype-routing pass: the residue kernels are integer-only, and no
module uses an extended-precision float.

Every residue matrix is uint64, and the kernels that compute on it —
``nt/modmath.py``, ``nt/ntt.py``, ``backends/`` — work in wrapping
uint64 (or uint32) ufuncs, so their results cannot depend on the
platform's floating-point widths.  This pass flags any float dtype
(``np.float64``, ``float`` ...) in those modules.
The exact float64 arithmetic of the four-step NTT is admitted site by
site, each pragma stating the bound that keeps its integers below 2^53.
(``rns/convert.py`` is outside the set on purpose: its float64
``alpha`` estimate counts CRT overflows, it never holds a residue.)

Everywhere else float64/complex128 is the one float width.  The
extended-precision dtypes are 80-bit on x86 and plain float64 on other
platforms, so a result computed in them would not reproduce across
machines; the pass flags them in every module.
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
_EXTENDED_MSG = (
    "extended-precision float dtype; its width depends on the platform "
    "(80-bit on x86, float64 elsewhere), so results would not reproduce: "
    "use float64/complex128"
)
_EXTENDED_DTYPES = frozenset({"longdouble", "clongdouble", "float128", "complex256"})
_FLOAT_DTYPES = _EXTENDED_DTYPES | {"float64", "float32", "double"}


def _is_residue_kernel(module: SourceModule) -> bool:
    path = module.path.replace("\\", "/")
    return path.endswith(("nt/modmath.py", "nt/ntt.py")) or "/backends/" in path


class DtypeRoutingPass:
    rule = "dtype-routing"
    description = (
        "float dtypes in the integer-only residue kernels; "
        "extended-precision dtypes anywhere"
    )

    def check(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        residue_kernel = _is_residue_kernel(module)
        for node in ast.walk(module.tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if residue_kernel and (name == "float" or name in _FLOAT_DTYPES):
                yield node, _FLOAT_MSG
            elif name in _EXTENDED_DTYPES:
                yield node, _EXTENDED_MSG
