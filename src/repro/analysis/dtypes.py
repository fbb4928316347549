"""Dtype-routing pass: residue storage must go through ``modmath``.

A residue array's dtype is a function of its modulus:
``dtype_for_modulus`` returns uint64 below ``BIG_MODULUS_THRESHOLD`` and
``object`` (exact Python ints) above it.  Constructing residue storage
by hand bypasses that routing, and the two stacks must never mix: an
object row silently upcasts a whole uint64 matrix on ``np.stack``, and
``.astype(np.uint64)`` on an object row silently truncates big residues
to their low 64 bits.  This pass flags:

- ``dtype=object`` array construction outside :mod:`repro.nt.modmath`
  (route through ``modmath.zeros`` / ``as_mod_array``);
- hand-rolled backend dispatch — comparisons against a literal ``2^61``
  (or a re-imported ``BIG_MODULUS_THRESHOLD``) used to pick dtypes,
  instead of ``dtype_for_modulus`` / ``backend_kind``;
- ``.astype(np.uint64)`` applied to an object-dtype value (silent
  truncation of big-int residues);
- ``np.stack`` / ``np.concatenate`` over arguments that mix object and
  machine-integer taints;
- any float dtype (``np.longdouble``, ``np.float64``, ``float`` ...) in
  the residue kernels — ``nt/modmath.py``, ``nt/ntt.py``, ``backends/``
  — whose uint64 paths are integer-only by contract.  (``rns/convert.py``
  is outside that set on purpose: its float64 ``alpha`` estimate counts
  CRT overflows, it never holds a residue.)
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis import taint

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.core import SourceModule

_BIG_THRESHOLD = 1 << 61

_OBJECT_CTOR_MSG = (
    "constructing dtype=object residue storage by hand; route through "
    "repro.nt.modmath (dtype_for_modulus / zeros / as_mod_array) so the "
    "uint64-vs-object decision stays in one place"
)
_DISPATCH_MSG = (
    "hand-rolled backend dispatch against the 2^61 big-modulus threshold; "
    "use modmath.dtype_for_modulus / backend_kind instead of re-deriving it"
)
_TRUNCATE_MSG = (
    ".astype(np.uint64) on an object-dtype array silently truncates "
    "big-int residues to their low 64 bits; reduce with as_mod_array first"
)
_MIX_MSG = (
    "stacking object-dtype and uint64 residue rows in one call; the whole "
    "result upcasts to object (or truncates) — keep backend groups separate"
)
_FLOAT_MSG = (
    "float dtype in a residue kernel; the uint64 paths are integer-only "
    "(mulhi64 / mod_mul_shoup) so results cannot depend on the platform's "
    "floating-point widths"
)
_FLOAT_DTYPES = frozenset(
    {"longdouble", "clongdouble", "float128", "float64", "float32", "double"}
)


def _is_modmath(module: SourceModule) -> bool:
    return module.path.replace("\\", "/").endswith("nt/modmath.py")


def _is_residue_kernel(module: SourceModule) -> bool:
    path = module.path.replace("\\", "/")
    return path.endswith(("nt/modmath.py", "nt/ntt.py")) or "/backends/" in path


class DtypeRoutingPass:
    rule = "dtype-routing"
    description = "residue arrays built or mixed outside the modmath dtype routing"

    def check(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        in_modmath = _is_modmath(module)
        if _is_residue_kernel(module):
            for node in ast.walk(module.tree):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if name == "float" or name in _FLOAT_DTYPES:
                    yield node, _FLOAT_MSG
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            env = taint.FunctionTaint(scope)
            for node in taint.walk_scope(scope):
                if isinstance(node, ast.Call):
                    yield from self._check_call(node, env, in_modmath)
                elif isinstance(node, ast.Compare) and not in_modmath:
                    if self._is_threshold_dispatch(node):
                        yield node, _DISPATCH_MSG

    # ------------------------------------------------------------------
    def _check_call(
        self, call: ast.Call, env: taint.FunctionTaint, in_modmath: bool
    ) -> Iterator[tuple[ast.AST, str]]:
        name = call.func.attr if isinstance(call.func, ast.Attribute) else (
            call.func.id if isinstance(call.func, ast.Name) else None
        )
        if name in taint.ARRAY_CTORS and not in_modmath:
            dtype = taint.call_dtype_keyword(call)
            if dtype is not None and taint.dtype_kind(dtype) == taint.ARR_OBJ:
                yield call, _OBJECT_CTOR_MSG
        if name == "astype" and call.args and isinstance(call.func, ast.Attribute):
            if taint.dtype_kind(call.args[0]) == taint.ARR_U64:
                if taint.ARR_OBJ in env.classify(call.func.value):
                    yield call, _TRUNCATE_MSG
        if name in ("stack", "concatenate", "vstack", "hstack"):
            kinds: set[str] = set()
            args = call.args
            if len(args) == 1 and isinstance(args[0], (ast.List, ast.Tuple)):
                args = args[0].elts
            for arg in args:
                kinds |= env.classify(arg)
            if taint.ARR_OBJ in kinds and kinds & taint.MACHINE_ARRAYS:
                yield call, _MIX_MSG

    def _is_threshold_dispatch(self, node: ast.Compare) -> bool:
        operands = [node.left, *node.comparators]
        for operand in operands:
            if isinstance(operand, ast.Constant) and operand.value == _BIG_THRESHOLD:
                return True
            if isinstance(operand, ast.Name) and operand.id == "BIG_MODULUS_THRESHOLD":
                return True
            if (
                isinstance(operand, ast.Attribute)
                and operand.attr == "BIG_MODULUS_THRESHOLD"
            ):
                return True
            if (
                isinstance(operand, ast.BinOp)
                and isinstance(operand.op, ast.LShift)
                and isinstance(operand.left, ast.Constant)
                and operand.left.value == 1
                and isinstance(operand.right, ast.Constant)
                and operand.right.value == 61
            ):
                return True
        return False
