"""Overflow-hazard pass: raw ``*``/``@``/``%`` on numpy integer arrays.

The modmath split (narrow uint64 / wide Barrett-corrected / big-int
object arrays, keyed off ``BIG_MODULUS_THRESHOLD``) means a product of
two residues is only safe as a plain uint64 multiply when the modulus is
below ``2^31``; for wide moduli the same expression silently wraps and
every downstream value is garbage with no exception raised.  This pass
flags the expressions where that can happen:

- ``a * b`` where both operands look like machine-integer ndarrays (or
  one is a ``np.uint64`` scalar), outside a ``modmath`` helper call —
  the product may exceed 64 bits; ``a @ b`` likewise, where every
  output word is a whole sum of such products.
- ``(a + b) % q``, ``(a - b) % q``, ``(-a) % q`` on such arrays — the
  unreduced uint64 sum/difference/negation wraps *before* the reduction.

Sites that are provably safe (narrow backend, chunked lazy folds,
object-dtype rows) carry ``# fhelint: ok[overflow-hazard]`` pragmas
stating the bound, which keeps the proof next to the arithmetic.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import taint
from repro.analysis.core import LintPass, SourceModule, register

_MULT_MSG = (
    "raw `*`/`@` on integer ndarrays can exceed 64 bits once a modulus is "
    ">= 2^31 (the wide/big backends of repro.nt.modmath); use mod_mul / "
    "mod_scalar_mul, or add a `# fhelint: ok[overflow-hazard]` pragma "
    "stating the operand bound"
)
_REDUCE_MSG = (
    "reducing an unreduced uint64 {what} with `%` wraps before the "
    "reduction; use modmath.{helper} or add a pragma stating the bound"
)


def _is_int_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


class OverflowHazardPass(LintPass):
    rule = "overflow-hazard"
    description = (
        "products/reductions on numpy integer arrays that can exceed 64 bits"
    )

    def check(self, module: SourceModule) -> Iterator[tuple[ast.AST, str]]:
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            env = taint.FunctionTaint(scope)
            for node in taint.walk_scope(scope):
                if not isinstance(node, ast.BinOp):
                    continue
                if isinstance(node.op, (ast.Mult, ast.MatMult)):
                    if self._hazardous_mult(node, env):
                        yield node, _MULT_MSG
                elif isinstance(node.op, ast.Mod):
                    message = self._hazardous_reduction(node, env)
                    if message:
                        yield node, message

    # ------------------------------------------------------------------
    def _hazardous_mult(self, node: ast.BinOp, env: taint.FunctionTaint) -> bool:
        left = env.classify(node.left)
        right = env.classify(node.right)

        def machine_array(kinds: set[str]) -> bool:
            return bool(kinds & taint.MACHINE_ARRAYS)

        def partner(expr: ast.AST, kinds: set[str]) -> bool:
            return bool(
                kinds & (taint.ARRAYS | {taint.SCALAR_U64})
            ) or _is_int_constant(expr)

        return (machine_array(left) and partner(node.right, right)) or (
            machine_array(right) and partner(node.left, left)
        )

    def _hazardous_reduction(
        self, node: ast.BinOp, env: taint.FunctionTaint
    ) -> str | None:
        inner = node.left
        if isinstance(inner, ast.BinOp) and isinstance(inner.op, (ast.Add, ast.Sub)):
            sides = env.classify(inner.left) | env.classify(inner.right)
            if sides & taint.MACHINE_ARRAYS:
                what = "sum" if isinstance(inner.op, ast.Add) else "difference"
                helper = "mod_add" if isinstance(inner.op, ast.Add) else "mod_sub"
                return _REDUCE_MSG.format(what=what, helper=helper)
        if isinstance(inner, ast.UnaryOp) and isinstance(inner.op, ast.USub):
            if env.classify(inner.operand) & taint.MACHINE_ARRAYS:
                return _REDUCE_MSG.format(what="negation", helper="mod_neg")
        return None


register(OverflowHazardPass())
