"""Lightweight numpy-dtype taint inference for the overflow pass.

The overflow-hazard pass needs to answer one question about an
expression: *could this be a numpy machine-integer array?*  This module
infers that with a deliberately simple,
flow-insensitive analysis: every assignment in a function contributes
its inferred kinds to the name's taint set, and expression
classification folds over those sets.  Flow-insensitivity errs toward
flagging (a name that is ever a uint64 array stays suspect), which is
the right bias for a hazard linter — intentional sites carry a pragma
stating the bound that makes them safe.

Kinds:

- ``ARR_U64`` — ndarray constructed with ``dtype=np.uint64`` (or from a
  :mod:`repro.nt.modmath` residue producer, whose uint64 paths dominate).
- ``ARR_INT`` — ndarray of some other integer dtype, including function
  parameters annotated ``np.ndarray`` (conservatively integer).
- ``SCALAR_U64`` — a ``np.uint64(...)``/``np.int64(...)`` scalar, which
  promotes plain ndarray ``*`` to a 64-bit product.
"""

from __future__ import annotations

import ast

ARR_U64 = "uint64-array"
ARR_INT = "int-array"
SCALAR_U64 = "uint64-scalar"

#: Kinds that denote an ndarray of machine integers (overflow-capable).
MACHINE_ARRAYS = frozenset({ARR_U64, ARR_INT})

_INT_DTYPES = frozenset(
    {"int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "intp", "int_"}
)
_SCALAR_CTORS = frozenset({"uint64", "int64", "uint32", "int32"})
#: modmath helpers that hand back (uint64) residue arrays.
RESIDUE_PRODUCERS = frozenset({"zeros", "as_mod_array", "uniform_mod"})
#: Methods that preserve their receiver's taint.
_PRESERVING_METHODS = frozenset(
    {"copy", "reshape", "ravel", "flatten", "view", "transpose", "squeeze"}
)


def walk_scope(scope: ast.AST):
    """Walk ``scope`` without descending into nested function/class bodies.

    Nested scopes get their own :class:`FunctionTaint` when a pass
    visits them, so their assignments must not leak into the enclosing
    environment.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


def dtype_kind(node: ast.AST) -> str | None:
    """The taint kind implied by a ``dtype=`` argument expression."""
    if isinstance(node, ast.Attribute):
        if node.attr == "uint64":
            return ARR_U64
        if node.attr in _INT_DTYPES:
            return ARR_INT
        return None
    if isinstance(node, ast.Name) and node.id == "int":
        return ARR_INT
    return None


def call_dtype_keyword(call: ast.Call) -> ast.AST | None:
    """The ``dtype=`` keyword value of a call, if present."""
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return None


def _callee_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class FunctionTaint:
    """Flow-insensitive taint environment for one function (or module) body."""

    def __init__(self, scope: ast.AST):
        self.env: dict[str, set[str]] = {}
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            params = (
                args.posonlyargs + args.args + args.kwonlyargs
            )
            for param in params:
                note = param.annotation
                if note is not None and "ndarray" in ast.unparse(note):
                    self.env[param.arg] = {ARR_INT}
        # Two rounds so simple alias chains (a = ctor(); b = a) resolve.
        nodes = list(walk_scope(scope))
        for _ in range(2):
            for node in nodes:
                self._collect(node)

    def _collect(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind_value(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._bind_value(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            kinds = self.classify(node.value) | self.classify(node.target)
            self._bind(node.target, kinds)
        elif isinstance(node, ast.NamedExpr):
            # Walrus targets taint like any assignment; the expression
            # value flows onward separately via classify.
            self._bind(node.target, self.classify(node.value))

    def _bind_value(self, target: ast.AST, value: ast.AST) -> None:
        """Bind one assignment target to its value expression.

        Matching-arity tuple/list assignments unpack in parallel so each
        name gets its own element's kinds; any other shape falls back to
        binding the whole value's kinds to every unpacked name.
        """
        if (
            isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)
            and not any(isinstance(e, ast.Starred) for e in target.elts)
        ):
            for element, element_value in zip(target.elts, value.elts):
                self._bind_value(element, element_value)
            return
        self._bind(target, self.classify(value))

    def _bind(self, target: ast.AST, kinds: set[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Starred):
                    element = element.value
                self._bind(element, kinds)
            return
        if isinstance(target, ast.Name) and kinds:
            self.env.setdefault(target.id, set()).update(kinds)

    # ------------------------------------------------------------------
    def classify(self, node: ast.AST) -> set[str]:
        """The taint kinds an expression may carry (empty = unknown)."""
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            return self._classify_call(node)
        if isinstance(node, ast.Subscript):
            return self.classify(node.value) & MACHINE_ARRAYS
        if isinstance(node, ast.IfExp):
            return self.classify(node.body) | self.classify(node.orelse)
        if isinstance(node, ast.BinOp):
            both = self.classify(node.left) | self.classify(node.right)
            return both & MACHINE_ARRAYS
        if isinstance(node, ast.UnaryOp):
            return self.classify(node.operand)
        if isinstance(node, (ast.List, ast.Tuple)):
            kinds: set[str] = set()
            for element in node.elts:
                kinds |= self.classify(element)
            return kinds
        return set()

    def _classify_call(self, call: ast.Call) -> set[str]:
        name = _callee_name(call.func)
        dtype = call_dtype_keyword(call)
        if dtype is not None:
            kind = dtype_kind(dtype)
            return {kind} if kind else set()
        if name == "astype" and call.args:
            kind = dtype_kind(call.args[0])
            return {kind} if kind else set()
        if name in _SCALAR_CTORS:
            return {SCALAR_U64}
        if name in _PRESERVING_METHODS and isinstance(call.func, ast.Attribute):
            return self.classify(call.func.value) & MACHINE_ARRAYS
        if name in ("stack", "concatenate", "where", "vstack", "hstack"):
            kinds: set[str] = set()
            for arg in call.args:
                kinds |= self.classify(arg)
            return kinds & MACHINE_ARRAYS
        if name in RESIDUE_PRODUCERS:
            return {ARR_U64}
        return set()
