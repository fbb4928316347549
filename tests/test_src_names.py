"""Everything ``src/`` offers has a caller in the library, the benchmarks
or the examples: every function, class and method, and every parameter
that has a default.

Both checks read syntax, not text, from one parse of every ``*.py`` file
under ``src/``, ``benchmarks/`` and ``examples/``; what only ``tests/``
uses is dead weight in ``src/`` unless an allowlist gives the reason it
stays.  A stale allowlist entry fails too.

**Names.**  A definition counts as used when some scanned file names it
outside the lines of its own definition, through a ``Name``, an
``Attribute``, an import (either side of an alias, or any part of a
dotted module path) or an identifier-shaped string constant: a
``getattr`` name, or a ``module:function,function`` entry of the CLI's
experiment table (identifiers joined by ``.``, ``:`` or ``,``).
Docstrings and comments do not count, and neither does a package
``__init__``'s re-export of a name: its ``from … import`` lines, its
``__all__`` and its lazy ``__getattr__`` table (the function and the
module constants it reads).  Dunder methods are protocol hooks and are
skipped.

**Parameters.**  A default-valued parameter of a ``src/`` function
counts as set when some call passes a keyword of its name, some dict
literal has its name as a key (``runner.map_variants`` grids pass their
keywords in dicts), or some call to a function of the same name passes
it positionally or through ``*`` or ``**``.  A class's ``__init__`` is
called by the class's name.  The check goes by names alone and so errs
towards counting a parameter as set; a parameter that nothing sets is a
constant.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples")
#: The names the scanned files import numpy as.
NUMPY = ("np", "numpy")

#: ``path:name`` -> why the symbol stays although nothing above names it.
ALLOWED = {
    "src/repro/analysis/absint.py:check_observations": (
        "the runtime-versus-abstract cross-check that recorded programs "
        "(ROADMAP 2(c)) and the corrected noise model (23(c)) build on"
    ),
    "src/repro/ckks/encryptor.py:encrypt_symmetric": (
        "the scheme's secret-key encryption; the decrypt tests encrypt "
        "every level of the ladder's chains with it"
    ),
    "src/repro/trace/execute.py:TraceExecutor": (
        "replays a trace on the functional engine; the runtime half of "
        "check_observations, reached through repro.trace"
    ),
    "src/repro/nt/crt.py:crt_reconstruct": (
        "the Python-int CRT oracle the int64 decode path is held to "
        "(nt/crt.py's docstring)"
    ),
    "src/repro/nt/crt.py:centered": (
        "the scalar centered-representative oracle beside crt_reconstruct"
    ),
    "src/repro/schemes/chain.py:chain_to_dict": (
        "the canonical form primes_kat.json's five planned-chain digests "
        "are taken over (tests/test_nt_primes.py)"
    ),
}

_LADDER_SIGNATURE = (
    "benchmarks/ladder imports this class, and the ladder is frozen: its "
    "signature stays as the ladder knows it"
)
_SHRUNK_GRID = (
    "the figure's grid; tests/test_eval_ablations.py runs one or two of "
    "its points to keep tier-1 fast"
)

#: ``path:function(parameter)`` -> why the parameter keeps its default
#: although nothing above sets it.
ALLOWED_PARAMETERS = {
    "src/repro/accel/sim.py:AcceleratorSim.__init__(energy_model)": (
        _LADDER_SIGNATURE
    ),
    "src/repro/accel/sim.py:AcceleratorSim.__init__(spill_turnover)": (
        _LADDER_SIGNATURE
    ),
    "src/repro/accel/sim.py:AcceleratorSim.__init__(streaming_fraction)": (
        _LADDER_SIGNATURE
    ),
    "src/repro/ckks/context.py:CkksContext.__init__(rng)": _LADDER_SIGNATURE,
    "src/repro/ckks/context.py:CkksContext.__init__(sigma)": _LADDER_SIGNATURE,
    "src/repro/cli.py:main(argv)": (
        "the console entry point reads sys.argv; tests pass their own "
        "argument lists"
    ),
    "src/repro/eval/ablations.py:run_digits_ablation(digit_counts)": (
        _SHRUNK_GRID
    ),
    "src/repro/eval/ablations.py:run_scale_down_ablation(r_values)": (
        _SHRUNK_GRID
    ),
    "src/repro/eval/ablations.py:run_tolerance_ablation(tolerances)": (
        _SHRUNK_GRID
    ),
    "src/repro/ckks/linalg.py:bsgs_sums(giant_step)": (
        "the tests' reference split: giant_step=1 is the unsplit diagonal "
        "method and giant_step=d one giant step, which the serial flow "
        "matches bit for bit; fixed steps pin the transform counts"
    ),
}

_IDENTIFIERS = re.compile(r"[A-Za-z_]\w*(?:[.:,][A-Za-z_]\w*)*")


@functools.cache
def _trees() -> dict[Path, ast.Module]:
    """Every scanned file's syntax tree, parsed once for both checks."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _in_src(path: Path) -> bool:
    return path.parts[len(ROOT.parts)] == "src"


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.AST):
    """``(name, first line, last line)`` of each def and class, its
    decorators included."""
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if _is_dunder(node.name):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        yield node.name, first, node.end_lineno


def _reexports(tree: ast.Module) -> list[ast.AST]:
    """A package ``__init__``'s ``__all__`` and its lazy ``__getattr__``
    with the module constants that function reads."""
    lazy = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]
    read = {
        node.id for fn in lazy for node in ast.walk(fn)
        if isinstance(node, ast.Name)
    }
    tables = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name)
            and (target.id == "__all__" or target.id in read)
            for target in node.targets
        )
    ]
    return lazy + tables


def _of_numpy(node: ast.Attribute) -> bool:
    """Whether ``node`` reads an attribute of the numpy module
    (``np.zeros``, ``numpy.linalg.inv``): numpy's name, not ours."""
    root = node.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id in NUMPY


def _uses(tree: ast.Module, package_init: bool):
    """``(name, line)`` of every reference to a name in ``tree``; in a
    package ``__init__``, re-exports are not references."""
    skipped = set(map(id, _reexports(tree))) if package_init else set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if id(node) in skipped or (
            package_init and isinstance(node, ast.ImportFrom)
        ):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not _of_numpy(node):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for name in (alias.name, alias.asname):
                    for part in (name or "").split("."):
                        yield part, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _IDENTIFIERS.fullmatch(node.value)
        ):
            for part in re.split(r"[.:,]", node.value):
                yield part, node.lineno


def unnamed_definitions() -> list[str]:
    """``path:name`` of every ``src/`` definition named nowhere else."""
    trees = _trees()
    # name -> [(path, line)], read once.
    where: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in trees.items():
        for name, line in _uses(tree, path.name == "__init__.py"):
            where[name].append((path, line))
    unnamed = []
    for path, tree in trees.items():
        if not _in_src(path):
            continue
        for name, first, last in _definitions(tree):
            if not any(
                other != path or not first <= line <= last
                for other, line in where[name]
            ):
                unnamed.append(f"{_rel(path)}:{name}")
    return unnamed


def _defaulted_parameters(tree: ast.Module):
    """``(function, callee name, parameter, positional index or None)``
    of every parameter with a default.  A method's index leaves out
    ``self``/``cls``; ``__init__`` is called by its class's name; other
    dunders are skipped."""
    owner: dict[int, ast.ClassDef] = {
        id(item): node
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        if node.name == "__init__" and cls is not None:
            callee = cls.name
        elif _is_dunder(node.name):
            continue
        else:
            callee = node.name
        shown = callee if cls is None else f"{cls.name}.{node.name}"
        args = node.args
        positional = args.posonlyargs + args.args
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        first_default = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional):
            if index >= first_default:
                yield shown, callee, arg.arg, index - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield shown, callee, arg.arg, None


def unset_parameters() -> list[str]:
    """``path:function(parameter)`` of every defaulted ``src/`` parameter
    that no call in the scanned trees sets."""
    trees = _trees()
    keywords: set[str] = set()
    # callee name -> most positional arguments any call passes it, and
    # whether some call passes ``*`` or ``**`` (everything may be set).
    reach: dict[str, int] = defaultdict(int)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keywords.update(
                    key.value for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                )
            if not isinstance(node, ast.Call):
                continue
            keywords.update(kw.arg for kw in node.keywords if kw.arg)
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if name is None:
                continue
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords
            )
            reach[name] = max(
                reach[name], 1 << 30 if spread else len(node.args)
            )
    unset = []
    for path, tree in trees.items():
        if not _in_src(path):
            continue
        for shown, callee, param, index in _defaulted_parameters(tree):
            if param in keywords:
                continue
            if index is not None and reach.get(callee, 0) > index:
                continue
            unset.append(f"{_rel(path)}:{shown}({param})")
    return sorted(set(unset))


def test_src_holds_only_what_something_names():
    unnamed = set(unnamed_definitions())
    stray = sorted(unnamed - ALLOWED.keys())
    assert not stray, (
        "defined under src/ but named nowhere in src/, benchmarks/ or "
        "examples/ (delete, or add to ALLOWED with a reason):\n"
        + "\n".join(stray)
    )
    # An entry whose symbol is gone, or is named again, leaves the list.
    assert not ALLOWED.keys() - unnamed


def test_src_parameters_are_set_by_some_caller():
    unset = set(unset_parameters())
    stray = sorted(unset - ALLOWED_PARAMETERS.keys())
    assert not stray, (
        "default-valued parameters under src/ that no call in src/, "
        "benchmarks/ or examples/ sets (fold into the default, or add "
        "to ALLOWED_PARAMETERS with a reason):\n" + "\n".join(stray)
    )
    assert not ALLOWED_PARAMETERS.keys() - unset


def test_allowlist_entries_give_reasons():
    for reasons in (ALLOWED, ALLOWED_PARAMETERS):
        assert all(reason.strip() for reason in reasons.values())
