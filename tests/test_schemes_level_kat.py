"""Known answers for level management (paper Listings 1-6).

``tests/data/level_kat.json`` pins, for both planners in each of the
two residue width classes, what ``rescale`` does at every level and
what ``adjust`` does for **every** ``src > dst`` pair: the sha256 of the
output residues, the output level, moduli (order included) and the exact
scale.  The direct ``scale_up`` / ``scale_down`` / ``drop_moduli``
digests on the same matrices pin the RNS layer's level moves too.

The file was recorded from the per-scheme ``rescale``/``adjust`` methods
of the commit before they were merged, so it is the oracle the single
routine is held to.  Inputs come from the ``_kat_input`` LCG over Python
ints — no numpy generator, no keys: a ciphertext is two LCG residue
matrices in coefficient form.  Re-record (only when level management's
definition changes, never to make a change pass) with
  PYTHONPATH=src python -c \
    "import tests.test_schemes_level_kat as t; t.record_kat()"
"""

import json
from fractions import Fraction
from functools import cache
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.accel import kernels
from repro.ckks.ciphertext import Ciphertext
from repro.errors import PlanningError
from repro.rns.basis import RnsBasis
from repro.rns.convert import drop_moduli, scale_down, scale_up
from repro.rns.poly import COEFF, RnsPolynomial
from repro.schemes import plan_chain
from repro.trace.program import OpKind, TraceOp
from tests.test_nt_ntt_vectorized import _digest, _kat_input

KAT_PATH = Path(__file__).parent / "data" / "level_kat.json"
KAT_N = 64

#: ``label -> (scheme, word bits, scale bits, levels above 0, base bits)``.
#: 28-bit words run the uint32 NTT word, ~50-bit the uint64 wide path.
#: ``bp28`` (4 -> 0) and ``bp50`` (3 -> 1) each hold a move whose
#: scale-down lands out of the destination's order; ``bp50`` also
#: crosses from wide to narrow rows.  ``rns28`` sheds two-prime groups,
#: ``rns50`` one prime.
KAT_CASES = {
    "bp28": ("bitpacker", 28, 31.0, 5, 60.0),
    "bp50": ("bitpacker", 50, 25.0, 6, 30.0),
    "rns28": ("rns-ckks", 28, 40.0, 4, 45.0),
    "rns50": ("rns-ckks", 50, 45.0, 4, 50.0),
}


@cache
def _chain(label: str):
    scheme, word_bits, scale_bits, levels, base_bits = KAT_CASES[label]
    return plan_chain(
        scheme, n=KAT_N, word_bits=word_bits, level_scale_bits=scale_bits,
        levels=levels, base_bits=base_bits, ks_digits=2,
    )


def _poly(moduli, salt: int) -> RnsPolynomial:
    """Row ``i`` is ``KAT_N`` LCG values below ``moduli[i]``."""
    basis = RnsBasis(KAT_N, moduli)
    rows = [_kat_input(q, KAT_N, salt=100 * salt + i) for i, q in enumerate(moduli)]
    return RnsPolynomial(basis, np.array(rows, dtype=np.uint64), COEFF)


def _residues(*polys: RnsPolynomial) -> str:
    return _digest(v for poly in polys for v in poly.mat.ravel())


def _kat_keys() -> list[tuple[str, str, int, int]]:
    """``(case, op, src, dst)`` for every recorded entry, in file order."""
    keys = []
    for label in KAT_CASES:
        top = _chain(label).max_level
        keys += [(label, "rescale", src, src - 1) for src in range(top, 0, -1)]
        keys += [
            (label, "adjust", src, dst)
            for src in range(top, 0, -1)
            for dst in range(src - 1, -1, -1)
        ]
        keys += [
            (label, op, top, top)
            for op in ("scale_up", "scale_down", "drop_moduli")
        ]
    return keys


def _kat_entry(label: str, op: str, src: int, dst: int) -> dict:
    chain = _chain(label)
    moduli = chain.moduli_at(src)
    c0, c1 = _poly(moduli, salt=1), _poly(moduli, salt=2)
    entry = {"case": label, "op": op, "src": src, "dst": dst,
             "input": _residues(c0, c1)}
    if op in ("rescale", "adjust"):
        if op == "rescale":
            out = chain.rescale(Ciphertext(c0, c1, src, chain.scale_at(src) ** 2))
        else:
            out = chain.adjust(Ciphertext(c0, c1, src, chain.scale_at(src)), dst)
        assert out.c0.domain == out.c1.domain == COEFF
        assert out.c0.basis == out.c1.basis
        entry["level"] = out.level
        entry["scale"] = [str(out.scale.numerator), str(out.scale.denominator)]
        polys = (out.c0, out.c1)
    else:
        # The primitives on the same top-level matrices: grow by the
        # chain's specials, or shed / discard the last two residues.
        arg = chain.special_moduli if op == "scale_up" else moduli[-2:]
        primitive = {"scale_up": scale_up, "scale_down": scale_down,
                     "drop_moduli": drop_moduli}[op]
        polys = (primitive(c0, arg), primitive(c1, arg))
    entry["moduli"] = list(polys[0].basis.moduli)
    entry["digest"] = _residues(*polys)
    return entry


def record_kat() -> None:
    entries = [_kat_entry(*key) for key in _kat_keys()]
    KAT_PATH.write_text(json.dumps(entries, indent=1) + "\n")


KAT_ENTRIES = json.loads(KAT_PATH.read_text())


def _entry_id(entry: dict) -> str:
    return f"{entry['case']}-{entry['op']}-{entry['src']}->{entry['dst']}"


@pytest.mark.parametrize("entry", KAT_ENTRIES, ids=_entry_id)
def test_known_answer_vectors(entry):
    got = _kat_entry(entry["case"], entry["op"], entry["src"], entry["dst"])
    assert got == entry


def test_known_answer_file_covers_the_case_list():
    keys = [(e["case"], e["op"], e["src"], e["dst"]) for e in KAT_ENTRIES]
    assert keys == _kat_keys()


def test_moves_land_on_the_chain():
    """Every recorded move ends on its destination level's moduli, in
    the chain's order, and a rescale of ``S^2`` on the canonical scale."""
    for entry in KAT_ENTRIES:
        if entry["op"] not in ("rescale", "adjust"):
            continue
        chain = _chain(entry["case"])
        assert entry["level"] == entry["dst"]
        assert tuple(entry["moduli"]) == chain.moduli_at(entry["dst"])
        if entry["op"] == "rescale":
            scale = Fraction(*(int(part) for part in entry["scale"]))
            assert scale == chain.scale_at(entry["dst"])


def test_cases_cover_the_width_classes_and_chain_shapes():
    kinds = {
        label: {chain.basis_at(level).kind for level in range(chain.max_level + 1)}
        for label in KAT_CASES
        for chain in [_chain(label)]
    }
    assert kinds["bp28"] == kinds["rns28"] == {"narrow"}
    assert kinds["bp50"] == {"narrow", "wide"} and kinds["rns50"] == {"wide"}

    # Multi-prime groups on one RNS-CKKS chain, one prime a level on the other.
    assert {len(group) for group in _chain("rns28").groups[1:]} == {2}
    assert {len(group) for group in _chain("rns50").groups[1:]} == {1}


def test_a_routine_that_skips_the_closing_reorder_is_caught(monkeypatch):
    """Listing 4/6 end in the destination's *order*, not just its set:
    ``scale_up`` appends and ``scale_down`` keeps source order, so a kept
    terminal can land ahead of an added one.  It is rare — two recorded
    moves — so the branch is pinned by name."""
    restricted = RnsPolynomial.restricted

    def skip_reorders(self, moduli):
        moduli = tuple(moduli)
        if set(moduli) == set(self.basis.moduli):
            return self
        return restricted(self, moduli)

    monkeypatch.setattr(RnsPolynomial, "restricted", skip_reorders)
    misses = [
        _entry_id(e)
        for e in KAT_ENTRIES
        if _kat_entry(e["case"], e["op"], e["src"], e["dst"]) != e
    ]
    assert misses == ["bp28-adjust-4->0", "bp50-adjust-3->1"]


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(["bitpacker", "rns-ckks"]),
    word_bits=st.integers(24, 64),
    scale_bits=st.integers(25, 55),
    levels=st.integers(1, 7),
    n=st.sampled_from([64, 128, 256]),
)
def test_level_move_table_property(scheme, word_bits, scale_bits, levels, n):
    """On any planned chain, every move's three sets carry level ``src``
    exactly onto level ``dst``, and what is dropped is free."""
    try:
        chain = plan_chain(
            scheme, n=n, word_bits=word_bits, level_scale_bits=float(scale_bits),
            levels=levels, base_bits=40.0, ks_digits=2,
        )
    except PlanningError:
        reject()
    for src in range(chain.max_level + 1):
        assert chain.move(src, src) == ((), (), (), src, 1)
    for src in range(1, chain.max_level + 1):
        assert chain.move(src, src - 1).drops == ()
        for dst in range(src):
            move = chain.move(src, dst)
            here, there = set(chain.moduli_at(src)), set(chain.moduli_at(dst))
            kept = here - set(move.drops)
            assert (kept - set(move.shed)) | set(move.added) == there
            assert not set(move.added) & here
            assert set(move.shed) <= kept and set(move.drops) <= here
            assert prod(kept) >= chain.q_product_at(dst + 1)
            assert move.factor == Fraction(prod(move.added), prod(move.shed))
            assert move.dst == dst
            if scheme == "rns-ckks":
                assert move.added == ()


def test_a_recorded_no_op_adjust_prices_as_the_empty_move():
    """The evaluator records ``adjust(ct, ct.level)`` (it returns ``ct``)
    and the cost models must price that trace: nothing added or shed."""
    chain = _chain("bp28")
    top = chain.max_level
    op = TraceOp(OpKind.ADJUST, top, dst_level=top)
    assert kernels.op_cost(op, chain, kshgen=True) == kernels.adjust_cost(
        chain.residues_at(top), 0, 0
    )
