"""Known answers for the hybrid keyswitch, one chain per width class.

``tests/data/keyswitch_kat.json`` pins, for a top-level keyswitch on
each chain, the sha256 of everything ``Evaluator._keyswitch`` computes:
the ``(D, |M ∪ P|, n)`` extended digits, the two inner-product
accumulators as they enter the mod-down (in NTT form; the digest is of
their inverse transform), and both mod-down outputs.
Each chain is switched twice: an NTT-form input with a fold (the
relinearisation in ``multiply``) and a coefficient-form one without
(the rotation path, which transforms the whole digit stack).

The narrow and wide chains are the benchmark ladder's ``logreg_bp28``
and ``logreg_rns60`` chains at n = 4096: their stage loops run on
half-block views thousands of coefficients long, which is where a
change to how numpy iterates shows first.

Inputs *and* key rows come from the ``_kat_input`` LCG over Python ints
(no numpy generator, no secret): the keyswitch is integer arithmetic on
whatever rows it is handed, so the key only needs ``_make_ksk``'s
layout.  Re-record (only when the keyswitch's definition changes, never
to make a change pass) with
  PYTHONPATH=src python -c \
    "import tests.test_ckks_keyswitch_kat as t; t.record_kat()"
"""

import json
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.ckks import evaluator as evaluator_mod
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeySwitchKey, split_into_digits
from repro.rns.basis import RnsBasis, conversion_table
from repro.rns.poly import COEFF, NTT, RnsPolynomial
from repro.schemes import plan_chain
from tests.test_nt_ntt_vectorized import _digest, _kat_input

KAT_PATH = Path(__file__).parent / "data" / "keyswitch_kat.json"

#: ``label -> (scheme, n, word bits, scale bits, levels above 0, base bits)``.
KAT_CASES = {
    "bp28": ("bitpacker", 4096, 28, 35.0, 6, 60.0),
    "rns60": ("rns-ckks", 4096, 60, 35.0, 6, 60.0),
}
DOMAINS = (NTT, COEFF)


@cache
def _chain(label: str):
    scheme, n, word_bits, scale_bits, levels, base_bits = KAT_CASES[label]
    return plan_chain(
        scheme, n=n, word_bits=word_bits, level_scale_bits=scale_bits,
        levels=levels, base_bits=base_bits, ks_digits=2,
    )


def _poly(n: int, moduli, salt: int, domain: str) -> RnsPolynomial:
    """Row ``i`` is ``n`` LCG values below ``moduli[i]``."""
    basis = RnsBasis(n, moduli)
    rows = [_kat_input(q, n, salt=100 * salt + i) for i, q in enumerate(moduli)]
    return RnsPolynomial(basis, np.array(rows, dtype=np.uint64), domain)


@cache
def _kat_key(label: str) -> KeySwitchKey:
    """A top-level key laid out as ``KeyChest._make_ksk`` lays it out,
    with LCG rows in place of sampled ones."""
    chain = _chain(label)
    level, n = chain.max_level, chain.n
    moduli = chain.moduli_at(level)
    full = moduli + chain.special_moduli
    groups = split_into_digits(moduli, chain.ks_digits)
    rows, own, tables, converted_rows = [], [], [], []
    for j, group in enumerate(groups):
        start = own[-1].stop if own else 0
        own.append(slice(start, start + len(group)))
        rest = np.delete(np.arange(len(full)), own[-1])
        tables.append(
            conversion_table(RnsBasis(n, group), tuple(full[i] for i in rest))
        )
        converted_rows.append(j * len(full) + rest)
        rows.append((_poly(n, full, 10 + 2 * j, NTT), _poly(n, full, 11 + 2 * j, NTT)))
    return KeySwitchKey(
        level=level, digit_groups=groups, special_moduli=chain.special_moduli,
        full=RnsBasis(n, full),
        stack=np.stack([[row[half].mat for row in rows] for half in (0, 1)]),
        own=tuple(own), tables=tuple(tables),
        converted_rows=np.concatenate(converted_rows),
    )


def _residues(*polys: RnsPolynomial) -> str:
    return _digest(v for poly in polys for v in poly.mat.ravel())


def _kat_entry(label: str, domain: str) -> dict:
    chain, ksk = _chain(label), _kat_key(label)
    moduli = chain.moduli_at(ksk.level)
    d = _poly(chain.n, moduli, 1, domain)
    fold = (
        (_poly(chain.n, moduli, 2, NTT), _poly(chain.n, moduli, 3, NTT))
        if domain == NTT else None
    )
    # ``_keyswitch`` is ``_inner_product(_extended_digits(...))``; the
    # accumulators are read where they enter the mod-down, in NTT form,
    # and pinned in coefficient form.
    accumulators = []
    real_scale_down_all = evaluator_mod.scale_down_all

    def scale_down_all(polys, moduli):
        assert all(poly.domain == NTT for poly in polys)
        accumulators.extend(poly.to_coeff() for poly in polys)
        return real_scale_down_all(polys, moduli)

    ext = Evaluator._extended_digits(d, ksk)
    extended = _digest(ext.ravel())
    with mock.patch.object(evaluator_mod, "scale_down_all", scale_down_all):
        k0, k1 = Evaluator._inner_product(ext, ksk, fold)
    assert k0.domain == k1.domain == COEFF
    assert k0.basis.moduli == k1.basis.moduli == moduli
    return {
        "case": label, "domain": domain, "n": chain.n, "level": ksk.level,
        "moduli": list(ksk.full.moduli),
        "input": _residues(d, *(fold or ())),
        "extended": extended,
        "inner_product": _residues(*accumulators),
        "mod_down": [_residues(k0), _residues(k1)],
    }


def record_kat() -> None:
    entries = [_kat_entry(label, domain) for label in KAT_CASES for domain in DOMAINS]
    KAT_PATH.write_text(json.dumps(entries, indent=1) + "\n")


KAT_ENTRIES = json.loads(KAT_PATH.read_text())


@pytest.mark.parametrize(
    "entry", KAT_ENTRIES, ids=lambda e: f"{e['case']}-{e['domain']}"
)
def test_known_answer_vectors(entry):
    assert _kat_entry(entry["case"], entry["domain"]) == entry


def test_known_answer_file_covers_the_case_list():
    assert [(e["case"], e["domain"]) for e in KAT_ENTRIES] == [
        (label, domain) for label in KAT_CASES for domain in DOMAINS
    ]


def test_cases_cover_the_width_classes():
    kinds = {label: _kat_key(label).full.kind for label in KAT_CASES}
    assert kinds == {"bp28": "narrow", "rns60": "wide"}
    assert {_chain(label).n for label in KAT_CASES} == {4096}
    assert all(_kat_key(label).digits == 2 for label in KAT_CASES)
