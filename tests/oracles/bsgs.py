"""The double-hoisted BSGS flow, one piece at a time.

:func:`repro.ckks.linalg.bsgs_sums` runs a block's inputs, rows and
giant steps as stacks; :func:`serial_bsgs` is the same arithmetic run
serially from the evaluator's key-switch pieces (``_extended_digits``,
``_key_products``, ``_mod_down``): one input and one baby rotation at a
time, each stopping at its ``P``-lifted accumulators over ``M ∪ P``;
one row and one product at a time; and one giant step's mod-down and
keyswitch at a time, summed before one mod-down per row.  Every step is
exact or rounds where the stacked flow rounds, so the two agree byte for
byte, and their op logs and ``op.*`` counters agree too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.evaluator import _done, _mod_down
from repro.ckks.linalg import PlainBlock, PlainMatrix
from repro.nt.ntt import galois_permutation
from repro.rns.convert import scale_down, scale_up
from repro.rns.poly import NTT, RnsPolynomial


def _element(ev, steps: int) -> int:
    return pow(5, steps % ev.encoder.slots, 2 * ev.chain.n)


def _switched(ev, c1: RnsPolynomial, level: int, g: int, c0_lifted):
    """One keyswitch of ``c1(X^g)`` onto ``galois(c0_lifted)`` (or
    zero), left over ``M ∪ P``: its own decomposition, permuted."""
    ksk = ev.chest.galois_key(level, g)
    turned = np.take(
        ev._extended_digits(c1, ksk), galois_permutation(c1.basis.n, g), axis=-1
    )
    init = None if c0_lifted is None else c0_lifted.galois(g)
    return ev._key_products([(turned, ksk)], (init, None))


def lifted_rotation(ev, ct: Ciphertext, steps: int) -> Ciphertext:
    """``P·rotate(ct, steps)``, unrounded, from a decomposition of its
    own: what :meth:`Evaluator.rotate_lifted` yields for one step."""
    specials = ev.chain.special_moduli
    c0, c1 = (scale_up(p.to_ntt(), specials) for p in (ct.c0, ct.c1))
    g = _element(ev, steps)
    if g == 1:
        return Ciphertext(c0, c1, ct.level, ct.scale)
    lifted = Ciphertext(*_switched(ev, ct.c1, ct.level, g, c0), ct.level, ct.scale)
    return _done(lifted, "hrot", "rotate")


def serial_rotate_sum(ev, terms: Sequence[tuple[int, Ciphertext]]) -> Ciphertext:
    """:meth:`Evaluator.rotate_sum` one term at a time: each rotated
    lifted term's ``c1`` modded down, decomposed, permuted and switched
    on its own, its key products and ``galois(c0)`` added into the
    ``M ∪ P`` accumulators, every unrotated term added as it is; then
    one mod-down.  Logs and counts what the evaluator does."""
    specials = ev.chain.special_moduli
    first, acc = terms[0][1], None
    for i, (steps, ct) in enumerate(terms):
        g = _element(ev, steps)
        c0, c1 = ct.c0.to_ntt(), ct.c1.to_ntt()
        if g == 1:
            part = [c0, c1]
        else:
            part = _switched(ev, scale_down(c1, specials), ct.level, g, c0)
            _done(ct, "hrot", "rotate")
        acc = part if acc is None else [a.add(b) for a, b in zip(acc, part)]
        if i:
            _done(first, "hadd")
    return Ciphertext(*_mod_down(acc, specials), first.level, first.scale)


def row_plan(ev, m: PlainMatrix, level: int, g: int) -> dict[int, Plaintext]:
    """``m``'s encoded diagonals on their own (over ``M ∪ P``, NTT
    form), as ``(|M ∪ P|, n)`` plaintexts."""
    return {
        j: Plaintext(RnsPolynomial(pt.basis, pt.poly.mat[0], NTT), pt.scale, pt.level)
        for j, pt in PlainBlock([[m]]).encoded(ev, level, g)[0].items()
    }


def serial_bsgs(
    ev, rows: Sequence[Sequence[PlainMatrix]], inputs: Sequence[Ciphertext], g: int
) -> list[Ciphertext]:
    """``bsgs_sums(ev, PlainBlock(rows), inputs, g)``, serially: each
    input's lifted baby steps one at a time, each row's products one
    ``mul_encoded`` and ``add`` at a time, its giant steps through
    :func:`serial_rotate_sum`, then its rescale.  One output per row."""
    d, level = rows[0][0].dimension, inputs[0].level
    babies = [[lifted_rotation(ev, ct, b) for b in range(min(g, d))] for ct in inputs]
    outs = []
    for row in rows:
        plans = [row_plan(ev, m, level, g) for m in row]
        giants = []
        for i in range(0, d, g):
            inner = None
            for plan, baby in zip(plans, babies):
                for b in range(min(g, d - i)):
                    if i + b in plan:
                        term = ev.mul_encoded(baby[b], plan[i + b])
                        inner = term if inner is None else ev.add(inner, term)
            if inner is not None:
                giants.append((i, inner))
        outs.append(ev.rescale(serial_rotate_sum(ev, giants)))
    return outs
