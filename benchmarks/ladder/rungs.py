"""Ladder rungs: each layer's public functions timed at a workload's shapes.

A rung is the median of :data:`harness.RUNG_CALLS` direct calls into one
public function, with inputs shaped like the owning workload's top
level (its ``n``, its top-level basis, its keyswitch digit split).  The
traced run multiplies these by the call counts the program's own
counters report, which is what ``ckks.evaluator.explained_share`` and
the Fig. 13 cross-check are made of.

To add a rung: time one more public call here, return it under a
``<module>.<function>_<unit>`` name, and list the name in
``BENCHMARK.json``'s ``per_layer`` (``test_smoke.py`` fails if the two
disagree).
"""

from __future__ import annotations

import time

import numpy as np

import repro.backends as backends
from benchmarks.ladder.harness import median, time_calls
from repro.ckks.context import CkksContext
from repro.ckks.keys import KeyChest
from repro.nt.modmath import backend_kind
from repro.nt.ntt import forward_rows, inverse_rows
from repro.rns.basis import RnsBasis
from repro.rns.convert import base_convert, scale_down, scale_up
from repro.rns.poly import COEFF
from repro.rns.sampling import sample_uniform
from repro.serve import batch

#: Key generation costs 0.05-0.5 s a call, so it gets five calls, not
#: twenty (the one rung family that does).
KEYGEN_CALLS = 5


def fhe_rungs(ctx: CkksContext, rng: np.random.Generator,
              hamming_weight: int | None, calls: int) -> dict[str, float]:
    """``nt``/``backends``/``rns``/``schemes``/``ckks`` rungs at the top level."""
    chain = ctx.chain
    ev = ctx.evaluator
    n = chain.n
    top = chain.max_level
    moduli = chain.moduli_at(top)
    basis = chain.basis_at(top)
    out: dict[str, float] = {}

    def us(fn) -> float:
        return time_calls(fn, calls) * 1e6

    # nt: the batched transforms over the whole top-level residue stack.
    mat = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in moduli])
    out["nt.ntt.forward_rows_us"] = us(lambda: forward_rows(mat, moduli))
    out["nt.ntt.inverse_rows_us"] = us(lambda: inverse_rows(mat, moduli))

    # backends: registry dispatch on the basis's largest same-width group.
    kind, idx, q_col = max(
        (g for g in basis.backend_groups() if g[0] != "big"),
        key=lambda g: len(g[1]),
    )
    a, b, acc = (
        np.stack([rng.integers(0, moduli[i], n, dtype=np.uint64) for i in idx])
        for _ in range(3)
    )
    out["backends.pointwise_mul_us"] = us(
        lambda: backends.pointwise_mul(a, b, q_col, kind)
    )
    out["backends.pointwise_mul_acc_us"] = us(
        lambda: backends.pointwise_mul_acc(acc, a, b, q_col, kind)
    )

    # The keyswitch shapes: one digit extended to Q ∪ P, then P shed.
    ksk = ctx.chest.relin_key(top)
    digit = tuple(ksk.digit_groups[0])
    full = moduli + ksk.special_moduli
    dst = np.array(
        [q for q in full if backend_kind(q) == kind], dtype=np.uint64
    )
    stack = np.stack(
        [rng.integers(0, q, n, dtype=np.uint64) for q in digit]
        + [rng.integers(0, len(digit) + 1, n, dtype=np.uint64)]  # the α row
    )
    weights = np.stack(
        [rng.integers(0, int(p), stack.shape[0], dtype=np.uint64) for p in dst]
    )
    out["backends.bconv_fold_us"] = us(
        lambda: backends.bconv_fold(stack, weights, dst, max(digit), kind)
    )

    digit_poly = sample_uniform(RnsBasis(n, digit), rng, COEFF)
    out["rns.convert.base_convert_us"] = us(
        lambda: base_convert(digit_poly, full, exact=True)
    )
    full_poly = sample_uniform(RnsBasis(n, full), rng, COEFF)
    out["rns.convert.scale_down_us"] = us(
        lambda: scale_down(full_poly, ksk.special_moduli)
    )
    below = chain.basis_at(top - 1)
    grown = [q for q in moduli if not below.contains(q)]
    below_poly = sample_uniform(below, rng, COEFF)
    out["rns.convert.scale_up_us"] = us(lambda: scale_up(below_poly, grown))
    top_poly = sample_uniform(basis, rng, COEFF)
    out["rns.poly.galois_us"] = us(lambda: top_poly.galois(5))

    # schemes: level management on a real top-level ciphertext.
    values = rng.uniform(-1.0, 1.0, ctx.slots)
    fresh = ctx.encrypt(values)
    product = ev.square(fresh)
    out["schemes.rescale_us"] = us(lambda: ev.rescale(product))
    out["schemes.adjust_us"] = us(lambda: ev.adjust(fresh, top - 1))
    out["schemes.residues_top"] = float(chain.residues_at(top))
    out["schemes.log2q_top_bits"] = float(chain.log2_q_at(top))

    # ckks: encoder, encryptor, key generation.
    scale = chain.scale_at(top)
    coeffs = ctx.encoder.encode(values, scale)
    out["ckks.encoder.encode_us"] = us(lambda: ctx.encoder.encode(values, scale))
    out["ckks.encoder.decode_us"] = us(lambda: ctx.encoder.decode(coeffs, scale))
    out["ckks.encryptor.encrypt_ms"] = time_calls(
        lambda: ctx.encrypt(values), calls) * 1e3
    out["ckks.encryptor.decrypt_ms"] = time_calls(
        lambda: ctx.decrypt_real(fresh), calls) * 1e3
    keygen_calls = min(calls, KEYGEN_CALLS)
    relin, galois = [], []
    for _ in range(keygen_calls):
        chest = KeyChest(chain, rng, hamming_weight)
        t0 = time.perf_counter()
        chest.relin_key(top)
        t1 = time.perf_counter()
        chest.galois_key(top, 5)
        t2 = time.perf_counter()
        relin.append(t1 - t0)
        galois.append(t2 - t1)
    out["ckks.keys.relin_keygen_s"] = median(relin)
    out["ckks.keys.galois_keygen_s"] = median(galois)
    return out


def serve_rungs(request: batch.OpRequest, operands: list, calls: int
                ) -> dict[str, float]:
    """``serve.batch`` rungs: one request serially, then coalesced groups.

    ``request`` is a top-level ``mul`` of the workload; ``operands`` its
    pool of ``(a, b)`` pairs, cycled to fill the larger groups.
    """
    def group(size: int) -> list[batch.OpRequest]:
        return [
            batch.OpRequest(
                tenant=request.tenant, key=request.key, op=request.op,
                level=request.level, a=a, b=b,
            )
            for a, b in (operands[i % len(operands)] for i in range(size))
        ]

    serial_us = time_calls(lambda: batch.execute_serial(request), calls) * 1e6
    out = {"serve.batch.execute_serial_us": serial_us}
    for size in (2, 8, 16):
        members = group(size)
        per_req = time_calls(
            lambda: batch.execute_group(members), calls) * 1e6 / size
        out[f"serve.batch.group_b{size}_us_per_req"] = per_req
    out["serve.batch.coalesce_gain_b8"] = (
        serial_us / out["serve.batch.group_b8_us_per_req"]
    )
    return out
