#!/usr/bin/env python3
"""A complete homomorphic CKKS bootstrap, end to end, on a laptop.

Runs the textbook pipeline — ModRaise, CoeffToSlot, the sine-based
EvalMod, SlotToCoeff — entirely homomorphically (the secret key is used
only for the final check), under a BitPacker modulus chain.  Then keeps
computing on the refreshed ciphertext to prove it is a real ciphertext.

Takes about six seconds, most of it key generation: 34 ciphertext
multiplies (two degree-27 EvalMods at 17 each) plus ~50 rotations and
conjugations of real encrypted arithmetic, on a 13-level chain.  Exits 1
if the refresh keeps fewer than 10 error-free bits or the square that
follows fewer than 9, so CI can run it as a check.

Run:  python examples/full_bootstrap.py
"""

import sys

import numpy as np

from repro import CkksContext, plan_bitpacker_chain
from repro.ckks.bootstrap_pipeline import PipelineConfig, bootstrap_homomorphic

#: The ladder's floor for this pipeline, and one bit less after a multiply.
MIN_REFRESH_BITS = 10.0
MIN_SQUARE_BITS = 9.0


def main() -> int:
    config = PipelineConfig()
    chain = plan_bitpacker_chain(
        n=128,
        word_bits=28,
        level_scale_bits=35.0,
        levels=config.depth + 2,  # one spare level to compute afterwards
        base_bits=40.0,
        ks_digits=3,
    )
    ctx = CkksContext(
        chain, seed=2024, hamming_weight=config.required_hamming_weight()
    )
    print(
        f"chain: {chain.max_level + 1} levels, pipeline depth {config.depth}, "
        f"sine degree {config.evalmod.degree}"
    )

    rng = np.random.default_rng(5)
    values = rng.uniform(-0.4, 0.4, ctx.slots)

    # Exhaust the ciphertext down to level 0 (Fig. 3's downward slope).
    ct = ctx.evaluator.adjust(ctx.encrypt(values), 0)
    print(f"before: level {ct.level} (cannot rescale further)")

    refreshed = bootstrap_homomorphic(ctx, ct, config)
    precision = ctx.precision_bits(refreshed, values)
    print(
        f"after:  level {refreshed.level}, values preserved to "
        f"{precision:.1f} error-free bits"
    )

    squared = ctx.evaluator.square_rescale(refreshed)
    sq_precision = ctx.precision_bits(squared, values**2)
    print(
        f"and computation continues: x^2 on the refreshed ciphertext is "
        f"good to {sq_precision:.1f} bits"
    )
    print("no secret key was used between encryption and the final check.")
    if precision < MIN_REFRESH_BITS or sq_precision < MIN_SQUARE_BITS:
        print(
            f"FAIL: need >= {MIN_REFRESH_BITS} bits refreshed and "
            f">= {MIN_SQUARE_BITS} after the square"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
