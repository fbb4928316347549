"""End-to-end integration: full programs through the whole stack."""

import hashlib

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.bootstrap import BS26, FunctionalBootstrapper
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain


@pytest.mark.parametrize("scheme_planner", [plan_bitpacker_chain, plan_rns_ckks_chain])
class TestDeepPrograms:
    def test_mixed_scale_chain(self, scheme_planner, rng):
        """Per-level target scales like a real program (app + bootstrap
        stages): the planners must honor the full Fig. 8 map."""
        targets = [30.0, 30.0, 35.0, 35.0, 40.0]
        chain = scheme_planner(
            n=256, word_bits=28, level_scale_bits=targets, base_bits=45.0,
            ks_digits=2,
        )
        ctx = CkksContext(chain, seed=11)
        vals = rng.uniform(-1, 1, ctx.slots)
        ct = ctx.encrypt(vals)
        ref = vals
        for _ in range(2):
            ct = ctx.evaluator.square_rescale(ct)
            ref = ref * ref
        assert ctx.precision_bits(ct, ref) > 10

    def test_bootstrap_then_continue(self, scheme_planner, rng):
        chain = scheme_planner(
            n=256, word_bits=28, level_scale_bits=30.0, levels=3,
            base_bits=40.0, ks_digits=2,
        )
        ctx = CkksContext(chain, seed=13)
        boot = FunctionalBootstrapper(ctx, BS26)
        vals = rng.uniform(-0.9, 0.9, ctx.slots)
        ct = ctx.encrypt(vals)
        ref = vals
        for _round in range(2):  # two full level descents with a refresh
            while ct.level > 0:
                ct = ctx.evaluator.square_rescale(ct)
                ref = ref * ref
            ct = boot.bootstrap(ct)
        assert ctx.precision_bits(ct, ref) > 8

    def test_rotation_heavy_program(self, scheme_planner, rng):
        """A matvec-style program: multiply, rotate-and-add, adjust."""
        chain = scheme_planner(
            n=256, word_bits=28, level_scale_bits=30.0, levels=3,
            base_bits=40.0, ks_digits=2,
        )
        ctx = CkksContext(chain, seed=17)
        ev = ctx.evaluator
        vals = rng.uniform(-1, 1, ctx.slots)
        weights = rng.uniform(-1, 1, ctx.slots)
        ct = ev.rescale(ev.mul_plain(ctx.encrypt(vals), weights))
        ref = vals * weights
        acc, acc_ref = ct, ref
        for shift in (1, 2, 4):
            acc = ev.add(acc, ev.rotate(acc, shift))
            acc_ref = acc_ref + np.roll(acc_ref, -shift)
        # Combine with a freshly adjusted ciphertext (level realignment).
        extra = ev.adjust(ctx.encrypt(vals), acc.level)
        acc = ev.add(acc, extra)
        acc_ref = acc_ref + vals
        assert ctx.precision_bits(acc, acc_ref) > 9


class TestSchemeAgreementDeep:
    def test_identical_program_identical_results(self, rng):
        """The same deep program under both schemes agrees to far below
        the application's precision (Sec. 6.5)."""
        results = []
        for planner in (plan_bitpacker_chain, plan_rns_ckks_chain):
            chain = planner(
                n=256, word_bits=28, level_scale_bits=32.0, levels=4,
                base_bits=45.0, ks_digits=2,
            )
            ctx = CkksContext(chain, seed=23)
            local_rng = np.random.default_rng(99)
            vals = local_rng.uniform(-1, 1, ctx.slots)
            ev = ctx.evaluator
            x = ctx.encrypt(vals)
            y = ev.square_rescale(x)  # x^2
            y = ev.add(y, ev.adjust(x, y.level))  # x^2 + x
            y = ev.rescale(ev.mul_plain(y, 0.25))  # 0.25(x^2+x)
            y = ev.add(y, ev.rotate(y, 1))  # + rotation
            z = ev.square_rescale(y)
            results.append(ctx.decrypt_real(z))
        assert np.max(np.abs(results[0] - results[1])) < 2.0**-12

    def test_residue_counts_differ_results_do_not(self, rng):
        bp = plan_bitpacker_chain(
            n=256, word_bits=28, level_scale_bits=22.0, levels=6,
            base_bits=40.0, ks_digits=2,
        )
        rns = plan_rns_ckks_chain(
            n=256, word_bits=28, level_scale_bits=22.0, levels=6,
            base_bits=40.0, ks_digits=2,
        )
        assert bp.residues_at(6) < rns.residues_at(6)
        vals = np.linspace(-1, 1, 128)
        outs = []
        for chain in (bp, rns):
            ctx = CkksContext(chain, seed=31)
            ct = ctx.evaluator.square_rescale(ctx.encrypt(vals))
            outs.append(ctx.decrypt_real(ct))
        assert np.max(np.abs(outs[0] - outs[1])) < 2.0**-8


def _chain_digests(chain, seed=12, rotation=3):
    """encrypt → multiply → rotate → rescale → decrypt, hashed.

    Returns ``(ciphertext digest, float64 decrypt digest, precision
    bits)``: residues are numbers, not approximations, so a kernel or
    storage rewrite must reproduce every ciphertext bit.
    """
    ctx = CkksContext(chain, seed=seed)
    vals = np.random.default_rng(seed).uniform(-1, 1, ctx.slots)
    ev = ctx.evaluator
    x = ctx.encrypt(vals)
    out = ev.rescale(ev.rotate(ev.multiply(x, x), rotation))
    digest = hashlib.sha256()
    for part in (out.c0, out.c1):
        for row in part.to_coeff().rows:
            digest.update(np.ascontiguousarray(row).tobytes())
    decrypted = ctx.decrypt_real(out)
    ref = np.roll(vals * vals, -rotation)
    return (
        digest.hexdigest(),
        hashlib.sha256(decrypted.tobytes()).hexdigest(),
        ctx.precision_bits(out, ref),
    )


class TestWideChainBitExact:
    """The wide (2^31..2^61) path end to end, pinned to the word.

    Both digests pin the encoder's complex128 rounding as well as the
    kernels: at a 55-bit scale, encode's float64 error reaches the units
    of the coefficients it rounds.
    """

    CT_DIGEST = "111e03817a5ee209c9596e6b161a2031f661d17c8eb700d44679d64f357e58d2"
    DECRYPT_DIGEST = (
        "1bea140dc66494f51d390a69d806d6ae46023525d78b2dd815a07f6cf42163f6"
    )

    def test_encrypt_multiply_rotate_rescale_decrypt_digest(self):
        chain = plan_rns_ckks_chain(
            n=256, word_bits=60, level_scale_bits=55.0, levels=3,
            base_bits=58.0, ks_digits=2,
        )
        widths = [q.bit_length() for q in chain.moduli_at(chain.max_level)]
        assert widths == [58, 56, 55, 56]  # every row on the wide path
        ct_digest, decrypt_digest, precision = _chain_digests(chain)
        assert ct_digest == self.CT_DIGEST
        assert precision > 40
        assert decrypt_digest == self.DECRYPT_DIGEST


class TestNarrowAndMixedChainsBitExact:
    """The same program on a BitPacker-28 chain (every row narrow) and
    on a word-36 chain whose narrow terminal prime shares a basis with
    36-bit words — the one layout where "a basis has one kind" changes
    which kernel a row runs on.  At a 30-bit scale, encode's float64
    error stays far below the units it rounds to, so the ciphertext
    digests pin the kernels alone; the decrypt digests also pin the
    decoder's complex128 rounding.
    """

    @pytest.mark.parametrize(
        "word_bits,widths,ct_digest,decrypt_digest",
        [
            pytest.param(
                28, [28, 28, 28, 28, 19],
                "8abf82a314dc07b5d0b56d231421a2b36c73d486478d9398cb672a8dfe4e86c7",
                "6e71c8f14ef67a9d4e102993903a10946febca2b18022e41f6039d491b28678e",
                id="narrow-bp28",
            ),
            pytest.param(
                36, [36, 36, 36, 23],
                "0eb7815a1a12e4ed38cf87283741faae355d3d872419428637f60fcb3869844d",
                "02e4cb96e49abfe5da3175e3036c423aa12fc89ded307006a2531a1ee2bb8523",
                id="mixed-bp36",
            ),
        ],
    )
    def test_encrypt_multiply_rotate_rescale_decrypt_digest(
        self, word_bits, widths, ct_digest, decrypt_digest
    ):
        chain = plan_bitpacker_chain(
            n=256, word_bits=word_bits, level_scale_bits=30.0, levels=3,
            base_bits=40.0, ks_digits=2,
        )
        top = chain.moduli_at(chain.max_level)
        assert [q.bit_length() for q in top] == widths
        got_ct, got_decrypt, precision = _chain_digests(chain)
        assert got_ct == ct_digest
        assert precision > 15
        assert got_decrypt == decrypt_digest
