"""Homomorphic CtS/StC tests and the full mini-bootstrap pipeline."""

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.bootstrap_pipeline import (
    PipelineConfig,
    bootstrap_homomorphic,
    mod_raise,
)
from repro.ckks.evalmod import EvalModConfig
from repro.ckks.homdft import (
    coeff_to_slot,
    decode_matrix,
    homdft_matrices,
    slot_to_coeff,
)
from repro.schemes import plan_bitpacker_chain


@pytest.fixture()
def dft_ctx():
    chain = plan_bitpacker_chain(
        n=128, word_bits=28, level_scale_bits=35.0, levels=4,
        base_bits=45.0, ks_digits=2,
    )
    return CkksContext(chain, seed=71)


class TestMatrices:
    def test_decode_matrix_matches_encoder(self, dft_ctx):
        """V·m / S must equal the encoder's decode, for random m."""
        n = dft_ctx.chain.n
        rng = np.random.default_rng(3)
        coeffs = [int(v) for v in rng.integers(-(2**20), 2**20, n)]
        v = decode_matrix(n)
        direct = v @ np.array(coeffs)
        via_encoder = dft_ctx.encoder.decode(coeffs, 1)
        assert np.max(np.abs(direct - via_encoder)) < 1e-6 * np.max(
            np.abs(direct)
        )

    def test_block_inverse_identity(self):
        mats = homdft_matrices(64)
        slots = 32
        v = decode_matrix(64)
        v1, v2 = mats.v1.matrix, mats.v2.matrix
        block = np.block([[v1, v2], [np.conj(v1), np.conj(v2)]])
        inv = np.block(
            [[mats.p1.matrix, mats.q1.matrix], [mats.p2.matrix, mats.q2.matrix]]
        )
        np.testing.assert_allclose(inv @ block, np.eye(64), atol=1e-10)
        assert v.shape == (slots, 64)


class TestCoeffToSlot:
    def test_slots_hold_coefficients(self, dft_ctx, rng):
        vals = rng.uniform(-1, 1, dft_ctx.slots) + 1j * rng.uniform(
            -1, 1, dft_ctx.slots
        )
        ct = dft_ctx.encrypt(vals)
        coeffs = np.array(dft_ctx.encoder.encode(vals, ct.scale), dtype=float)
        scale = float(ct.scale)
        halves = coeff_to_slot(dft_ctx.evaluator, ct)
        assert halves.batch == (2,)
        first, second = halves.unstack()
        got1 = dft_ctx.decrypt(first)
        got2 = dft_ctx.decrypt(second)
        want1 = coeffs[: dft_ctx.slots] / scale
        want2 = coeffs[dft_ctx.slots :] / scale
        assert np.max(np.abs(got1 - want1)) < 2.0**-8
        assert np.max(np.abs(got2 - want2)) < 2.0**-8

    def test_round_trip_cts_stc(self, dft_ctx, rng):
        """StC(CtS(x)) must reproduce the original slot values."""
        vals = rng.uniform(-1, 1, dft_ctx.slots)
        ct = dft_ctx.encrypt(vals)
        back = slot_to_coeff(dft_ctx.evaluator, coeff_to_slot(dft_ctx.evaluator, ct))
        assert back.level == ct.level - 2
        assert dft_ctx.precision_bits(back, vals) > 8


class TestModRaise:
    def test_decrypts_to_message_plus_q0_multiples(self, rng):
        chain = plan_bitpacker_chain(
            n=128, word_bits=28, level_scale_bits=35.0, levels=4,
            base_bits=45.0, ks_digits=2,
        )
        ctx = CkksContext(chain, seed=73, hamming_weight=4)
        vals = rng.uniform(-0.5, 0.5, ctx.slots)
        ct = ctx.evaluator.adjust(ctx.encrypt(vals), 0)
        raised = mod_raise(ctx, ct, chain.max_level)
        assert raised.level == chain.max_level
        # Coefficients of the raised decryption are m + q0*I with small I.
        q0 = chain.q_product_at(0)
        m_plus = ctx.decryptor.decrypt_to_plaintext(raised).poly.to_int_coeffs()
        m_ref = ctx.decryptor.decrypt_to_plaintext(ct).poly.to_int_coeffs()
        i_poly = [round((a - b) / q0) for a, b in zip(m_plus, m_ref)]
        residual = max(
            abs((a - b) - i * q0)
            for a, b, i in zip(m_plus, m_ref, i_poly)
        )
        assert residual == 0
        assert max(abs(i) for i in i_poly) <= 3  # (h+1)/2 + slack for h=4


class TestFullPipeline:
    def test_bootstrap_refreshes_level_and_values(self, rng):
        """The flagship integration: a genuine homomorphic bootstrap."""
        config = PipelineConfig(evalmod=EvalModConfig(k_range=2, degree=27))
        chain = plan_bitpacker_chain(
            n=128, word_bits=28, level_scale_bits=35.0,
            levels=config.depth + 1, base_bits=40.0, ks_digits=3,
        )
        ctx = CkksContext(chain, seed=79, hamming_weight=4)
        vals = rng.uniform(-0.4, 0.4, ctx.slots)
        bottom = ctx.evaluator.adjust(ctx.encrypt(vals), 0)
        refreshed = bootstrap_homomorphic(ctx, bottom, config)
        # A level-0 ciphertext came back usable above level 0 — without
        # ever touching the secret key.  (A deployment sizes the chain
        # with extra levels above the pipeline's depth; this demo chain
        # is sized exactly, so one level remains.)  Exactly ``depth``
        # levels are spent: EvalMod's baby-step/giant-step split is a
        # level shallower than the budget and lands on it anyway.
        assert refreshed.level == chain.max_level - config.depth
        # The ladder's own floor for this pipeline (bootstrap_bp28).
        assert ctx.precision_bits(refreshed, vals) >= 10.0
        # And it really is a working ciphertext: keep computing on it.
        squared = ctx.evaluator.square_rescale(refreshed)
        assert ctx.precision_bits(squared, vals**2) >= 9.0

    def test_default_depth(self):
        assert PipelineConfig().depth == 10

    def test_depth_guard(self, rng):
        chain = plan_bitpacker_chain(
            n=128, word_bits=28, level_scale_bits=35.0, levels=4,
            base_bits=40.0, ks_digits=2,
        )
        ctx = CkksContext(chain, seed=83, hamming_weight=4)
        ct = ctx.evaluator.adjust(ctx.encrypt(np.zeros(ctx.slots)), 0)
        with pytest.raises(Exception):
            bootstrap_homomorphic(ctx, ct)
