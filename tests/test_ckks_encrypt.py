"""Unit tests for encryption/decryption and key material."""

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.bootstrap_pipeline import PipelineConfig
from repro.ckks.keys import SecretKey, galois_int_coeffs, split_into_digits
from repro.nt import crt
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from tests.conftest import make_values


class TestEncryptDecrypt:
    def test_public_key_round_trip(self, ctx, rng):
        vals = make_values(ctx, rng)
        got = ctx.decrypt_real(ctx.encrypt(vals))
        assert np.max(np.abs(got - vals)) < 2.0**-12

    def test_symmetric_round_trip(self, ctx, rng):
        vals = make_values(ctx, rng)
        got = ctx.decrypt_real(ctx.encryptor.encrypt_symmetric(vals))
        assert np.max(np.abs(got - vals)) < 2.0**-12

    def test_fresh_precision_tracks_scale(self, ctx, rng):
        """Fresh noise is a few bits; precision ~ scale - 10ish bits."""
        vals = make_values(ctx, rng)
        prec = ctx.precision_bits(ctx.encrypt(vals), vals)
        scale_bits = float(np.log2(float(ctx.chain.scale_at(ctx.chain.max_level))))
        assert scale_bits - 18 < prec < scale_bits

    def test_encrypt_at_lower_level(self, ctx, rng):
        vals = make_values(ctx, rng)
        ct = ctx.encrypt(vals, level=1)
        assert ct.level == 1
        assert ct.moduli == ctx.chain.moduli_at(1)
        assert ctx.precision_bits(ct, vals) > 10

    def test_ciphertexts_are_randomized(self, ctx, rng):
        vals = make_values(ctx, rng)
        a = ctx.encrypt(vals)
        b = ctx.encrypt(vals)
        assert [int(v) for v in a.c1.rows[0]] != [int(v) for v in b.c1.rows[0]]

    def test_decrypt_complex(self, ctx, rng):
        vals = rng.uniform(-1, 1, ctx.slots) + 1j * rng.uniform(-1, 1, ctx.slots)
        got = ctx.decrypt(ctx.encrypt(vals))
        assert np.max(np.abs(got - vals)) < 2.0**-12

    def test_wrong_key_fails_to_decrypt(self, bp_chain, rng):
        ctx_a = CkksContext(bp_chain, seed=1)
        ctx_b = CkksContext(bp_chain, seed=2)
        vals = rng.uniform(-1, 1, ctx_a.slots)
        ct = ctx_a.encrypt(vals)
        garbage = ctx_b.decrypt_real(ct)
        assert np.max(np.abs(garbage - vals)) > 1.0


#: The ladder's three FHE chains (``benchmarks/ladder/fhe.py``).
LADDER_CHAINS = {
    "logreg_bp28": lambda: plan_bitpacker_chain(
        n=4096, word_bits=28, level_scale_bits=35.0, levels=6,
        base_bits=60.0, ks_digits=2,
    ),
    "logreg_rns60": lambda: plan_rns_ckks_chain(
        n=4096, word_bits=60, level_scale_bits=35.0, levels=6,
        base_bits=60.0, ks_digits=2,
    ),
    "bootstrap_bp28": lambda: plan_bitpacker_chain(
        n=128, word_bits=28, level_scale_bits=35.0,
        levels=PipelineConfig().depth + 2,
        base_bits=40.0, ks_digits=3,
    ),
}


class TestInt64Decode:
    """Decryption reconstructs coefficients as int64 and decodes them
    with one cast; the Python-int CRT is the oracle and the fallback."""

    @pytest.mark.parametrize("name", LADDER_CHAINS)
    def test_every_level_decodes_like_the_oracle(self, name, rng):
        chain = LADDER_CHAINS[name]()
        ctx = CkksContext(chain, seed=7)
        for level in range(chain.max_level + 1):
            ct = ctx.encryptor.encrypt_symmetric(make_values(ctx, rng), level=level)
            poly = ctx.decryptor.decrypt_to_plaintext(ct).poly
            oracle = poly.to_int_coeffs()
            fast = crt.centered_int64(poly.mat, poly.basis.moduli)
            assert fast is not None and fast.tolist() == oracle
            want = ctx.encoder.decode(oracle, ct.scale)
            assert np.array_equal(ctx.decrypt(ct), want)

    def test_a_product_at_scale_squared_falls_back(self, rng, monkeypatch):
        """An un-rescaled product at a 40-bit scale holds coefficients
        near 2^80: the int64 path declines and the oracle decodes."""
        chain = plan_rns_ckks_chain(
            n=256, word_bits=60, level_scale_bits=40.0, levels=2,
            base_bits=60.0, ks_digits=2,
        )
        ctx = CkksContext(chain, seed=7)
        vals = make_values(ctx, rng)
        product = ctx.evaluator.square(ctx.encrypt(vals))
        poly = ctx.decryptor.decrypt_to_plaintext(product).poly
        oracle = poly.to_int_coeffs()
        assert max(abs(c) for c in oracle) >= 1 << 63
        assert crt.centered_int64(poly.mat, poly.basis.moduli) is None
        got = ctx.decrypt_real(product)
        assert np.array_equal(
            got, np.real(ctx.encoder.decode(oracle, product.scale))
        )
        assert np.max(np.abs(got - vals * vals)) < 2.0**-12


class TestSecretKey:
    def test_ternary_coefficients(self, rng):
        sk = SecretKey.generate(128, rng)
        assert set(sk.coeffs) <= {-1, 0, 1}

    def test_hamming_weight(self, rng):
        sk = SecretKey.generate(128, rng, hamming_weight=32)
        assert sum(1 for c in sk.coeffs if c != 0) == 32

    def test_lift_cache(self, bp_chain, rng):
        sk = SecretKey.generate(bp_chain.n, rng)
        basis = bp_chain.basis_at(0)
        assert sk.lift(basis) is sk.lift(basis)

    def test_galois_matches_helper(self, rng):
        sk = SecretKey.generate(64, rng)
        g5 = sk.galois(5)
        assert g5.coeffs == galois_int_coeffs(sk.coeffs, 5, 64)


class TestDigitSplit:
    def test_partition_covers_all(self):
        moduli = tuple(range(101, 118, 2))
        digits = split_into_digits(moduli, 3)
        flat = [q for group in digits for q in group]
        assert flat == list(moduli)
        assert len(digits) == 3

    def test_more_digits_than_moduli(self):
        digits = split_into_digits((3, 5), 4)
        assert digits == ((3,), (5,))

    def test_single_digit(self):
        moduli = (3, 5, 7)
        assert split_into_digits(moduli, 1) == (moduli,)


class TestKeyChest:
    def test_relin_key_cached(self, bp_ctx):
        level = bp_ctx.chain.max_level
        assert bp_ctx.chest.relin_key(level) is bp_ctx.chest.relin_key(level)

    def test_galois_key_cached_per_element(self, bp_ctx):
        level = bp_ctx.chain.max_level
        k5 = bp_ctx.chest.galois_key(level, 5)
        k25 = bp_ctx.chest.galois_key(level, 25)
        assert k5 is not k25
        assert bp_ctx.chest.galois_key(level, 5) is k5

    def test_ksk_structure(self, bp_ctx):
        level = bp_ctx.chain.max_level
        ksk = bp_ctx.chest.relin_key(level)
        assert ksk.digits == len(ksk.rows)
        flat = [q for g in ksk.digit_groups for q in g]
        assert tuple(flat) == bp_ctx.chain.moduli_at(level)
        full_size = len(flat) + len(ksk.special_moduli)
        for b_row, a_row in ksk.rows:
            assert b_row.basis.size == full_size
            assert a_row.basis.size == full_size
