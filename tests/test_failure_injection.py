"""Failure injection: corrupted/mismatched inputs fail loudly or safely."""

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.ciphertext import Ciphertext
from repro.errors import ReproError, ScaleMismatchError
from repro.nt import modmath
from repro.schemes import plan_bitpacker_chain
from tests.conftest import make_values


class TestCorruption:
    def test_flipped_residue_corrupts_decryption(self, bp_ctx, rng):
        """Tampering with one residue row must destroy the plaintext
        (no silent partial decryption) but never crash."""
        vals = make_values(bp_ctx, rng)
        ct = bp_ctx.encrypt(vals)
        bad_row = ct.c0.rows[0].copy()
        q = ct.c0.basis.moduli[0]
        bad_row[0] = (int(bad_row[0]) + q // 2) % q
        rows = [bad_row] + [r.copy() for r in ct.c0.rows[1:]]
        from repro.rns.poly import RnsPolynomial

        tampered = Ciphertext(
            c0=RnsPolynomial(ct.c0.basis, rows, ct.c0.domain),
            c1=ct.c1,
            level=ct.level,
            scale=ct.scale,
        )
        got = bp_ctx.decrypt_real(tampered)
        assert np.max(np.abs(got - vals)) > 1.0

    def test_cross_chain_ciphertext_rejected(self, bp_ctx, rng):
        """A ciphertext from a different chain must be rejected by level
        management, not silently mis-rescaled."""
        other_chain = plan_bitpacker_chain(
            n=bp_ctx.chain.n, word_bits=26, level_scale_bits=25.0, levels=4,
            base_bits=40.0, ks_digits=2,
        )
        other = CkksContext(other_chain, seed=77)
        vals = rng.uniform(-1, 1, other.slots)
        foreign = other.encrypt(vals)
        with pytest.raises(ScaleMismatchError):
            bp_ctx.chain.rescale(foreign)
        with pytest.raises(ScaleMismatchError):
            bp_ctx.chain.adjust(foreign, 0)

    def test_all_errors_share_base_class(self):
        from repro import errors

        for name in (
            "ParameterError",
            "PlanningError",
            "LevelExhaustedError",
            "ScaleMismatchError",
            "SimulationError",
        ):
            assert issubclass(getattr(errors, name), ReproError)


class TestNumericEdges:
    def test_encrypt_zeros(self, ctx):
        ct = ctx.encrypt(np.zeros(ctx.slots))
        got = ctx.decrypt_real(ct)
        assert np.max(np.abs(got)) < 2.0**-12

    def test_encrypt_extremes(self, ctx):
        vals = np.full(ctx.slots, 1.0)
        vals[::2] = -1.0
        assert ctx.precision_bits(ctx.encrypt(vals), vals) > 12

    def test_square_of_zero(self, ctx):
        ct = ctx.evaluator.square_rescale(ctx.encrypt(np.zeros(ctx.slots)))
        assert np.max(np.abs(ctx.decrypt_real(ct))) < 2.0**-10

    def test_large_magnitude_values(self, ctx, rng):
        """Values well above 1 still round-trip (headroom below Q)."""
        vals = rng.uniform(-100, 100, ctx.slots)
        got = ctx.decrypt_real(ctx.encrypt(vals))
        assert np.max(np.abs(got - vals)) < 2.0**-5

    def test_scalar_mul_by_zero(self, ctx, rng):
        vals = make_values(ctx, rng)
        ct = ctx.evaluator.mul_integer(ctx.encrypt(vals), 0)
        assert np.max(np.abs(ctx.decrypt_real(ct))) < 2.0**-10


class TestModmathEdges:
    def test_modulus_of_two(self):
        a = modmath.as_mod_array([0, 1, 2, 3], 3)
        assert [int(v) for v in modmath.mod_add(a, a, 3)] == [0, 2, 1, 0]

    def test_tiny_modulus_rejected(self):
        import pytest

        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            modmath.backend_kind(1)


class TestWordBound:
    """A chain plans at any word size, but residues are one uint64 word:
    a context over a modulus at or above 2^61 is refused up front."""

    def test_62_bit_chain_plans_but_builds_no_context(self):
        import pytest

        from repro.errors import ParameterError
        from repro.schemes import plan_chain

        chain = plan_chain(
            "rns-ckks", n=64, word_bits=64, level_scale_bits=62.0,
            levels=4, base_bits=62.0, ks_digits=2,
        )
        widest = max(chain.all_moduli)
        assert widest >= 1 << 61
        with pytest.raises(ParameterError, match="outside"):
            CkksContext(chain, seed=1)
