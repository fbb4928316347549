"""Runtime sanitizer tests: violations raise when enabled, the disabled
path does no per-op work, and the env switch parses conservatively."""

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.ckks.ciphertext import Ciphertext
from repro.errors import InvariantViolation
from repro.nt import ntt as ntt_mod
from repro.nt.ntt import forward_rows, inverse_rows
from repro.nt.primes import ntt_friendly_primes_below
from repro.obs import core
from repro.rns.basis import RnsBasis
from repro.rns.convert import base_convert
from repro.rns.poly import COEFF, NTT, RnsPolynomial

N = 8
MODULI = (97, 113)  # NTT-friendly for n=8 (p ≡ 1 mod 16)


@pytest.fixture
def basis():
    return RnsBasis(N, MODULI)


@pytest.fixture
def sanitizer():
    """Clean on/off state around every test, whatever it does inside."""
    sanitize.disable()
    yield sanitize
    sanitize.disable()


def _zeros(basis, domain=COEFF):
    return RnsPolynomial(basis, np.zeros((basis.size, N), dtype=np.uint64), domain)


def corrupt_rows():
    """Residue rows where one value sits at its modulus (unreduced)."""
    rows = [np.arange(N, dtype=np.uint64) for _ in MODULI]
    rows[0][3] = np.uint64(MODULI[0])
    return rows


class TestResidueChecks:
    def test_corrupt_residue_raises_when_enabled(self, basis, sanitizer):
        sanitizer.enable()
        with pytest.raises(InvariantViolation, match="97"):
            RnsPolynomial(basis, corrupt_rows(), COEFF)
        assert sanitizer.STATS["violations"] == 1

    def test_corrupt_residue_silent_when_disabled(self, basis, sanitizer):
        poly = RnsPolynomial(basis, corrupt_rows(), COEFF)
        assert poly.rows[0][3] == MODULI[0]
        assert sanitizer.STATS["checks"] == 0

    def test_wrong_dtype_row_raises(self, sanitizer):
        sanitizer.enable()
        row = np.arange(N, dtype=np.int64)
        with pytest.raises(InvariantViolation, match="uint64"):
            sanitizer.check_residue_matrix(row[None], (97,), "fixture")

    def test_valid_constructions_count_checks(self, basis, sanitizer):
        sanitizer.enable()
        _zeros(basis)
        assert sanitizer.STATS["checks"] > 0
        assert sanitizer.STATS["violations"] == 0


class TestHookSites:
    def test_base_convert_entry_check(self, basis, sanitizer):
        poly = RnsPolynomial.from_int_coeffs(basis, list(range(N)))
        poly.rows[0][0] = np.uint64(MODULI[0])  # corrupt after the fact
        sanitizer.enable()
        with pytest.raises(InvariantViolation, match="base_convert input"):
            base_convert(poly, [193])

    def test_forward_rows_rejects_unreduced_matrix(self, sanitizer):
        sanitizer.enable()
        mat = np.full((1, N), MODULI[0], dtype=np.uint64)
        with pytest.raises(InvariantViolation, match="unreduced"):
            forward_rows(mat, (MODULI[0],))

    def test_stacked_matrices_are_checked_member_by_member(self, sanitizer):
        """An ``(m, k, n)`` stack of siblings is held to the same rule as
        one matrix: the unreduced residue is found wherever it sits."""
        sanitizer.enable()
        stack = np.zeros((3, len(MODULI), N), dtype=np.uint64)
        forward_rows(stack, MODULI)
        assert sanitizer.STATS["checks"] >= 2  # input and output
        assert sanitizer.STATS["violations"] == 0
        stack[2, 1, 5] = MODULI[1]
        with pytest.raises(InvariantViolation, match=f"modulus {MODULI[1]}"):
            forward_rows(stack, MODULI)
        with pytest.raises(InvariantViolation, match="one per modulus"):
            sanitizer.check_residue_matrix(stack[:, :1], MODULI, "fixture")

    @pytest.mark.parametrize(
        "transform,label",
        [(forward_rows, "forward_rows output"), (inverse_rows, "inverse_rows output")],
    )
    def test_lazy_value_escaping_the_stage_loop_is_caught_at_the_kernel(
        self, sanitizer, monkeypatch, transform, label
    ):
        """Both NTT kernels end on one fold to ``[0, q)`` by the
        context's ``_q`` (at this n, the four-step kernel's); with it
        patched away, the unreduced output is reported at the transform
        that produced it."""
        _final_fold_escapes(sanitizer, monkeypatch, transform, label, MODULI, N)

    @pytest.mark.parametrize(
        "transform,label",
        [(forward_rows, "forward_rows output"), (inverse_rows, "inverse_rows output")],
    )
    def test_lazy_value_escaping_above_the_four_step_gate_is_caught(
        self, sanitizer, monkeypatch, transform, label
    ):
        """The same, where the stage loop runs (n = 2048)."""
        n = 2048
        moduli = tuple(islice(ntt_friendly_primes_below(1 << 28, n), 2))
        assert not ntt_mod.ntt_rows_context(moduli, n)._four_step
        _final_fold_escapes(sanitizer, monkeypatch, transform, label, moduli, n)

    def test_matrix_row_count_mismatch(self, sanitizer):
        sanitizer.enable()
        mat = np.zeros((1, N), dtype=np.uint64)
        with pytest.raises(InvariantViolation, match="rows"):
            sanitizer.check_residue_matrix(mat, MODULI, "fixture")


def _final_fold_escapes(sanitizer, monkeypatch, transform, label, moduli, n):
    ctx = ntt_mod.ntt_rows_context(moduli, n)
    real_fold = ntt_mod.modmath.lazy_fold

    def no_final_fold(x, m, out=None):
        return x if m is ctx._q else real_fold(x, m, out=out)

    monkeypatch.setattr(ntt_mod.modmath, "lazy_fold", no_final_fold)
    mat = np.stack([np.full(n, q - 1, dtype=np.uint64) for q in moduli])
    sanitizer.enable()
    with pytest.raises(InvariantViolation, match=label):
        transform(mat, moduli)


class TestCiphertextChecks:
    def _ct(self, c0, c1, level=1, scale=Fraction(2**30)):
        return Ciphertext(c0=c0, c1=c1, level=level, scale=scale)

    def test_mixed_domain_pair_raises_only_when_enabled(self, basis, sanitizer):
        c0 = _zeros(basis)
        c1 = _zeros(basis, NTT)
        self._ct(c0, c1)  # disabled: nothing enforces the pairing
        sanitizer.enable()
        with pytest.raises(InvariantViolation, match="domain"):
            self._ct(c0, c1)

    def test_basis_mismatch_raises(self, basis, sanitizer):
        sanitizer.enable()
        other = RnsBasis(N, (97, 193))
        c0 = _zeros(basis, NTT)
        c1 = _zeros(other, NTT)
        with pytest.raises(InvariantViolation, match="basis"):
            self._ct(c0, c1)

    def test_negative_level_raises(self, basis, sanitizer):
        sanitizer.enable()
        z = _zeros(basis, NTT)
        with pytest.raises(InvariantViolation, match="level"):
            self._ct(z, z, level=-1)

    def test_nonpositive_scale_raises(self, basis, sanitizer):
        sanitizer.enable()
        z = _zeros(basis, NTT)
        with pytest.raises(InvariantViolation, match="scale"):
            self._ct(z, z, scale=Fraction(0))

    def test_well_formed_ciphertext_passes(self, basis, sanitizer):
        sanitizer.enable()
        z = _zeros(basis, NTT)
        ct = self._ct(z, z)
        assert ct.level == 1
        assert sanitizer.STATS["violations"] == 0


class TestDisabledCost:
    def test_disabled_mode_runs_zero_checks(self, basis, sanitizer):
        poly = RnsPolynomial.from_int_coeffs(basis, list(range(N)))
        prod = poly.poly_mul(poly)
        base_convert(prod.to_coeff(), [193])
        z = _zeros(basis, NTT)
        Ciphertext(c0=z, c1=z, level=0, scale=Fraction(2**30))
        assert sanitizer.STATS == {"checks": 0, "violations": 0}

    def test_enable_disable_roundtrip(self, sanitizer):
        assert core.checker() is None
        sanitizer.enable()
        assert core.checker() is sanitizer
        sanitizer.disable()
        assert core.checker() is None


class TestEnvSwitch:
    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", "anything"])
    def test_truthy(self, value):
        assert sanitize._env_active(value)

    @pytest.mark.parametrize("value", [None, "", "0", "false", "no", "off", "OFF"])
    def test_falsy(self, value):
        assert not sanitize._env_active(value)
