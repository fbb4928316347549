"""The domain-aware evaluator: exactness and transform counts.

Every op returns its polynomials in the domain it computed them in
(DESIGN.md Sec. 6).  That is a scheduling change only — each rewrite is
exact arithmetic in ``Z_q`` — so three things are pinned here:

1. **Differential**: random op sequences decrypt to *the same integer
   coefficients* as an eager reference that forces coefficient form
   after every op and relinearizes the way the evaluator used to (every
   digit row transformed, nothing folded into the mod-down).  The
   reference lives in this file, not in ``src/``.
2. **Structural**: exact ``kernel.ntt.*`` call and element counts for
   ``mul_plain``, ``multiply`` and ``bsgs_sums`` — the guards that keep
   a "transform it back to be safe" from creeping in again.
3. **Scalar plaintexts**: the constant-polynomial shortcut equals the
   encoder path bit for bit, and only real scalars take it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.ckks import CkksContext
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.linalg import PlainBlock, PlainMatrix, bsgs_sums
from repro.obs import core as obs
from repro.rns.convert import scale_up
from repro.rns.poly import COEFF, NTT
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain

N = 64
MATRIX_DIM = 4


# ----------------------------------------------------------------------
# The eager reference
# ----------------------------------------------------------------------
class EagerEvaluator:
    """The pre-domain-rule evaluator, rebuilt on top of the new one.

    Every result is forced to coefficient form; scalar plaintexts go
    through the encoder as a full slot vector; ``multiply``/``square``
    keyswitch a coefficient-form ``d2`` (so every digit row takes the
    forward transform) and add ``d0``/``d1`` after their own inverse
    transforms instead of folding them into the mod-down; rotations
    permute first and decompose second, one at a time (nothing hoisted);
    a BSGS inner sum is products added one by one.
    """

    def __init__(self, ctx: CkksContext):
        self.ev = ctx.evaluator
        self.chain, self.encoder = self.ev.chain, self.ev.encoder
        self.slots = ctx.slots

    def _vector(self, values):
        if np.isscalar(values):
            return np.full(self.slots, values)
        return values

    def add(self, a, b):
        return self.ev.add(a.to_coeff(), b.to_coeff())

    def sub(self, a, b):
        return self.ev.sub(a.to_coeff(), b.to_coeff())

    def add_plain(self, ct, values):
        return self.ev.add_plain(ct.to_coeff(), self._vector(values))

    def sub_plain(self, ct, values):
        return self.ev.sub_plain(ct.to_coeff(), self._vector(values))

    def mul_plain(self, ct, values, scale=None):
        return self.ev.mul_plain(ct.to_coeff(), self._vector(values), scale).to_coeff()

    def _relinearized(self, d0, d1, d2, level, scale):
        k0, k1 = self.ev._keyswitch(d2.to_coeff(), self.ev.chest.relin_key(level))
        return Ciphertext(
            c0=d0.to_coeff().add(k0), c1=d1.to_coeff().add(k1),
            level=level, scale=scale,
        )

    def multiply(self, a, b):
        a0, a1, b0, b1 = (p.to_ntt() for p in (a.c0, a.c1, b.c0, b.c1))
        d1 = a0.pointwise_mul(b1).add(a1.pointwise_mul(b0))
        return self._relinearized(
            a0.pointwise_mul(b0), d1, a1.pointwise_mul(b1),
            a.level, a.scale * b.scale,
        )

    def square(self, ct):
        return self.multiply(ct, ct)

    def mul_encoded(self, ct, plain):
        plain = Plaintext(plain.poly.to_coeff(), plain.scale, plain.level)
        return self.ev.mul_encoded(ct.to_coeff(), plain).to_coeff()

    def mul_encoded_sum(self, pairs):
        acc = None
        for ct, plain in pairs:
            term = self.mul_encoded(ct, plain)
            acc = term if acc is None else self.add(acc, term)
        return acc

    def rotate_sum(self, terms):
        """The evaluator's own, on coefficient-form lifted terms: its
        one rounding per sum is not what separate rotations compute, so
        ``test_ckks_linear_plan`` holds it to them within a bound."""
        terms = [(steps, ct.to_coeff()) for steps, ct in terms]
        return self.ev.rotate_sum(terms).to_coeff()

    def _galois(self, ct, g):
        """The textbook rotation: permute both polynomials in coefficient
        form, *then* decompose and switch the permuted ``c1``."""
        c0, c1 = ct.c0.to_coeff().galois(g), ct.c1.to_coeff().galois(g)
        k0, k1 = self.ev._keyswitch(c1, self.ev.chest.galois_key(ct.level, g))
        return ct.with_polys(c0.add(k0), k1)

    def rotate(self, ct, steps):
        steps %= self.slots
        return self._galois(ct, pow(5, steps, 2 * self.chain.n)) if steps else ct

    def rotate_lifted(self, ct, steps):
        """Each step's ``P``-lifted accumulators the textbook way: both
        polynomials permuted in coefficient form, the permuted ``c1``
        decomposed and switched on its own onto ``P·c0(X^g)``."""
        specials = self.chain.special_moduli
        out = []
        for steps_ in steps:
            g = pow(5, steps_ % self.slots, 2 * self.chain.n)
            c0, c1 = ct.c0.to_coeff().galois(g), ct.c1.to_coeff().galois(g)
            lifted = scale_up(c0.to_ntt(), specials)
            if g == 1:
                out.append(ct.with_polys(lifted, scale_up(c1.to_ntt(), specials)))
                continue
            ksk = self.ev.chest.galois_key(ct.level, g)
            ext = self.ev._extended_digits(c1, ksk)
            acc = self.ev._key_products([(ext, ksk)], (lifted, None))
            out.append(ct.with_polys(*acc))
        return out

    def conjugate(self, ct):
        return self._galois(ct, 2 * self.chain.n - 1)

    def rescale(self, ct):
        return self.ev.rescale(ct.to_coeff()).to_coeff()

    def adjust(self, ct, dst_level):
        return self.ev.adjust(ct.to_coeff(), dst_level).to_coeff()


CHAINS = {
    "bp28-narrow": lambda: plan_bitpacker_chain(
        n=N, word_bits=28, level_scale_bits=30.0, levels=4, base_bits=40.0,
        ks_digits=2,
    ),
    "rns28-narrow": lambda: plan_rns_ckks_chain(
        n=N, word_bits=28, level_scale_bits=30.0, levels=4, base_bits=40.0,
        ks_digits=2,
    ),
    "rns60-wide": lambda: plan_rns_ckks_chain(
        n=N, word_bits=60, level_scale_bits=35.0, levels=4, base_bits=50.0,
        ks_digits=2,
    ),
    "bp36-mixed": lambda: plan_bitpacker_chain(
        n=N, word_bits=36, level_scale_bits=30.0, levels=4, base_bits=40.0,
        ks_digits=3,
    ),
}


@pytest.fixture(scope="module", params=list(CHAINS))
def small_ctx(request):
    return CkksContext(CHAINS[request.param](), seed=7)


def test_chain_fixtures_cover_the_three_width_layouts():
    def kinds(name):
        chain = CHAINS[name]()
        top = chain.moduli_at(chain.max_level) + chain.special_moduli
        return {"narrow" if q < 1 << 31 else "wide" for q in top}

    assert kinds("bp28-narrow") == kinds("rns28-narrow") == {"narrow"}
    assert kinds("rns60-wide") == {"wide"}
    assert kinds("bp36-mixed") == {"narrow", "wide"}


_SEEDS = st.integers(0, 2**32 - 1)
_SCALARS = st.floats(-1.5, 1.5, width=32)
#: Op name -> strategy for its one argument.
OP_ARGS = {
    "mul_plain_vector": _SEEDS, "mul_plain_scalar": _SCALARS,
    "add_plain_vector": _SEEDS, "add_plain_scalar": _SCALARS,
    "sub_plain_scalar": _SCALARS,
    "add_rotated": st.sampled_from([1, 2]), "sub_conjugate": st.none(),
    "add_product": _SEEDS, "multiply": st.none(), "square": st.none(),
    "rescale": st.none(), "adjust": st.none(), "bsgs_sums": _SEEDS,
}
OPS = st.one_of(*(st.tuples(st.just(op), arg) for op, arg in OP_ARGS.items()))

#: Two programs that between them take every branch of the interpreter
#: within the fixtures' four levels.
FIXED_PROGRAMS = {
    "plain-bsgs-square": [
        ("mul_plain_vector", 1), ("add_rotated", 1), ("add_plain_scalar", 0.3),
        ("rescale", None), ("bsgs_sums", 2), ("square", None),
        ("sub_conjugate", None), ("rescale", None), ("mul_plain_scalar", 0.5),
        ("sub_plain_scalar", -0.2),
    ],
    "mixed-add-adjust-multiply": [
        ("add_product", 3), ("add_plain_vector", 4), ("rescale", None),
        ("adjust", None), ("multiply", None), ("add_rotated", 2),
    ],
}


def _run(ev, ctx: CkksContext, fresh: Ciphertext, program, skipped=None):
    """Interpret ``program`` on ``ev``; ops that do not apply are skipped
    (and appended to ``skipped`` when the caller wants to know).

    ``pending`` is True while ``cur`` carries a product's squared scale:
    it may be added to, rotated and rescaled, but not multiplied again.
    """
    cur, pending = fresh, False

    def vector(seed):
        return np.random.default_rng(seed).uniform(-1.0, 1.0, ctx.slots)

    for op, arg in program:
        fresh_product = not pending and cur.level > 0
        if op == "mul_plain_vector" and fresh_product:
            cur, pending = ev.mul_plain(cur, vector(arg)), True
        elif op == "mul_plain_scalar" and fresh_product:
            cur, pending = ev.mul_plain(cur, float(arg)), True
        elif op == "add_plain_vector":
            cur = ev.add_plain(cur, vector(arg))
        elif op == "add_plain_scalar":
            cur = ev.add_plain(cur, float(arg))
        elif op == "sub_plain_scalar":
            cur = ev.sub_plain(cur, float(arg))
        elif op == "add_rotated":
            cur = ev.add(cur, ev.rotate(cur, arg))
        elif op == "sub_conjugate":
            cur = ev.sub(ev.conjugate(cur), cur)
        elif op == "add_product" and fresh_product:
            # NTT-form product + coefficient-form product of a rotation.
            rotated = ev.rotate(ev.mul_plain(cur, vector(arg + 1)), 1)
            cur, pending = ev.add(ev.mul_plain(cur, vector(arg)), rotated), True
        elif op == "multiply" and fresh_product:
            other = ev.adjust(fresh, cur.level)
            cur, pending = ev.multiply(cur, other), True
        elif op == "square" and fresh_product:
            cur, pending = ev.square(cur), True
        elif op == "rescale" and pending:
            cur, pending = ev.rescale(cur), False
        elif op == "adjust" and fresh_product:
            cur = ev.adjust(cur, cur.level - 1)
        elif op == "bsgs_sums" and fresh_product:
            matrix = np.random.default_rng(arg).uniform(
                -1.0, 1.0, (MATRIX_DIM, MATRIX_DIM))
            block = PlainBlock([[PlainMatrix(matrix, ctx.slots)]])
            (cur,) = bsgs_sums(ev, block, [cur], giant_step=2).unstack()
        elif skipped is not None:
            skipped.append(op)
    return cur


class TestDifferential:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(program=st.lists(OPS, min_size=1, max_size=10), seed=st.integers(0, 99))
    def test_decrypted_coefficients_equal_the_eager_reference(
        self, small_ctx, program, seed
    ):
        ctx = small_ctx
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, ctx.slots)
        fresh = ctx.encrypt(values)
        got = _run(ctx.evaluator, ctx, fresh, program)
        want = _run(EagerEvaluator(ctx), ctx, fresh, program)
        assert (got.level, got.scale) == (want.level, want.scale)
        assert want.c0.domain == COEFF
        decrypt = ctx.decryptor.decrypt_to_plaintext
        assert (
            decrypt(got).poly.to_int_coeffs() == decrypt(want).poly.to_int_coeffs()
        )

    @pytest.mark.parametrize("name", list(FIXED_PROGRAMS))
    def test_fixed_programs(self, small_ctx, name):
        """The differential claim on every branch of the interpreter,
        without relying on what hypothesis happens to draw."""
        ctx = small_ctx
        program = FIXED_PROGRAMS[name]
        fresh = ctx.encrypt(np.linspace(-1.0, 1.0, ctx.slots))
        skipped: list[str] = []
        got = _run(ctx.evaluator, ctx, fresh, program, skipped)
        want = _run(EagerEvaluator(ctx), ctx, fresh, program)
        assert skipped == []
        decrypt = ctx.decryptor.decrypt_to_plaintext
        assert (
            decrypt(got).poly.to_int_coeffs() == decrypt(want).poly.to_int_coeffs()
        )

    def test_fixed_programs_cover_the_op_set(self):
        reached = {op for program in FIXED_PROGRAMS.values() for op, _ in program}
        assert reached == set(OP_ARGS)


# ----------------------------------------------------------------------
# Structural guards: who transforms what
# ----------------------------------------------------------------------
@pytest.fixture
def ntt_counts():
    """Record ``kernel.ntt.*`` counters around a block of evaluator calls."""
    was_recording = obs._RECORDER_ON
    obs.reset()
    obs.enable()

    def read() -> dict[str, int]:
        counters = obs.counters()
        return {
            key: int(counters.get(f"kernel.ntt.{key}", 0))
            for key in ("forward", "forward.elems", "inverse", "inverse.elems")
        }

    yield read
    obs.reset()
    if not was_recording:
        obs.disable()


def _shape(ctx, level):
    """``(R, full, digit sizes, n)`` of a keyswitch at ``level``."""
    ksk = ctx.chest.relin_key(level)
    r = ctx.chain.residues_at(level)
    return r, r + len(ksk.special_moduli), [len(g) for g in ksk.digit_groups]


@pytest.mark.guard
class TestTransformCounts:
    def test_mul_plain_on_ntt_resident_ciphertext(self, ctx, rng, ntt_counts):
        n, top = ctx.chain.n, ctx.chain.max_level
        r = ctx.chain.residues_at(top)
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots)).to_ntt()
        before = ntt_counts()
        out = ctx.evaluator.mul_plain(ct, rng.uniform(-1, 1, ctx.slots))
        after = ntt_counts()
        assert out.c0.domain == out.c1.domain == NTT
        # Only the encoded plaintext is transformed; nothing comes back.
        assert after["forward"] - before["forward"] == 1
        assert after["forward.elems"] - before["forward.elems"] == r * n
        assert after["inverse"] == before["inverse"]

    def test_mul_plain_on_coefficient_resident_ciphertext(self, ctx, rng, ntt_counts):
        n, top = ctx.chain.n, ctx.chain.max_level
        r = ctx.chain.residues_at(top)
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        before = ntt_counts()
        out = ctx.evaluator.mul_plain(ct, rng.uniform(-1, 1, ctx.slots))
        after = ntt_counts()
        assert out.c0.domain == out.c1.domain == NTT
        # Still one call: the plaintext, c0 and c1 ride it as one stack.
        assert after["forward"] - before["forward"] == 1
        assert after["forward.elems"] - before["forward.elems"] == 3 * r * n
        assert after["inverse"] == before["inverse"]

    def test_scalar_mul_plain_transforms_nothing(self, ctx, rng, ntt_counts):
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        for operand in (ct, ct.to_ntt()):
            before = ntt_counts()
            out = ctx.evaluator.mul_plain(operand, 0.25)
            assert ntt_counts() == before
            assert out.c0.domain == operand.c0.domain

    @pytest.mark.parametrize("resident", [COEFF, NTT])
    def test_multiply(self, ctx, rng, ntt_counts, resident):
        n, top = ctx.chain.n, ctx.chain.max_level
        r, full, digits = _shape(ctx, top)
        a = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        b = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        if resident == NTT:
            a, b = a.to_ntt(), b.to_ntt()
        before = ntt_counts()
        out = ctx.evaluator.multiply(a, b)
        after = ntt_counts()
        assert out.c0.domain == out.c1.domain == COEFF
        operands = 4 if resident == COEFF else 0
        # Forward: the operands as one stack (if they arrive in
        # coefficient form), then the rows base conversion produced —
        # every digit's in one call, and only those rows.
        assert after["forward"] - before["forward"] == (operands > 0) + 1
        assert after["forward.elems"] - before["forward.elems"] == n * (
            operands * r + sum(full - src for src in digits)
        )
        # Inverse: d2 for the digit decomposition, and the two
        # accumulators together — never d0 or d1.
        assert after["inverse"] - before["inverse"] == 2
        assert after["inverse.elems"] - before["inverse.elems"] == n * (r + 2 * full)

    def test_apply_bsgs_64_by_8(self, ctx, rng, ntt_counts):
        dim, giant = 64, 8
        n, top = ctx.chain.n, ctx.chain.max_level
        r, full, digits = _shape(ctx, top)
        matrix = rng.uniform(-1, 1, (dim, dim))
        block = PlainBlock([[PlainMatrix(matrix, ctx.slots)]])
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        bsgs_sums(ctx.evaluator, block, [ct], giant)  # rotation keys are lazy
        before = ntt_counts()
        (out,) = bsgs_sums(ctx.evaluator, block, [ct], giant).unstack()
        after = ntt_counts()
        assert out.level == top - 1
        giants_rotated = dim // giant - 1
        # Forward: the input's two polynomials as one stack (for the
        # lifted baby step 0 and every permuted ``c0``); its digits,
        # extended and transformed once for all seven baby rotations,
        # which stop at their lifted accumulators; every rotated giant
        # step's modded-down ``c1`` digits as one stack.  No plaintext:
        # the diagonals were encoded by the first apply.
        assert after["forward"] - before["forward"] == 3
        assert after["forward.elems"] - before["forward.elems"] == n * (
            2 * r + len(digits) * full + giants_rotated * len(digits) * full
        )
        # Inverse: the rotated giant steps' lifted ``c1`` for their one
        # stacked mod-down, and the output's one mod-down; no baby step
        # takes one.
        assert after["inverse"] - before["inverse"] == 2
        assert after["inverse.elems"] - before["inverse.elems"] == n * (
            giants_rotated * full + 2 * full
        )


# ----------------------------------------------------------------------
# Mixed-domain operands
# ----------------------------------------------------------------------
class TestMixedDomains:
    @pytest.fixture
    def sanitizer(self):
        was_attached = obs.checker() is sanitize
        sanitize.enable()
        yield sanitize
        if not was_attached:
            sanitize.disable()

    def test_mixed_add_settles_on_coefficient_form(self, ctx, rng, sanitizer):
        """Under the sanitizer every ciphertext built is checked for
        c0/c1 domain agreement — including the operand ``add`` brings
        over and the sum."""
        a = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        b = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        checks, violations = sanitizer.STATS["checks"], sanitizer.STATS["violations"]
        for x, y in ((a.to_ntt(), b), (a, b.to_ntt())):
            for op in (ctx.evaluator.add, ctx.evaluator.sub):
                out = op(x, y)
                assert out.c0.domain == out.c1.domain == COEFF
        # Its own ops only: the totals are process-wide, and an earlier
        # test may have provoked a violation on purpose.
        assert sanitizer.STATS["checks"] > checks
        assert sanitizer.STATS["violations"] == violations

    def test_same_domain_add_stays_put(self, ctx, rng):
        a = ctx.encrypt(rng.uniform(-1, 1, ctx.slots)).to_ntt()
        out = ctx.evaluator.add(a, a)
        assert out.c0.domain == out.c1.domain == NTT
        want = ctx.evaluator.add(a.to_coeff(), a.to_coeff())
        assert np.array_equal(out.to_coeff().c0.mat, want.c0.mat)

    def test_decrypt_accepts_either_domain(self, ctx, rng):
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        decrypt = ctx.decryptor.decrypt_to_plaintext
        assert (
            decrypt(ct).poly.to_int_coeffs()
            == decrypt(ct.to_ntt()).poly.to_int_coeffs()
        )


# ----------------------------------------------------------------------
# Scalar plaintexts
# ----------------------------------------------------------------------
#: Level scales the chains produce (28-60 bits, not powers of two) and
#: products of two of them.
LEVEL_SCALES = [
    Fraction(2**28 + 12345), Fraction(2**30), Fraction(2**35 - 2**20 + 7, 3),
    Fraction(2**45 + 1), Fraction(2**59 + 2**31 + 5), Fraction(2**60 - 93),
]
SCALES = LEVEL_SCALES + [a * b for a in LEVEL_SCALES[:3] for b in LEVEL_SCALES[3:]]


class TestScalarPlaintexts:
    @pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"2^{float(s).hex()[-2:]}")
    def test_encode_scalar_is_coefficient_zero_of_encode(self, ctx, scale):
        encoder = ctx.encoder
        for value in (0.0, 1.0, -1.0, 0.5, -1.0 / 48.0, 0.25, 3, 1e-9,
                      np.float64(2.0 / 3.0), np.float32(0.1), -12345.678):
            want = encoder.encode(value, scale)
            assert want[1:] == [0] * (ctx.chain.n - 1)
            assert encoder.encode_scalar(value, scale) == want[0]

    @pytest.mark.parametrize("resident", [COEFF, NTT])
    def test_scalar_ops_equal_the_encoder_path(self, ctx, rng, resident):
        ev = ctx.evaluator
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        if resident == NTT:
            ct = ct.to_ntt()
        for value in (0.25, -1.0 / 48.0, 0.0, 7):
            vector = np.full(ctx.slots, value)
            for op in (ev.mul_plain, ev.add_plain, ev.sub_plain):
                got, want = op(ct, value), op(ct, vector)
                assert got.scale == want.scale
                for g, w in ((got.c0, want.c0), (got.c1, want.c1)):
                    assert np.array_equal(g.to_coeff().mat, w.to_coeff().mat)

    def test_only_real_scalars_skip_the_encoder(self, ctx, rng, monkeypatch):
        calls = []
        encode = ctx.encoder.encode
        monkeypatch.setattr(
            ctx.encoder, "encode",
            lambda values, scale: calls.append(values) or encode(values, scale),
        )
        ev = ctx.evaluator
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots))
        calls.clear()
        ev.mul_plain(ct, 0.5)
        ev.add_plain(ct, np.float64(0.5))
        ev.sub_plain(ct, 2)
        assert calls == []
        ev.mul_plain(ct, 0.5j)
        ev.add_plain(ct, np.complex128(1 + 0j))
        ev.mul_plain(ct, np.full(ctx.slots, 0.5))
        ev.add_plain(ct, [0.5])
        assert len(calls) == 4
        got = ev.mul_plain(ct, 0.5j)
        want = ev.mul_plain(ct, np.full(ctx.slots, 0.5j))
        assert np.array_equal(got.c0.mat, want.c0.mat)
