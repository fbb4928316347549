"""Shared fixtures: small CKKS contexts and chains reused across tests.

Functional tests run at tiny ring degrees (64-256) so the whole suite
stays fast on one core; the arithmetic under test is degree-independent.
Chains are planned once per session, but every test gets a context of
its own, seeded: keys are drawn lazily from the context's RNG, so a
shared context would make each precision reading depend on which tests
ran before it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from repro.analysis import sanitize
from repro.ckks import CkksContext
from repro.nt import modmath
from repro.nt.ntt import ntt_context
from repro.obs import core as obs
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain
from repro.trace.compiler import CompiledTrace, compile_workloads

#: Every hypothesis draw is derived from its test's name, not from a
#: fresh seed, so a run draws what the last one drew and a slow or
#: failing example shows up every time.  Tests keep their own
#: ``max_examples``: a profile only changes what the tests leave unset.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

TEST_N = 256
TEST_LEVELS = 4
TEST_SCALE_BITS = 30.0


@pytest.fixture(autouse=True)
def _zero_sanitizer_stats():
    """Every test starts from zeroed sanitizer counters: they are
    process-wide, and a test that reads them reads its own checks."""
    sanitize.STATS.update(checks=0, violations=0)


@pytest.fixture(scope="session")
def bp_chain():
    return plan_bitpacker_chain(
        n=TEST_N,
        word_bits=28,
        level_scale_bits=TEST_SCALE_BITS,
        levels=TEST_LEVELS,
        base_bits=40.0,
        ks_digits=2,
    )


@pytest.fixture(scope="session")
def rns_chain():
    return plan_rns_ckks_chain(
        n=TEST_N,
        word_bits=28,
        level_scale_bits=TEST_SCALE_BITS,
        levels=TEST_LEVELS,
        base_bits=40.0,
        ks_digits=2,
    )


@pytest.fixture(scope="session")
def compiled_workloads() -> list[CompiledTrace]:
    """All 20 bundled traces through the compiler, once per session."""
    return compile_workloads(plan=False)


@pytest.fixture()
def bp_ctx(bp_chain):
    return CkksContext(bp_chain, seed=101)


@pytest.fixture()
def rns_ctx(rns_chain):
    return CkksContext(rns_chain, seed=101)


@pytest.fixture(params=["bitpacker", "rns-ckks"])
def ctx(request, bp_chain, rns_chain):
    """Parametrized over both schemes: the evaluator must behave the same."""
    chain = bp_chain if request.param == "bitpacker" else rns_chain
    return CkksContext(chain, seed=101)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def counters():
    """``obs`` counter deltas around a block of evaluator calls."""
    was_recording = obs._RECORDER_ON
    obs.reset()
    obs.enable()

    def read(*names):
        now = obs.counters()
        return {name: int(now.get(name, 0)) for name in names}

    yield read
    obs.reset()
    if not was_recording:
        obs.disable()


def make_values(ctx, rng, magnitude=1.0):
    return rng.uniform(-magnitude, magnitude, ctx.slots)


def op_counts(trace) -> Counter:
    """A trace's ops per kind, each weighted by its parallel ``count``."""
    counts: Counter = Counter()
    for op in trace.ops:
        counts[op.kind] += op.count
    return counts


def ntt_product(a, b, q: int, n: int) -> list[int]:
    """``a·b mod (X^n + 1, q)`` through the library's kernels: two
    forward NTTs, one pointwise ``mod_mul`` and the inverse NTT."""
    ctx = ntt_context(q, n)
    fa = ctx.forward(modmath.as_mod_array(a, q))
    fb = ctx.forward(modmath.as_mod_array(b, q))
    return [int(v) for v in ctx.inverse(modmath.mod_mul(fa, fb, q))]
