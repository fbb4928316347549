"""Shared fixtures: small CKKS contexts and chains reused across tests.

Functional tests run at tiny ring degrees (64-256) so the whole suite
stays fast on one core; the arithmetic under test is degree-independent.
Session-scoped contexts amortize key generation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.obs import core as obs
from repro.schemes import plan_bitpacker_chain, plan_rns_ckks_chain

TEST_N = 256
TEST_LEVELS = 4
TEST_SCALE_BITS = 30.0


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the experiment runner's disk cache at a per-session tmp dir.

    Keeps the suite from reading stale records out of (or writing into)
    the user's ~/.cache/bitpacker-repro.
    """
    from repro.eval import runner

    runner.configure(
        cache_dir=tmp_path_factory.mktemp("bitpacker-cache"), enabled=True
    )
    yield
    runner.configure(enabled=True)


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
def bp_ctx(bp_chain):
    return CkksContext(bp_chain, seed=101)


@pytest.fixture(scope="session")
def rns_ctx(rns_chain):
    return CkksContext(rns_chain, seed=101)


@pytest.fixture(scope="session", params=["bitpacker", "rns-ckks"])
def ctx(request, bp_ctx, rns_ctx):
    """Parametrized over both schemes: the evaluator must behave the same."""
    return bp_ctx if request.param == "bitpacker" else rns_ctx


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def counters():
    """``obs`` counter deltas around a block of evaluator calls."""
    was_recording = obs.enabled()
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
