"""Tests for the disk-cached experiment runner.

A cold run populates the content-addressed store, a warm re-run serves
every artifact from disk (zero ``simulate`` misses), calibration-constant
changes invalidate records via the model fingerprint, and ``map_grid``
is an ordered in-process map that lets a point's exception through
untouched.  A record that fails to parse or to decode costs one
recompute, never an aborted sweep.
"""

from __future__ import annotations

import copy
import json
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.eval import common, fig11, fig14, runner
from tests.test_obs import _SWAPS, _paths


@pytest.fixture()
def fresh_cache(tmp_path):
    """A private cache dir; restores the session cache afterwards."""
    previous = runner.active_cache()
    cache = runner.configure(cache_dir=tmp_path / "cache", enabled=True)
    common.clear_memory_caches()
    yield cache
    runner._ACTIVE = previous
    common.clear_memory_caches()


class TestRunnerCache:
    def test_store_load_round_trip(self, fresh_cache):
        params = {"app": "LogReg", "word_bits": 28}
        fresh_cache.store("simulate", params, {"time_ms": 1.5})
        found, payload = fresh_cache.load("simulate", params)
        assert found and payload == {"time_ms": 1.5}
        assert fresh_cache.hit_count("simulate") == 1

    def test_missing_record_counts_miss(self, fresh_cache):
        found, _ = fresh_cache.load("simulate", {"app": "nope"})
        assert not found
        assert fresh_cache.miss_count("simulate") == 1

    def test_corrupt_record_quarantined_and_recomputed(self, fresh_cache):
        params = {"app": "LogReg"}
        fresh_cache.store("simulate", params, [1, 2])
        path = fresh_cache.record_path("simulate", params)
        path.write_text("{not json")
        found, _ = fresh_cache.load("simulate", params)
        assert not found
        assert not path.exists()
        assert fresh_cache.corrupt_count == 1
        quarantined = list(fresh_cache.quarantine_dir().iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith("simulate-")

    def test_hand_truncated_record_is_a_miss_not_a_crash(self, fresh_cache):
        """Regression: a record cut off mid-write (killed worker, full
        disk) must never abort the sweep — quarantine and recompute."""
        params = {"app": "LogReg", "word_bits": 28}
        fresh_cache.store("simulate", params, {"time_ms": 1.5})
        path = fresh_cache.record_path("simulate", params)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        found, payload = fresh_cache.load("simulate", params)
        assert (found, payload) == (False, None)
        assert fresh_cache.corrupt_count == 1
        assert not path.exists()
        # The next store repairs the slot.
        fresh_cache.store("simulate", params, {"time_ms": 1.5})
        assert fresh_cache.load("simulate", params)[0]

    def test_schema_mismatch_quarantined(self, fresh_cache):
        """A parseable record with the wrong schema version is stale by
        definition: treat exactly like corruption."""
        params = {"app": "LogReg"}
        fresh_cache.store("simulate", params, 42)
        path = fresh_cache.record_path("simulate", params)
        record = json.loads(path.read_text())
        record["schema"] = runner.CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        found, _ = fresh_cache.load("simulate", params)
        assert not found
        assert fresh_cache.corrupt_count == 1

    def test_undecodable_payload_quarantined_and_recomputed(self, fresh_cache):
        """Regression: a chain record missing a key raised ``KeyError``
        out of ``runner.cached`` instead of costing one recompute."""
        args = ("LogReg", "BS26", "bitpacker", 28)
        planned = common.chain_for(*args)
        path = fresh_cache.record_path("chain", _chain_params(*args))
        record = json.loads(path.read_text())
        del record["payload"]["ks_digits"]
        path.write_text(json.dumps(record))
        common.clear_memory_caches()
        fresh_cache.reset_counters()
        again = common.chain_for(*args)
        assert common.chain_to_dict(again) == common.chain_to_dict(planned)
        hits, misses = fresh_cache.hit_count("chain"), fresh_cache.miss_count("chain")
        assert (hits, misses) == (0, 1)
        assert fresh_cache.corrupt_count == 1
        assert [p.name for p in fresh_cache.quarantine_dir().iterdir()] == [
            f"chain-{path.name}"
        ]
        assert path.exists()  # the recompute stored a good record

    def test_store_is_atomic_no_partial_record_visible(self, fresh_cache):
        """store() publishes via temp-file + os.replace: the record dir
        never contains a half-written .json, even transiently."""
        params = {"app": "LogReg"}
        fresh_cache.store("simulate", params, list(range(100)))
        kind_dir = fresh_cache.record_path("simulate", params).parent
        leftovers = [p for p in kind_dir.iterdir() if p.suffix != ".json"]
        assert leftovers == []
        for record_file in kind_dir.iterdir():
            json.loads(record_file.read_text())  # every visible file parses

    def test_force_misses_but_still_stores(self, tmp_path):
        cache = runner.RunnerCache(tmp_path, force=True)
        cache.store("simulate", {"a": 1}, 42)
        found, _ = cache.load("simulate", {"a": 1})
        assert not found  # force recomputes...
        relaxed = runner.RunnerCache(tmp_path)
        found, payload = relaxed.load("simulate", {"a": 1})
        assert found and payload == 42  # ...but records were refreshed

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = runner.RunnerCache(tmp_path / "never", enabled=False)
        cache.store("simulate", {"a": 1}, 42)
        found, _ = cache.load("simulate", {"a": 1})
        assert not found
        assert not (tmp_path / "never").exists()

    def test_unserializable_params_raise(self, fresh_cache):
        with pytest.raises(ParameterError):
            fresh_cache.cache_key("simulate", {"bad": object()})

    def test_record_is_auditable_json(self, fresh_cache):
        params = {"app": "LogReg", "scheme": "bitpacker"}
        fresh_cache.store("simulate", params, {"time_ms": 2.0})
        record = json.loads(
            fresh_cache.record_path("simulate", params).read_text()
        )
        assert record["schema"] == runner.CACHE_SCHEMA_VERSION
        assert record["kind"] == "simulate"
        assert record["params"] == params
        assert record["fingerprint"] == runner.model_fingerprint()


_FUZZ_ARGS = ("LogReg", "BS26", "bitpacker", 28)


@cache
def _decoded_kinds():
    """``kind -> (encode, decode, artifact)`` for the four kinds the
    harnesses store through a decoder, each on one real artifact."""
    from repro.accel.sim import SimResult
    from repro.cpu.model import CpuResult
    from repro.trace.program import HeTrace

    return {
        "trace": (HeTrace.to_dict, HeTrace.from_dict,
                  common.trace_for(*_FUZZ_ARGS)),
        "chain": (common.chain_to_dict, common.chain_from_dict,
                  common.chain_for(*_FUZZ_ARGS)),
        "simulate": (SimResult.to_dict, SimResult.from_dict,
                     common.simulate(*_FUZZ_ARGS)),
        "simulate-cpu": (CpuResult.to_dict, CpuResult.from_dict,
                         common.simulate_cpu(*_FUZZ_ARGS[:3], 64)),
    }


class TestRecordDecoderFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(["trace", "chain", "simulate", "simulate-cpu"]),
        edits=st.lists(
            st.tuples(st.integers(0, 1 << 30), st.integers(-1, len(_SWAPS) - 1)),
            min_size=1, max_size=3,
        ),
    )
    def test_record_is_served_or_recomputed(self, fresh_cache, kind, edits):
        """Random key deletions (``-1``) and type swaps in a stored
        payload: ``cached`` serves what the decoder accepts, and a
        payload it refuses is quarantined and costs one recompute."""
        encode, decode, artifact = _decoded_kinds()[kind]
        record = {"payload": json.loads(json.dumps(encode(artifact)))}
        for pick, swap in edits:
            paths = list(_paths(record))
            if not paths:
                break  # the payload itself was deleted
            prefix, key = paths[pick % len(paths)]
            parent = record
            for step in prefix:
                parent = parent[step]
            if swap < 0:
                del parent[key]
            else:
                parent[key] = copy.deepcopy(_SWAPS[swap])
        params = {"fuzz": kind}
        fresh_cache.reset_counters()
        if "payload" in record:
            fresh_cache.store(kind, params, record["payload"])
        value = runner.cached(kind, params, lambda: artifact, encode, decode)
        if fresh_cache.hit_count(kind):
            assert fresh_cache.corrupt_count == 0
        else:
            assert value is artifact
            assert fresh_cache.miss_count(kind) == 1
            assert fresh_cache.corrupt_count == ("payload" in record)
        assert fresh_cache.record_path(kind, params).exists()
        fresh_cache.record_path(kind, params).unlink()


class TestFingerprint:
    def test_fingerprint_changes_with_model_constant(self, monkeypatch):
        before = runner.model_fingerprint()
        monkeypatch.setattr(
            "repro.accel.sim.STREAMING_FRACTION", 0.25
        )
        assert runner.model_fingerprint() != before

    def test_constant_change_invalidates_record(self, fresh_cache, monkeypatch):
        params = {"app": "LogReg", "word_bits": 28}
        fresh_cache.store("simulate", params, {"time_ms": 1.5})
        found, _ = fresh_cache.load("simulate", params)
        assert found
        monkeypatch.setattr("repro.accel.sim.MISS_PRESSURE_COEFF", 0.99)
        found, _ = fresh_cache.load("simulate", params)
        assert not found  # key moved with the fingerprint


class TestCachedHarnesses:
    def test_cold_then_warm_identical_rows(self, fresh_cache):
        cold = fig11.run()
        assert fresh_cache.miss_count("simulate") == 2 * len(
            common.WORKLOAD_GRID
        )
        assert fresh_cache.hit_count("simulate") == 0
        common.clear_memory_caches()
        fresh_cache.reset_counters()
        warm = fig11.run()
        assert fresh_cache.miss_count() == 0
        assert fresh_cache.hit_count("simulate") == 2 * len(
            common.WORKLOAD_GRID
        )
        assert warm == cold
        assert fig11.render(warm) == fig11.render(cold)

    def test_warm_fig14_performs_zero_simulations(self):
        """Acceptance criterion: a warm fig14 re-run is pure cache.

        Two word sizes show the property; the full ten-word sweep is
        the ``runner-cache`` CI job's.
        """
        cache = runner.active_cache()
        words = (28, 64)
        first_render = fig14.render(fig14.run(word_sizes=words))
        common.clear_memory_caches()
        cache.reset_counters()
        warm_render = fig14.render(fig14.run(word_sizes=words))
        assert cache.miss_count("simulate") == 0
        assert cache.miss_count() == 0
        assert warm_render == first_render


class TestMemoryCacheKeys:
    def test_cpu_point_generates_its_trace_once(self, fresh_cache):
        """``lru_cache`` keys a keyword call apart from a positional one:
        the CPU model and the chain planner must ask for the trace the
        same way, or every Fig. 13 point builds it twice."""
        common.clear_memory_caches()
        common.simulate_cpu("LogReg", "BS19", "bitpacker", 64)
        assert common.trace_for.cache_info().misses == 1
        assert common.chain_for.cache_info().misses == 1

    def test_equal_constraints_plan_one_chain(self, fresh_cache, monkeypatch):
        """The planners read ``(scheme, n, word_bits, level_scale_bits,
        base_bits, ks_digits)`` and nothing else of a workload; two apps
        whose traces agree on those share one plan.  The memo is one of
        the memory caches: clearing them plans again."""
        calls = []
        real = common.plan_bitpacker_chain
        monkeypatch.setattr(
            common, "plan_bitpacker_chain",
            lambda **kw: calls.append(kw) or real(**kw),
        )
        apps = ("ResNet-20", "ResNet-20+AESPA")
        traces = [common.trace_for(a, "BS19", "bitpacker", 28) for a in apps]
        assert traces[0].ops != traces[1].ops
        assert traces[0].level_scale_bits == traces[1].level_scale_bits
        first, second = (
            common.chain_for(a, "BS19", "bitpacker", 28) for a in apps
        )
        assert len(calls) == 1
        assert second is first
        # Each app still owns its disk record (the key is unchanged).
        assert fresh_cache.miss_count("chain") == 2
        for app in apps:
            assert fresh_cache.record_path(
                "chain", _chain_params(app, "BS19", "bitpacker", 28)
            ).exists()
        # A different constraint set is a different plan.
        common.chain_for("LogReg", "BS19", "bitpacker", 28)
        assert len(calls) == 2

        common.clear_memory_caches()
        assert common.memory_cache_stats()["plan"]["currsize"] == 0
        fresh_cache.enabled = False  # else the rerun is a disk hit
        again = common.chain_for(apps[0], "BS19", "bitpacker", 28)
        assert len(calls) == 3
        assert again is not first
        assert common.chain_to_dict(again) == common.chain_to_dict(first)

    def test_disabled_cache_counts_the_miss_and_skips_encoding(
        self, fresh_cache
    ):
        fresh_cache.enabled = False
        encoded = []
        value = runner.cached(
            "trace", {"p": 1}, compute=lambda: "artifact",
            encode=lambda v: encoded.append(v) or v,
        )
        assert value == "artifact"
        assert fresh_cache.miss_count("trace") == 1
        assert encoded == []
        fresh_cache.enabled = True
        runner.cached(
            "trace", {"p": 1}, compute=lambda: "artifact",
            encode=lambda v: encoded.append(v) or v,
        )
        assert encoded == ["artifact"]
        assert fresh_cache.record_path("trace", {"p": 1}).exists()


class TestMapGrid:
    def test_preserves_grid_order(self, fresh_cache):
        calls = [dict(x=i) for i in range(8)]
        assert runner.map_grid(_echo, calls) == list(range(8))

    def test_point_exception_propagates_after_one_call(self):
        """A failing point is not replayed (the failure is deterministic)
        and its exception is not wrapped, whatever its type."""
        seen = []
        boom = KeyError("point 2")

        def point(x):
            seen.append(x)
            if x == 2:
                raise boom
            return x

        with pytest.raises(KeyError) as caught:
            runner.map_grid(point, [dict(x=i) for i in range(4)])
        assert caught.value is boom
        assert seen == [0, 1, 2]


class TestSerialization:
    """The to_dict/from_dict pairs the disk cache rides on must be exact."""

    def test_sim_result_round_trip(self, fresh_cache):
        result = common.simulate("LogReg", "BS19", "bitpacker", 28)
        from repro.accel.sim import SimResult

        clone = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result

    def test_cpu_result_round_trip(self, fresh_cache):
        result = common.simulate_cpu("LogReg", "BS19", "bitpacker", 64)
        from repro.cpu.model import CpuResult

        clone = CpuResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result

    def test_trace_round_trip(self, fresh_cache):
        trace = common.trace_for("LogReg", "BS19", "bitpacker", 28)
        from repro.trace.program import HeTrace

        clone = HeTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert clone == trace

    def test_chain_round_trip_preserves_exact_scales(self, fresh_cache):
        from repro.schemes import chain_from_dict, chain_to_dict

        for scheme in common.SCHEMES:
            chain = common.chain_for("LogReg", "BS19", scheme, 28)
            clone = chain_from_dict(
                json.loads(json.dumps(chain_to_dict(chain)))
            )
            assert type(clone) is type(chain)
            top = chain.max_level
            for level in range(top + 1):
                # Scales are exact Fractions with huge numerators; the
                # string encoding must not lose a single bit.
                assert clone.scale_at(level) == chain.scale_at(level)
                assert clone.residues_at(level) == chain.residues_at(level)

    def test_unknown_scheme_rejected(self):
        from repro.schemes import chain_from_dict

        with pytest.raises(ParameterError):
            chain_from_dict({
                "scheme": "bgv", "n": 64, "word_bits": 28,
                "ks_digits": 2, "special_moduli": [], "levels": [],
            })


def _echo(x):
    return x


def _chain_params(app, bs, scheme, word_bits):
    """The disk-cache parameters of ``common.chain_for``'s default call."""
    return {
        "app": app, "bs": bs, "scheme": scheme, "word_bits": word_bits,
        "n": common.EVAL_N, "max_log_q": common.EVAL_MAX_LOG_Q, "ks_digits": 3,
    }


#: The disk-cache parameters of each artifact function's default call on
#: ``_FUZZ_ARGS``, written out literally: a record the figures stored
#: stays addressable only while these dicts are exactly what is hashed.
_DEFAULT_PARAMS = {
    "trace": (common.trace_for, _FUZZ_ARGS, {
        "app": "LogReg", "bs": "BS26", "scheme": "bitpacker", "word_bits": 28,
        "n": 65536, "max_log_q": 1596.0, "ks_digits": 3,
    }),
    "simulate": (common.simulate, _FUZZ_ARGS, {
        "app": "LogReg", "bs": "BS26", "scheme": "bitpacker", "word_bits": 28,
        "register_file_mb": 256.0, "crb_shrink": 0.0, "ks_digits": 3,
        "n": 65536, "max_log_q": 1596.0,
    }),
    "simulate-cpu": (common.simulate_cpu, (*_FUZZ_ARGS[:3], 64), {
        "app": "LogReg", "bs": "BS26", "scheme": "bitpacker", "word_bits": 64,
        "ks_digits": 3,
    }),
}


class TestDiskKeys:
    @pytest.mark.parametrize("kind", sorted(_DEFAULT_PARAMS))
    def test_default_call_stores_under_the_literal_params(
        self, fresh_cache, kind
    ):
        func, args, params = _DEFAULT_PARAMS[kind]
        func(*args)
        assert fresh_cache.record_path(kind, params).exists()
