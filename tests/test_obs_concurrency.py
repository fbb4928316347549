"""Concurrency safety of the observability recorder (PR-8 bugfix).

Pre-fix, :mod:`repro.obs.core` kept the open-span chain in one
module-global stack: two concurrent asyncio tasks (or threads) opening
spans interleaved their frames, producing one garbled tree — a child
could close its *sibling's* parent.  Metrics had unlocked
read-modify-write races.  The fix moved span parenting to a
``contextvars.ContextVar`` and put the shared sinks behind locks; these
tests fail against the pre-fix module.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import obs
from repro.obs import core


@pytest.fixture(autouse=True)
def _clean_recorder():
    core.disable()
    core.reset()
    yield
    core.disable()
    core.reset()


def span_shape(span):
    return (span.name, [span_shape(child) for child in span.children])


class TestTaskIsolation:
    def test_two_tasks_build_independent_nested_trees(self):
        """The satellite's named regression: interleaved tasks, two trees.

        Each task opens ``<task>/outer`` -> ``<task>/mid`` ->
        ``<task>/leaf`` with await points between every enter/exit, so
        the two tasks' frames interleave on the loop.  The pre-fix
        global stack parents one task's span under the other's; the
        ContextVar chain must keep the trees disjoint and correctly
        nested.
        """
        core.enable()

        async def worker(tag: str, checkpoint: asyncio.Event):
            with obs.span(f"{tag}/outer"):
                await asyncio.sleep(0)
                with obs.span(f"{tag}/mid"):
                    checkpoint.set()
                    await asyncio.sleep(0)
                    with obs.span(f"{tag}/leaf"):
                        await asyncio.sleep(0)
                await asyncio.sleep(0)

        async def scenario():
            a_inside = asyncio.Event()
            b_inside = asyncio.Event()
            await asyncio.gather(
                worker("a", a_inside), worker("b", b_inside)
            )
            assert a_inside.is_set() and b_inside.is_set()

        asyncio.run(scenario())
        roots = core.take_roots()
        shapes = sorted(span_shape(root) for root in roots)
        assert shapes == [
            ("a/outer", [("a/mid", [("a/leaf", [])])]),
            ("b/outer", [("b/mid", [("b/leaf", [])])]),
        ]

    def test_task_span_does_not_leak_into_sibling_task(self):
        core.enable()
        observed = {}

        async def opener(gate: asyncio.Event):
            with obs.span("opener/span"):
                gate.set()
                await asyncio.sleep(0.01)

        async def prober(gate: asyncio.Event):
            await gate.wait()
            # The opener's span is live right now, but it belongs to
            # the opener's context, not ours.
            observed["current"] = core.current_span()

        async def scenario():
            gate = asyncio.Event()
            await asyncio.gather(opener(gate), prober(gate))

        asyncio.run(scenario())
        assert observed["current"] is None

    def test_threads_build_independent_trees(self):
        core.enable()
        barrier = threading.Barrier(4)

        def worker(tag: str):
            barrier.wait()
            for i in range(20):
                with obs.span(f"{tag}/outer{i}"):
                    with obs.span(f"{tag}/inner{i}"):
                        pass

        threads = [
            threading.Thread(target=worker, args=(f"t{k}",)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = core.take_roots()
        assert len(roots) == 80
        for root in roots:
            tag, _, rest = root.name.partition("/")
            assert [c.name for c in root.children] == [
                f"{tag}/{rest.replace('outer', 'inner')}"
            ]


class TestMetricsLocking:
    def test_concurrent_counts_are_exact(self):
        core.enable()
        workers, per_worker = 8, 2_000
        barrier = threading.Barrier(workers)

        def hammer():
            barrier.wait()
            for _ in range(per_worker):
                core.count("shared.counter")
                core.count("shared.sum", 0.5)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert core.counters()["shared.counter"] == workers * per_worker
        assert core.counters()["shared.sum"] == workers * per_worker / 2

    def test_snapshot_while_writing_does_not_lose_writes(self):
        core.enable()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                core.count("racy")

        def reader():
            while not stop.is_set():
                core.counters()

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader)]
        for t in threads:
            t.start()
        # Let them race briefly, then take a consistent final read.
        threading.Event().wait(0.05)
        stop.set()
        for t in threads:
            t.join()
        total = core.counters()["racy"]
        core.count("racy")
        assert core.counters()["racy"] == total + 1
