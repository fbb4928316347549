"""Bench: Fig. 19 — adjust error distributions (functional CKKS)."""

from benchmarks.conftest import save_result
from repro.eval import fig19


def test_fig19_adjust_precision(benchmark):
    rows = benchmark.pedantic(fig19.run, rounds=1, iterations=1)
    text = fig19.render(rows)
    save_result("fig19_adjust_precision", text)
    by_key = {(r.scale_bits, r.scheme): r for r in rows}
    for scale in sorted({r.scale_bits for r in rows}):
        gap = abs(
            by_key[(scale, "bitpacker")].stats["median"]
            - by_key[(scale, "rns-ckks")].stats["median"]
        )
        assert gap < 2.5
