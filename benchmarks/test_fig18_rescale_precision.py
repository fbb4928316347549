"""Bench: Fig. 18 — rescale error distributions (functional CKKS)."""

from benchmarks.conftest import save_result
from repro.eval import fig18


def test_fig18_rescale_precision(benchmark):
    rows = benchmark.pedantic(fig18.run, rounds=1, iterations=1)
    text = fig18.render(rows)
    save_result("fig18_rescale_precision", text)
    by_key = {(r.scale_bits, r.scheme): r for r in rows}
    for scale in sorted({r.scale_bits for r in rows}):
        gap = abs(
            by_key[(scale, "bitpacker")].stats["median"]
            - by_key[(scale, "rns-ckks")].stats["median"]
        )
        assert gap < 2.5  # paper: within the 0.5-bit selection margin
