"""Bench: Table 1 — end-to-end error-free mantissa bits per benchmark."""

from benchmarks.conftest import save_result
from repro.eval import table1


def test_table1_mantissa_bits(benchmark):
    rows = benchmark.pedantic(table1.run, rounds=1, iterations=1)
    text = table1.render(rows)
    save_result("table1_mantissa_bits", text)
    for r in rows:
        # The paper's claim: BitPacker matches RNS-CKKS within ~1 bit
        # (we allow slack for the reduced sample count).
        assert abs(r.bp_mean - r.rns_mean) < 3.0
