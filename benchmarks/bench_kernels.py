#!/usr/bin/env python
"""Microbenchmarks for the vectorized number-theory hot path.

Times the kernels every CKKS operation decomposes into — forward /
inverse NTT of one row and of a 16-row stack (``ntt_forward_k16``),
full RNS polynomial multiply, hybrid keyswitch, rescale
(``scale_down``), fast base conversion, and the stacked
multiply-accumulate (``mul_acc_m2``/``mul_acc_m16``: ``m`` products
summed in one ``pointwise_mul_acc`` call) — across ring degrees
``n ∈ {2^7, 2^10, 2^11, 2^12 .. 2^15}`` and the two modulus *widths*
(narrow ``< 2^31``, wide ``2^31..2^61``).  The narrow
width's primes are 28-bit, so its NTT rows at ``n ≤ 2^10`` run the
four-step kernel and from ``2^11`` the stage loop: both kernels show on
each side of that gate.

Each ``(kernel, n, width)`` point reports its own median wall time;
nothing is timed against an older implementation, and the numbers
compare across commits only as two runs of this script on one idle
machine do.  The timed calls run round-robin over the whole sweep (one
call per point per round), so machine noise spreads over every row
rather than whole rows; each point's median is over its own calls.

Results are written to ``BENCH_kernels.json`` at the repo root as
``{"env": ..., "results": [...]}`` — the benchmark ladder's environment
header (machine, python, numpy, engine, git commit) plus numpy's ufunc
buffer size (``ufunc_bufsize``) over records
``{kernel, n, width, median_s}`` — and printed as a table.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro import backends
from repro.nt import modmath
from repro.nt.ntt import forward_rows, ntt_context
from repro.nt.primes import ntt_friendly_primes_below
from repro.rns.basis import RnsBasis
from repro.rns.convert import base_convert, scale_down
from repro.rns.poly import COEFF, NTT
from repro.rns.sampling import sample_uniform

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))  # run as a script: find `benchmarks`

from benchmarks.ladder import env  # noqa: E402

WIDTH_BOUNDS = {"narrow": 1 << 28, "wide": 1 << 55}


def primes_for(width: str, n: int, count: int) -> list[int]:
    gen = ntt_friendly_primes_below(WIDTH_BOUNDS[width], n)
    return [next(gen) for _ in range(count)]


# ----------------------------------------------------------------------
# Kernel setups: each returns the call to time.
# ----------------------------------------------------------------------
def make_ntt_forward(n, width, rng):
    q = primes_for(width, n, 1)[0]
    a = modmath.uniform_mod(q, n, rng)
    ctx = ntt_context(q, n)
    return lambda: ctx.forward(a)


def make_ntt_inverse(n, width, rng):
    q = primes_for(width, n, 1)[0]
    a = modmath.uniform_mod(q, n, rng)
    ctx = ntt_context(q, n)
    return lambda: ctx.inverse(a)


def make_ntt_forward_k16(n, width, rng):
    moduli = tuple(primes_for(width, n, 16))
    a = sample_uniform(RnsBasis(n, moduli), rng, COEFF).mat
    return lambda: forward_rows(a, moduli)


def make_poly_mul(n, width, rng):
    basis = RnsBasis(n, primes_for(width, n, 4))
    a = sample_uniform(basis, rng, COEFF)
    b = sample_uniform(basis, rng, COEFF)
    return lambda: a.poly_mul(b)


def make_base_convert(n, width, rng):
    primes = primes_for(width, n, 8)
    src, dst = primes[:4], primes[4:]
    poly = sample_uniform(RnsBasis(n, src), rng, COEFF)
    return lambda: base_convert(poly, dst, exact=True)


def make_rescale(n, width, rng):
    moduli = primes_for(width, n, 5)
    poly = sample_uniform(RnsBasis(n, moduli), rng, COEFF)
    shed = (moduli[-1],)
    return lambda: scale_down(poly, shed)


def make_keyswitch(n, width, rng):
    primes = primes_for(width, n, 6)
    moduli, specials = primes[:4], tuple(primes[4:])
    basis = RnsBasis(n, moduli)
    full = tuple(moduli) + specials
    full_basis = RnsBasis(n, full)
    d = sample_uniform(basis, rng, COEFF)
    groups = (tuple(moduli[:2]), tuple(moduli[2:]))
    rows = [
        (sample_uniform(full_basis, rng, NTT), sample_uniform(full_basis, rng, NTT))
        for _ in groups
    ]

    def keyswitch():
        acc0 = acc1 = None
        for group, (b_row, a_row) in zip(groups, rows):
            ext = base_convert(d.restricted(group), full, exact=True).to_ntt()
            t0 = ext.pointwise_mul(b_row)
            t1 = ext.pointwise_mul(a_row)
            acc0 = t0 if acc0 is None else acc0.add(t0)
            acc1 = t1 if acc1 is None else acc1.add(t1)
        return (
            scale_down(acc0.to_coeff(), specials),
            scale_down(acc1.to_coeff(), specials),
        )

    return keyswitch


def make_mul_acc(m):
    """``acc + Σ_m a[m] · b[m]`` over an ``(m, 4, n)`` stack in one
    ``pointwise_mul_acc`` call."""

    def make(n, width, rng):
        basis = RnsBasis(n, primes_for(width, n, 4))
        a, b = (
            np.stack([sample_uniform(basis, rng, NTT).mat for _ in range(m)])
            for _ in range(2)
        )
        acc = sample_uniform(basis, rng, NTT).mat
        q_col, kind = basis.q_col, basis.kind
        return lambda: backends.pointwise_mul_acc(acc, a, b, q_col, kind)

    return make


KERNELS = {
    "ntt_forward": make_ntt_forward,
    "ntt_inverse": make_ntt_inverse,
    "ntt_forward_k16": make_ntt_forward_k16,
    "poly_mul": make_poly_mul,
    "keyswitch": make_keyswitch,
    "rescale": make_rescale,
    "base_convert": make_base_convert,
    "mul_acc_m2": make_mul_acc(2),
    "mul_acc_m16": make_mul_acc(16),
}


def run(sizes, widths, reps):
    """Time every point's calls round-robin across the whole sweep.

    Every point is built and warmed first; then each round makes one
    timed call of every point that still has reps left, so a noisy
    minute of the machine spreads over all rows instead of landing on
    the few points timed in it.  Points above ``n = 2^13`` make half
    the calls.
    """
    points = []
    for width in widths:
        for n in sizes:
            for kernel, make in KERNELS.items():
                rng = np.random.default_rng(hash((kernel, n, width)) % 2**32)
                points.append((
                    {"kernel": kernel, "n": n, "width": width},
                    make(n, width, rng),
                    max(1, reps // 2) if n > 1 << 13 else reps,
                    [],
                ))
    for _point, fn, _count, _times in points:  # warmup: builds cached tables
        fn()
    for rnd in range(reps):
        for _point, fn, count, times in points:
            if rnd < count:
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
    results = []
    for point, _fn, _count, times in points:
        results.append({**point, "median_s": statistics.median(times)})
    return results


def print_table(results):
    print()
    print(f"{'kernel':<15} {'n':>6} {'width':<7} {'median_ms':>12}")
    print("-" * 43)
    for r in results:
        print(
            f"{r['kernel']:<15} {r['n']:>6} {r['width']:<7} "
            f"{r['median_s'] * 1e3:>12.3f}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: n=2^7 and 2^12 (one size per NTT kernel), narrow "
        "width, 1 rep, separate output file",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_kernels.json at the repo root)",
    )
    args = parser.parse_args()

    if args.quick:
        sizes, widths, reps = [1 << 7, 1 << 12], ["narrow"], 1
        out = args.out or REPO_ROOT / "BENCH_kernels.quick.json"
    else:
        sizes = [1 << 7, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15]
        widths = ["narrow", "wide"]
        reps = 5
        out = args.out or REPO_ROOT / "BENCH_kernels.json"

    # Input seeds are per point (and per process); none to stamp.  The
    # ufunc buffer size moves every strided kernel (DESIGN.md Sec. 5).
    header = {**env.header(seed=None), "ufunc_bufsize": np.getbufsize()}
    print(env.render(header))
    print(f"ufunc    buffer {header['ufunc_bufsize']} elements")
    t0 = time.perf_counter()
    results = run(sizes, widths, reps)
    print_table(results)
    out.write_text(json.dumps({"env": header, "results": results}, indent=2) + "\n")
    print(f"\nwrote {out} ({len(results)} records) in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
