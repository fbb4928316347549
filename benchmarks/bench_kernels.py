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

Each ``(kernel, n, width)`` point is measured once, plus once against
the pre-vectorization per-block / per-row baseline preserved in
:mod:`repro.nt.ntt_reference` (and the legacy row-loop helpers below;
for the stacked multiply-accumulate, the 2-D call once per term);
``speedup_vs_baseline`` is what the vectorization bought.  The timed
calls run round-robin over the whole sweep (one call per point per
round), so machine noise spreads over every row rather than whole
rows; each point's median is over its own calls.

Results are written to ``BENCH_kernels.json`` at the repo root as
``{"env": ..., "results": [...]}`` — the benchmark ladder's environment
header (machine, python, numpy, engine, git commit) plus numpy's ufunc
buffer size (``ufunc_bufsize``) over records
``{kernel, n, width, median_s, baseline_median_s, speedup_vs_baseline}``
— and printed as a table.

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
from repro.nt.ntt_reference import reference_ntt_context
from repro.nt.primes import ntt_friendly_primes_below
from repro.rns.basis import RnsBasis, crt_weights
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
# Legacy (pre-PR) row-loop helpers: the per-row code paths the vectorized
# RnsPolynomial / convert kernels replaced, reproduced here as baselines.
# ----------------------------------------------------------------------
def legacy_to_ntt(rows, moduli, n):
    return [reference_ntt_context(q, n).forward(r) for q, r in zip(moduli, rows)]


def legacy_to_coeff(rows, moduli, n):
    return [reference_ntt_context(q, n).inverse(r) for q, r in zip(moduli, rows)]


def legacy_pointwise(rows_a, rows_b, moduli):
    return [modmath.mod_mul(a, b, q) for a, b, q in zip(rows_a, rows_b, moduli)]


def legacy_add(rows_a, rows_b, moduli):
    return [modmath.mod_add(a, b, q) for a, b, q in zip(rows_a, rows_b, moduli)]


def legacy_poly_mul(rows_a, rows_b, moduli, n):
    fa = legacy_to_ntt(rows_a, moduli, n)
    fb = legacy_to_ntt(rows_b, moduli, n)
    return legacy_to_coeff(legacy_pointwise(fa, fb, moduli), moduli, n)


def legacy_base_convert(rows, src_moduli, dst_moduli, n):
    src = RnsBasis(n, src_moduli)
    q_hat_inv, q_hat = crt_weights(src)
    v_rows = [
        modmath.mod_scalar_mul(row, inv, q)
        for row, inv, q in zip(rows, q_hat_inv, src_moduli)
    ]
    acc = np.zeros(n, dtype=np.float64)
    for v, q in zip(v_rows, src_moduli):
        acc += v.astype(np.float64) / float(q)
    alpha = np.rint(acc).astype(np.int64)
    big_q = src.product
    out_rows = []
    for p in dst_moduli:
        acc_row = modmath.zeros(n, p)
        for v, h in zip(v_rows, q_hat):
            term = modmath.mod_scalar_mul(modmath.as_mod_array(v, p), h % p, p)
            acc_row = modmath.mod_add(acc_row, term, p)
        corr = modmath.mod_scalar_mul(modmath.as_mod_array(alpha, p), big_q % p, p)
        out_rows.append(modmath.mod_sub(acc_row, corr, p))
    return out_rows


def legacy_scale_down(rows, moduli, shed, n):
    from math import prod

    p_prod = prod(shed)
    keep = [q for q in moduli if q not in set(shed)]
    shed_rows = [rows[moduli.index(q)] for q in shed]
    lifted = legacy_base_convert(shed_rows, shed, keep, n)
    out_rows = []
    for q, lift in zip(keep, lifted):
        inv = modmath.mod_inv(p_prod % q, q)
        diff = modmath.mod_sub(rows[moduli.index(q)], lift, q)
        out_rows.append(modmath.mod_scalar_mul(diff, inv, q))
    return out_rows


# ----------------------------------------------------------------------
# Kernel setups: each returns (vectorized_callable, baseline_callable).
# ----------------------------------------------------------------------
def make_ntt_forward(n, width, rng):
    q = primes_for(width, n, 1)[0]
    a = modmath.uniform_mod(q, n, rng)
    ctx, ref = ntt_context(q, n), reference_ntt_context(q, n)
    return (lambda: ctx.forward(a)), (lambda: ref.forward(a))


def make_ntt_inverse(n, width, rng):
    q = primes_for(width, n, 1)[0]
    a = modmath.uniform_mod(q, n, rng)
    ctx, ref = ntt_context(q, n), reference_ntt_context(q, n)
    return (lambda: ctx.inverse(a)), (lambda: ref.inverse(a))


def make_ntt_forward_k16(n, width, rng):
    moduli = tuple(primes_for(width, n, 16))
    a = sample_uniform(RnsBasis(n, moduli), rng, COEFF).mat
    return (lambda: forward_rows(a, moduli)), (lambda: legacy_to_ntt(a, moduli, n))


def make_poly_mul(n, width, rng):
    moduli = primes_for(width, n, 4)
    basis = RnsBasis(n, moduli)
    a = sample_uniform(basis, rng, COEFF)
    b = sample_uniform(basis, rng, COEFF)
    def vec():
        return a.poly_mul(b)

    def base():
        return legacy_poly_mul(a.rows, b.rows, moduli, n)

    return vec, base


def make_base_convert(n, width, rng):
    primes = primes_for(width, n, 8)
    src, dst = primes[:4], primes[4:]
    poly = sample_uniform(RnsBasis(n, src), rng, COEFF)
    def vec():
        return base_convert(poly, dst, exact=True)

    def base():
        return legacy_base_convert(poly.rows, src, dst, n)

    return vec, base


def make_rescale(n, width, rng):
    moduli = primes_for(width, n, 5)
    poly = sample_uniform(RnsBasis(n, moduli), rng, COEFF)
    shed = (moduli[-1],)
    def vec():
        return scale_down(poly, shed)

    def base():
        return legacy_scale_down(poly.rows, list(moduli), list(shed), n)

    return vec, base


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

    def vec():
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

    def base():
        acc0 = acc1 = None
        for group, (b_row, a_row) in zip(groups, rows):
            digit = [d.row(q) for q in group]
            ext = legacy_base_convert(digit, group, full, n)
            ext = legacy_to_ntt(ext, full, n)
            t0 = legacy_pointwise(ext, b_row.rows, full)
            t1 = legacy_pointwise(ext, a_row.rows, full)
            acc0 = t0 if acc0 is None else legacy_add(acc0, t0, full)
            acc1 = t1 if acc1 is None else legacy_add(acc1, t1, full)
        return (
            legacy_scale_down(
                legacy_to_coeff(acc0, full, n), list(full), list(specials), n
            ),
            legacy_scale_down(
                legacy_to_coeff(acc1, full, n), list(full), list(specials), n
            ),
        )

    return vec, base


def make_mul_acc(m):
    """``acc + Σ_m a[m] · b[m]`` over an ``(m, 4, n)`` stack in one
    ``pointwise_mul_acc`` call, against the 2-D call once per term."""

    def make(n, width, rng):
        basis = RnsBasis(n, primes_for(width, n, 4))
        a, b = (
            np.stack([sample_uniform(basis, rng, NTT).mat for _ in range(m)])
            for _ in range(2)
        )
        acc = sample_uniform(basis, rng, NTT).mat
        q_col, kind = basis.q_col, basis.kind

        def vec():
            return backends.pointwise_mul_acc(acc, a, b, q_col, kind)

        def base():
            out = acc
            for x, y in zip(a, b):
                out = backends.pointwise_mul_acc(out, x, y, q_col, kind)
            return out

        return vec, base

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


def run(sizes, widths, reps, baseline_reps):
    """Time every point's calls round-robin across the whole sweep.

    Every point is built and warmed first; then each round makes one
    timed call of every point that still has reps left, so a noisy
    minute of the machine spreads over all rows instead of landing on
    the few points timed in it.  The number of timed calls per point is
    the same as a per-point burst would make.
    """
    points = []
    for width in widths:
        for n in sizes:
            for kernel, make in KERNELS.items():
                rng = np.random.default_rng(hash((kernel, n, width)) % 2**32)
                vec, base = make(n, width, rng)
                big = n > 1 << 13
                points.append({
                    "kernel": kernel, "n": n, "width": width,
                    "calls": (
                        (vec, max(1, reps // 2) if big else reps, []),
                        (base, 1 if big else baseline_reps, []),
                    ),
                })
    for point in points:  # warmup: builds cached tables outside the timing
        for fn, _reps, _times in point["calls"]:
            fn()
    for rnd in range(max(reps, baseline_reps)):
        for point in points:
            for fn, count, times in point["calls"]:
                if rnd < count:
                    t0 = time.perf_counter()
                    fn()
                    times.append(time.perf_counter() - t0)
    results = []
    for point in points:
        (_, _, vec_times), (_, _, base_times) = point.pop("calls")
        median_s = statistics.median(vec_times)
        baseline_s = statistics.median(base_times)
        results.append({
            **point,
            "median_s": median_s,
            "baseline_median_s": baseline_s,
            "speedup_vs_baseline": baseline_s / median_s,
        })
        n = point["n"]
        print(
            f"  {point['kernel']:<15} n=2^{n.bit_length() - 1:<3} "
            f"{point['width']:<7} {median_s * 1e3:9.3f} ms   "
            f"base {baseline_s * 1e3:9.3f} ms   "
            f"speedup {baseline_s / median_s:7.1f}x",
            flush=True,
        )
    return results


def print_table(results):
    print()
    print(f"{'kernel':<15} {'n':>6} {'width':<7} {'median_s':>12} {'vs base':>9}")
    print("-" * 53)
    for r in results:
        print(
            f"{r['kernel']:<15} {r['n']:>6} {r['width']:<7} "
            f"{r['median_s']:>12.6f} {r['speedup_vs_baseline']:>8.1f}x"
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
        sizes, widths, reps, baseline_reps = [1 << 7, 1 << 12], ["narrow"], 1, 1
        out = args.out or REPO_ROOT / "BENCH_kernels.quick.json"
    else:
        sizes = [1 << 7, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15]
        widths = ["narrow", "wide"]
        reps, baseline_reps = 5, 2
        out = args.out or REPO_ROOT / "BENCH_kernels.json"

    # Input seeds are per point (and per process); none to stamp.  The
    # ufunc buffer size moves every strided kernel (DESIGN.md Sec. 5).
    header = {**env.header(seed=None), "ufunc_bufsize": np.getbufsize()}
    print(env.render(header))
    print(f"ufunc    buffer {header['ufunc_bufsize']} elements")
    t0 = time.perf_counter()
    results = run(sizes, widths, reps, baseline_reps)
    print_table(results)
    out.write_text(json.dumps({"env": header, "results": results}, indent=2) + "\n")
    print(f"\nwrote {out} ({len(results)} records) in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
