"""Table 1: end-to-end error-free mantissa bits per benchmark.

Runs scaled-down functional analogues of the five applications through
the real CKKS implementation under both schemes and reports mean and
worst-case error-free mantissa bits vs an unencrypted long-double
reference.  Each analogue preserves the properties Table 1 exposes:

- the application scale (45 bits for ResNet/RNN, 35 for the others),
- a bootstrap in the middle (the functional BS19/BS26 substitute sets
  the precision floor),
- the numerical character: AESPA-style pipelines iterate the error-
  amplifying Chebyshev step ``2x^2 - 1`` (|T'| up to 4 per level — the
  instability the paper blames for AESPA's lower precision), while the
  other workloads interleave contracting plaintext multiplies.

The paper's claims this reproduces: BitPacker matches RNS-CKKS within
~1 bit everywhere, with both schemes' precision set by workload depth
and the bootstrap floor, not by the residue representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.bootstrap import BS19, BS26, BootstrapAlgorithm, FunctionalBootstrapper
from repro.errors import ParameterError
from repro.eval import runner
from repro.eval.common import SCHEMES, format_table
from repro.eval.precision import precision_context


@dataclass(frozen=True)
class AnalogueSpec:
    """Structural summary of one application's numerical pipeline."""

    name: str
    scale_bits: float
    bootstrap: BootstrapAlgorithm
    pre_rounds: int  # rounds before the bootstrap
    post_rounds: int  # rounds after the bootstrap
    unstable: bool  # Chebyshev (amplifying) vs damped rounds


ANALOGUES = (
    AnalogueSpec("ResNet-20", 45.0, BS19, pre_rounds=4, post_rounds=2,
                 unstable=False),
    AnalogueSpec("ResNet-20+AESPA", 45.0, BS19, pre_rounds=3, post_rounds=5,
                 unstable=True),
    AnalogueSpec("RNN", 45.0, BS26, pre_rounds=4, post_rounds=1,
                 unstable=False),
    AnalogueSpec("SqueezeNet", 35.0, BS26, pre_rounds=3, post_rounds=2,
                 unstable=False),
    AnalogueSpec("LogReg", 35.0, BS19, pre_rounds=3, post_rounds=4,
                 unstable=True),
)


def _stable_round(ctx, ct, ref):
    """Conv-like round: contracting plaintext multiply, square, rotate."""
    ev = ctx.evaluator
    ct = ev.rescale(ev.mul_plain(ct, 0.8))
    ref = ref * np.longdouble(0.8)
    ct = ev.rescale(ev.square(ct))
    ref = ref * ref
    ct = ev.rotate(ct, 1)
    ref = np.roll(ref, -1)
    ct = ev.add_plain(ct, 0.05)
    ref = ref + np.longdouble(0.05)
    return ct, ref


def _unstable_round(ctx, ct, ref):
    """Chebyshev step ``2x^2 - 1``: range-preserving, error-amplifying."""
    ev = ctx.evaluator
    sq = ev.rescale(ev.square(ct))
    ct = ev.sub_plain(ev.mul_integer(sq, 2), 1.0)
    ref = 2 * ref * ref - 1
    return ct, ref


def analogue_point(
    benchmark: str, scheme: str, samples: int, n: int, seed: int
) -> tuple[float, float]:
    """One disk-cached (analogue, scheme) cell of Table 1."""
    spec = next((s for s in ANALOGUES if s.name == benchmark), None)
    if spec is None:
        raise ParameterError(f"unknown Table 1 analogue {benchmark!r}")
    params = {
        "benchmark": spec.name, "scheme": scheme, "samples": samples,
        "n": n, "seed": seed, "scale_bits": spec.scale_bits,
        "bootstrap": spec.bootstrap.name, "pre_rounds": spec.pre_rounds,
        "post_rounds": spec.post_rounds, "unstable": spec.unstable,
    }
    mean, worst = runner.cached(
        "table1", params,
        compute=lambda: _run_analogue(spec, scheme, samples, n, seed),
        encode=list,
    )
    return mean, worst


def _run_analogue(
    spec: AnalogueSpec, scheme: str, samples: int, n: int, seed: int
) -> tuple[float, float]:
    """Returns (mean_bits, worst_bits) across samples and slots."""
    levels = 2 * max(spec.pre_rounds, spec.post_rounds) + 4
    ctx = precision_context(scheme, spec.scale_bits, levels=levels, n=n)
    boot = FunctionalBootstrapper(ctx, spec.bootstrap)
    rng = np.random.default_rng(seed)
    round_fn = _unstable_round if spec.unstable else _stable_round
    per_sample_mean = []
    worst = np.inf
    for _ in range(samples):
        values = rng.uniform(-0.9, 0.9, ctx.slots)
        ref = values.astype(np.longdouble)
        ct = ctx.encrypt(values)
        for _ in range(spec.pre_rounds):
            ct, ref = round_fn(ctx, ct, ref)
        ct = boot.bootstrap(ct)
        for _ in range(spec.post_rounds):
            ct, ref = round_fn(ctx, ct, ref)
        err = np.abs(ctx.decrypt_real(ct) - ref)
        err = np.maximum(err, np.longdouble(2.0) ** -60)
        bits = -np.log2(err)
        per_sample_mean.append(float(np.mean(bits)))
        worst = min(worst, float(np.min(bits)))
    return float(np.mean(per_sample_mean)), worst


@dataclass(frozen=True)
class Table1Row:
    benchmark: str
    bp_mean: float
    rns_mean: float
    bp_worst: float
    rns_worst: float


def run(samples: int = 3, n: int = 1024, seed: int = 5) -> list[Table1Row]:
    calls = [
        dict(benchmark=spec.name, scheme=scheme, samples=samples, n=n,
             seed=seed)
        for spec in ANALOGUES
        for scheme in SCHEMES
    ]
    results = runner.map_grid(analogue_point, calls)
    rows = []
    for index, spec in enumerate(ANALOGUES):
        (bp_mean, bp_worst), (rns_mean, rns_worst) = (
            results[2 * index], results[2 * index + 1]
        )
        rows.append(
            Table1Row(
                benchmark=spec.name,
                bp_mean=bp_mean,
                rns_mean=rns_mean,
                bp_worst=bp_worst,
                rns_worst=rns_worst,
            )
        )
    return rows


def render(rows: list[Table1Row]) -> str:
    table = format_table(
        ["benchmark", "BP mean", "R-C mean", "BP worst", "R-C worst"],
        [
            [
                r.benchmark,
                f"{r.bp_mean:.1f}",
                f"{r.rns_mean:.1f}",
                f"{r.bp_worst:.1f}",
                f"{r.rns_worst:.1f}",
            ]
            for r in rows
        ],
    )
    gap = max(abs(r.bp_mean - r.rns_mean) for r in rows)
    return (
        "Table 1 — error-free mantissa bits (functional analogues)\n"
        f"{table}\n"
        f"largest mean gap between schemes: {gap:.2f} bits "
        "(paper: <= 1 bit, BitPacker matches RNS-CKKS)"
    )
