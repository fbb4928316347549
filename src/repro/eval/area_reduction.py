"""Sec. 6.3: BitPacker lets the accelerator shrink without losing speed.

Because BitPacker's ciphertexts use fewer residues, the register file and
the CRB's MAC depth can shrink with little or no performance loss; the
paper reports a 472.3 -> 395.5 mm² area reduction (RF to 200 MB, CRB
-28%) with no regression, and a 3.0x energy-delay-area-product
improvement over RNS-CKKS on the original configuration.

Our working-set model puts BitPacker's footprint slightly above 200 MB,
so we evaluate both the paper's configuration and the smallest
no-regression configuration the model supports (RF 225 MB), and report
EDAP for the latter.  The direction and most of the magnitude of the
paper's claim survive; EXPERIMENTS.md discusses the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.area import DEFAULT_AREA_MODEL
from repro.accel.config import craterlake
from repro.eval import runner
from repro.eval.common import WORKLOAD_GRID, gmean, simulate

PAPER_RF_MB = 200.0
NO_LOSS_RF_MB = 225.0
CRB_SHRINK = 0.28


@dataclass(frozen=True)
class ReducedDesign:
    label: str
    rf_mb: float
    area_mm2: float
    perf_regression: float  # gmean BitPacker time ratio vs baseline
    edap_improvement: float  # RNS on baseline vs BitPacker on this design


@dataclass(frozen=True)
class AreaReductionResult:
    baseline_area_mm2: float
    paper_point: ReducedDesign
    no_loss_point: ReducedDesign


def _evaluate(label: str, rf_mb: float, base_area: float) -> ReducedDesign:
    cfg = craterlake().with_register_file(rf_mb).with_crb_shrink(CRB_SHRINK)
    area = DEFAULT_AREA_MODEL.total_area(cfg)
    variants = (
        dict(scheme="bitpacker"),
        dict(scheme="bitpacker", register_file_mb=rf_mb, crb_shrink=CRB_SHRINK),
        dict(scheme="rns-ckks"),
    )
    calls = [
        dict(app=app, bs=bs, word_bits=28, **variant)
        for app, bs in WORKLOAD_GRID
        for variant in variants
    ]
    results = runner.map_grid(simulate, calls)
    perf_ratios = []
    edaps = []
    for index in range(len(WORKLOAD_GRID)):
        bp_base, bp_small, rns_base = results[3 * index:3 * index + 3]
        perf_ratios.append(bp_small.time_s / bp_base.time_s)
        edaps.append((rns_base.edp * base_area) / (bp_small.edp * area))
    return ReducedDesign(
        label=label,
        rf_mb=rf_mb,
        area_mm2=area,
        perf_regression=gmean(perf_ratios),
        edap_improvement=gmean(edaps),
    )


def run() -> AreaReductionResult:
    base_area = DEFAULT_AREA_MODEL.total_area(craterlake())
    return AreaReductionResult(
        baseline_area_mm2=base_area,
        paper_point=_evaluate("paper (RF 200 MB)", PAPER_RF_MB, base_area),
        no_loss_point=_evaluate(
            "model no-loss (RF 225 MB)", NO_LOSS_RF_MB, base_area
        ),
    )


def render(result: AreaReductionResult) -> str:
    lines = [
        "Sec. 6.3 — area reduction enabled by BitPacker",
        f"baseline CraterLake area: {result.baseline_area_mm2:.1f} mm^2 "
        "(paper: 472.3)",
    ]
    for design in (result.paper_point, result.no_loss_point):
        saved = 1.0 - design.area_mm2 / result.baseline_area_mm2
        lines.append(
            f"{design.label}: {design.area_mm2:.1f} mm^2 "
            f"(-{saved * 100:.1f}%), BitPacker perf "
            f"{design.perf_regression:.3f}x baseline, EDAP vs RNS-CKKS "
            f"{design.edap_improvement:.2f}x"
        )
    lines.append(
        "paper: 395.5 mm^2 (-16%), no performance loss, 3.0x EDAP"
    )
    return "\n".join(lines)
