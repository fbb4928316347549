"""Result documents: build one from a workload run, render it, compare them."""

from __future__ import annotations

from dataclasses import asdict

from benchmarks.ladder import env
from benchmarks.ladder.harness import SCHEMA, WorkloadResult, table


#: How a metric scales with machine speed, by unit: a duration times
#: ``speed`` is the duration on the reference machine; a rate divides.
TIME_POWER = {"s": 1, "ms": 1, "1/s": -1}


def _catalogue(contract: dict, section: str) -> dict[str, dict]:
    return {metric["name"]: metric for metric in contract[section]}


def result_document(result: WorkloadResult, contract: dict, seed: int,
                    seconds: float, traced: bool, smoke: bool) -> dict:
    """The stamped record of one workload run.

    Units come from ``BENCHMARK.json`` alone.  A workload must report
    every ``end_to_end`` metric; a traced run may leave ``per_layer``
    metrics of layers it never enters unset (they read 0), but may not
    invent a name the contract does not list.
    """
    end_to_end = _catalogue(contract, "end_to_end")
    per_layer = _catalogue(contract, "per_layer")
    missing = sorted(set(end_to_end) - set(result.end_to_end))
    unknown = sorted(
        (set(result.end_to_end) - set(end_to_end))
        | (set(result.per_layer) - set(per_layer))
    )
    if missing or unknown:
        raise RuntimeError(
            f"{result.workload}: metrics disagree with BENCHMARK.json "
            f"(missing {missing}, unknown {unknown})"
        )

    def stamped(values: dict, catalogue: dict, speed: float = 1.0) -> dict:
        return {
            name: {
                "value": float(values.get(name, 0.0))
                * speed ** TIME_POWER.get(spec["unit"], 0),
                "unit": spec["unit"],
            }
            for name, spec in catalogue.items()
        }

    return {
        "schema": SCHEMA,
        "env": env.header(seed),
        "workload": result.workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "comparable": not smoke,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_fraction": result.failed / result.attempted,
        # Time metrics in reference seconds (benchmarks.ladder.probe);
        # the wall-clock readings stay beside them.
        "machine_speed": result.machine_speed,
        "end_to_end": stamped(result.end_to_end, end_to_end,
                              result.machine_speed),
        "wall_end_to_end": stamped(result.end_to_end, end_to_end),
        "per_layer": stamped(result.per_layer, per_layer) if traced else {},
        "samples": result.samples,
        "checks": [asdict(check) for check in result.checks],
        "notes": result.notes,
    }


def driver_line(doc: dict, traced: bool) -> dict:
    """The contract's last stdout line."""
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["per_layer"] if traced else doc["end_to_end"],
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render(doc: dict) -> str:
    lines = [
        f"== {doc['workload']}  (seed {doc['seed']}, {doc['seconds']:g} s"
        f"{', traced' if doc['traced'] else ''}"
        f"{'' if doc['comparable'] else ', SMOKE: numbers not comparable'}) ==",
        env.render(doc["env"]),
        "",
    ]
    samples = doc["samples"]
    rows = [("end-to-end metric", "value", "unit", "wall clock", "samples")]
    for name, metric in doc["end_to_end"].items():
        rows.append((name, _fmt(metric["value"]), metric["unit"],
                     _fmt(doc["wall_end_to_end"][name]["value"]),
                     samples.get(name, "")))
    rows.append(("failed_fraction", _fmt(doc["failed_fraction"]), "ratio", "",
                 f"{doc['failed']}/{doc['attempted']}"))
    lines.append(table(rows))
    lines.append(
        f"(times in reference seconds: wall clock x machine speed "
        f"{doc['machine_speed']:.4f}, from the run's own speed probe)")
    if doc["traced"]:
        rows = [("per-layer metric", "value", "unit")]
        for name, metric in doc["per_layer"].items():
            if metric["value"] != 0.0:
                rows.append((name, _fmt(metric["value"]), metric["unit"]))
        lines += ["", table(rows),
                  "(per-layer metrics of layers this workload never enters "
                  "read 0 and are not shown)"]
    lines.append("")
    for key, value in doc["notes"].items():
        if key != "fig13":
            lines.append(f"note  {key}: {value}")
    for check in doc["checks"]:
        verdict = "ok  " if check["ok"] else "FAIL"
        lines.append(f"check {verdict} {check['name']}"
                     + (f" [{check['detail']}]" if check["detail"] else ""))
    return "\n".join(lines)
