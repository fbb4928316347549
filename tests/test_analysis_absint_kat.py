"""Known answers for the static verifier: every field of every verdict.

``tests/data/absint_kat.json`` holds one sha256 per
:class:`~repro.analysis.absint.VerifyResult`, over every field: each
finding's rule, path, line, column and message, every op record, the
bootstrap count, the minimum noise margin, the per-level widths and the
slack.  Floats enter through ``repr``, so a digest moves with any bit of
any number.  The schedules covered:

- ``bundled``: the 20 bundled workload traces at words 28, 36 and 64;
- ``walked``: the 14 distinct schedules ``eval.common.trace_for`` walks
  for the ``model_sweep`` grid (the Fig. 11/13 points at 28 and 64 bits,
  and the Sec. 6.2 LogReg points at 36);
- ``mutated``: every ``MUTATIONS`` entry on every bundled trace at 28;
- ``compiled``: each row of ``compile_workloads(plan=False)``, as the
  compiled trace's verdict plus the row's own before/after figures.

Re-record (only when a verifier or noise rule changes on purpose, never
to make a change pass) with
  PYTHONPATH=src python -c "import tests.test_analysis_absint_kat as t; t.record_kat()"
"""

import hashlib
import json
from pathlib import Path

from repro.analysis.absint import VerifyResult, verify_trace
from repro.eval import common
from repro.trace.compiler import CompiledTrace, compile_workloads
from repro.trace.program import content_digest
from repro.workloads import workload_traces
from tests.oracles.mutations import MUTATIONS

KAT_PATH = Path(__file__).parent / "data" / "absint_kat.json"
KAT_WORDS = (28, 36, 64)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def result_digest(result: VerifyResult) -> str:
    return _digest([
        result.trace_name,
        [(f.rule, f.path, f.line, f.col, f.message) for f in result.findings],
        [
            (r.index, r.kind, r.level, r.scale_lo, r.scale_hi,
             r.noise_margin_bits)
            for r in result.records
        ],
        result.bootstraps,
        result.min_noise_margin_bits,
        result.log2_q,
        result.slack_bits,
    ])


def _compiled_digest(row: CompiledTrace) -> str:
    return _digest([
        result_digest(verify_trace(row.trace)),
        row.scheme, row.word_bits, row.source_digest, row.digest,
        [(p.name, p.rewrites, p.detail) for p in row.passes],
        row.levels_before, row.levels_after,
        row.log2_q_before, row.log2_q_after,
        row.noise_margin_before, row.noise_margin_after,
    ])


def bundled_digests() -> dict[str, str]:
    return {
        f"{word}/{index}/{trace.name}": result_digest(verify_trace(trace))
        for word in KAT_WORDS
        for index, trace in enumerate(workload_traces(word_bits=word))
    }


def walked_traces() -> list:
    """The distinct schedules one ``model_sweep`` pass verifies."""
    seen = {}
    for scheme in common.SCHEMES:
        for app, bs in common.WORKLOAD_GRID:
            for word in (28, 64):
                trace = common.trace_for(app, bs, scheme, word)
                seen.setdefault(content_digest(trace), trace)
        trace = common.trace_for("LogReg", "BS19", scheme, 36)
        seen.setdefault(content_digest(trace), trace)
    return list(seen.values())


def walked_digests() -> dict[str, str]:
    return {
        f"{index}/{trace.name}": result_digest(verify_trace(trace))
        for index, trace in enumerate(walked_traces())
    }


def mutated_digests() -> dict[str, str]:
    return {
        f"{index}/{mutation.name}/{trace.name}":
            result_digest(verify_trace(mutation.apply(trace)))
        for index, trace in enumerate(workload_traces())
        for mutation in MUTATIONS
    }


def compiled_digests(rows) -> dict[str, str]:
    return {
        f"{index}/{row.trace.name}": _compiled_digest(row)
        for index, row in enumerate(rows)
    }


def record_kat() -> None:
    KAT_PATH.write_text(json.dumps({
        "bundled": bundled_digests(),
        "walked": walked_digests(),
        "mutated": mutated_digests(),
        "compiled": compiled_digests(compile_workloads(plan=False)),
    }, indent=1) + "\n")


KAT = json.loads(KAT_PATH.read_text())


def _mismatches(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return sorted(
        key for key in got.keys() | want.keys() if got.get(key) != want.get(key)
    )


class TestVerifierKat:
    def test_bundled_traces(self):
        assert len(KAT["bundled"]) == 20 * len(KAT_WORDS)
        assert _mismatches(bundled_digests(), KAT["bundled"]) == []

    def test_walked_model_sweep_schedules(self):
        assert len(KAT["walked"]) == 14
        assert _mismatches(walked_digests(), KAT["walked"]) == []

    def test_every_mutation_of_every_bundled_trace(self):
        assert len(KAT["mutated"]) == 20 * len(MUTATIONS)
        assert _mismatches(mutated_digests(), KAT["mutated"]) == []

    def test_compiled_workloads(self, compiled_workloads):
        assert len(KAT["compiled"]) == 20
        assert _mismatches(
            compiled_digests(compiled_workloads), KAT["compiled"]
        ) == []
