"""``benchmarks.ladder`` — one benchmark for the whole stack.

Six named workloads (two encrypted-inference chains, a bootstrap, the
paper-figure model sweep, two serve traffic mixes), one list of
end-to-end metrics every workload reports, and a traced run that adds
per-layer rungs.  ``BENCHMARK.json`` at the repo root is the contract
(names, units, bounds); README.md in this directory explains every
choice.

Entry points::

    python3 benchmarks/ladder/bench.py --workload NAME --seed N \
        --seconds S --trace 0|1          # one workload, one process
    PYTHONPATH=src python -m benchmarks.ladder run [--traced] [--smoke]
    PYTHONPATH=src python -m benchmarks.ladder repeat
    PYTHONPATH=src python -m benchmarks.ladder compare OLD.json NEW.json

Nothing here is imported by ``repro``; every layer is measured from
outside, through its public functions.
"""
