"""Fold pytest-benchmark runs of two trees into ``BENCH_simulator.json``.

The ledger compares ``instrs_per_sec`` (each benchmark's ``extra_info``) of
``test_contest_throughput``, ``test_standalone_throughput`` and
``test_corpus_streaming_throughput`` before and after a change.  Run those
benchmarks from this checkout once or more per tree, alternating the trees,
with the tree's ``src`` first on ``PYTHONPATH``::

    T="benchmarks/test_simulator_throughput.py benchmarks/test_corpus_streaming.py"
    K="contest_throughput or standalone_throughput or corpus_streaming_throughput"
    for i in 1 2 3; do
      PYTHONPATH=../parent/src python -m pytest $T -k "$K" --benchmark-json=before-$i.json
      PYTHONPATH=src python -m pytest $T -k "$K" --benchmark-json=after-$i.json
    done
    python benchmarks/simulator_ledger.py --before before-*.json --after after-*.json

Each file carries the hash of the ``repro`` source it measured (stamped by
``benchmarks/conftest.py``); the files of one side must share it.  A side's
number for a benchmark is the median over its files (alternating the trees
exposes both to the same drift in host speed), and the ledger is rewritten
from the given files alone.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

LEDGER = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
BENCHMARKS = (
    "test_contest_throughput",
    "test_standalone_throughput",
    "test_corpus_streaming_throughput",
)


def fold_side(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One side of the ledger: its source hash and median numbers."""
    hashes = {run.get("source_hash") for run in runs}
    if len(hashes) != 1 or None in hashes:  # unstamped or mixed
        raise ValueError(f"one side mixes source trees: {sorted(hashes)}")
    rates: Dict[str, List[float]] = {}
    for run in runs:
        for bench in run["benchmarks"]:
            rate = bench["extra_info"].get("instrs_per_sec")
            if bench["name"] in BENCHMARKS and rate is not None:
                rates.setdefault(bench["name"], []).append(rate)
    missing = set(BENCHMARKS) - set(rates)
    if missing:
        raise ValueError(f"no instrs_per_sec for {sorted(missing)}")
    return {
        "source_hash": hashes.pop(),
        "files": len(runs),
        "instrs_per_sec": {
            name: round(statistics.median(values), 1)
            for name, values in rates.items()
        },
    }


def fold(
    before: List[Dict[str, Any]], after: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """The ledger for two sides' pytest-benchmark JSON documents."""
    machine = after[0]["machine_info"]
    sides = {"before": fold_side(before), "after": fold_side(after)}
    return {
        "host": {
            "cpu": machine.get("cpu", {}).get("brand_raw"),
            "machine": machine.get("machine"),
            "python": machine.get("python_version"),
        },
        "method": "median instrs_per_sec per side over alternating "
                  "pytest-benchmark runs; benchmarks/simulator_ledger.py",
        **sides,
        "speedup": {
            name: round(sides["after"]["instrs_per_sec"][name]
                        / sides["before"]["instrs_per_sec"][name], 3)
            for name in BENCHMARKS
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", nargs="+", type=Path, required=True)
    parser.add_argument("--after", nargs="+", type=Path, required=True)
    args = parser.parse_args()
    ledger = fold(
        [json.loads(path.read_text()) for path in args.before],
        [json.loads(path.read_text()) for path in args.after],
    )
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(json.dumps(ledger["speedup"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
