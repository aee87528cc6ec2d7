"""Run the benchmark over several seeds and summarise each metric.

    python3 repobench/sweep.py --workload paper-warm --seeds 1-10 [--seconds 10]
    python3 repobench/sweep.py --all --seeds 1-10 --record

Runs ``run.py`` once per seed (serially, as separate processes) and
prints, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, which is the
interquartile range as a share of the median.  ``--record`` writes the
summary into ``baseline.json`` next to this file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"


def seed_range(text: str) -> List[int]:
    """``"3"`` -> [3]; ``"1-10"`` -> [1, ..., 10]."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def sweep(workload: str, seeds: List[int], seconds: int) -> Dict[str, Any]:
    samples: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: {result}")
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            file=sys.stderr, flush=True)
    return {name: dict(summarise(values), unit=units[name],
                       values=values)
            for name, values in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = ([w["name"] for w in bench["workloads"]] if args.all
             else [args.workload])
    summary = {name: sweep(name, args.seeds, seconds) for name in names}
    for workload, metrics in summary.items():
        for name, stats in metrics.items():
            print(f"{workload:14} {name:12} median {stats['median']:.4g} "
                  f"{stats['unit']}  q1 {stats['q1']:.4g}  "
                  f"q3 {stats['q3']:.4g}  spread {stats['spread']:.3f}")
    if args.record:
        BASELINE.write_text(json.dumps({
            "seeds": args.seeds,
            "run_seconds": seconds,
            "host": f"{platform.machine()}, Python "
                    f"{platform.python_version()}, {os.cpu_count()} CPUs",
            "workloads": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
