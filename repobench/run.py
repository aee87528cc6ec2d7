"""Repo benchmark: regenerate part of the paper cold, and replay it warm.

Run from the root of a checkout::

    python3 repobench/run.py --workload ext-cold --seed 11 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes a Chrome trace under ``.bench_build/repobench/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and the metric map.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "repobench"

#: setup probes before and again after the timed phase; one more, first
#: and discarded, warms bytecode and file caches
SETUP_PROBES = 4

#: reference loops timed between two setup probes
SETUP_REFERENCES = 3

WORKLOAD_NAMES = ("ext-cold", "paper-warm")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for repeating the unit of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(args: argparse.Namespace, count: int) -> List[float]:
    """Times from process start to inputs built, over ``count`` fresh
    child processes, each at the reference speed of the reference loops
    timed just before and just after it."""
    from repobench import speed

    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--probe-setup"]

    def references() -> List[float]:
        return [speed.reference_time() for _ in range(SETUP_REFERENCES)]

    samples = []
    before = references()
    for _ in range(count):
        started = time.perf_counter_ns()
        done = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                              text=True)
        ready = int(done.stdout.split()[-1])
        after = references()
        samples.append((ready - started) / 1e9 * speed.scale(before + after))
        before = after
    return samples


def run_units(workload: Any, seconds: float) -> List[Any]:
    """Repeat the unit of work while another one fits in ``seconds``
    (always at least one).

    A reference loop is timed between units, and the workload times more
    inside a unit, next to each piece of its work; a unit's references
    are those inside it and those on either side of it."""
    from repobench import speed

    workload.reference = speed.reference_time
    units = []
    before = speed.reference_time()
    started = time.perf_counter()
    while True:
        workload.fresh()
        unit = workload.run_unit()
        after = speed.reference_time()
        unit.refs = [before] + unit.refs + [after]
        before = after
        units.append(unit)
        elapsed = time.perf_counter() - started
        typical = statistics.median(u.wall_s for u in units)
        if elapsed + typical > seconds:
            return units


def tally_failures(units: List[Any]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over the units: every resolved
    job and every output check is an operation, and so is the check that
    all units rendered the same text by simulating the same jobs."""
    attempted = sum(u.jobs for u in units) + len(units) + 1
    failed = 0
    problems = []
    if len({(u.digest, tuple(u.job_kinds)) for u in units}) > 1:
        failed += 1
        problems.append("repetitions of the unit differ in output or jobs")
    for u in units:
        failed += u.failures + u.write_errors
        if u.mismatch is not None:
            failed += 1
            problems.append(u.mismatch)
        if u.failures or u.write_errors:
            problems.append(f"{u.failures} job failures, "
                            f"{u.write_errors} store write errors")
    return attempted, failed, problems


def untraced(args: argparse.Namespace, workload: Any) -> Dict[str, Any]:
    from repobench.workloads import scaled_wall, sim_kips

    setup = probe_setup(args, 1 + SETUP_PROBES)[1:]
    workload.prepare()
    fill_failed = _fill(workload)
    units = run_units(workload, args.seconds)
    setup += probe_setup(args, SETUP_PROBES)
    scales = [u.scale for u in units]
    print(f"[repobench] {len(units)} units; reference speed scale "
          f"{min(scales):.3f}-{max(scales):.3f}; median unit as measured "
          f"{statistics.median(u.wall_s for u in units):.4f} s",
          file=sys.stderr)
    attempted, failed, problems = tally_failures(units)
    metrics = {
        "wall_s": (scaled_wall(units), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_kips": (sim_kips(units), "kinstr/s"),
    }
    return _result(attempted, failed + fill_failed, problems, metrics)


def traced(args: argparse.Namespace, workload: Any) -> Dict[str, Any]:
    from repobench import layers
    from repobench.spans import SpanTracer, write_chrome_trace
    from repobench.workloads import fastest

    tracer = SpanTracer()
    tally = layers.SimTally()
    with layers.instrumented(tracer, tally), tracer.span("setup"):
        workload.prepare()
    fill_failed = _fill(workload)
    plain: List[Any] = []
    units: List[Any] = []
    started = time.perf_counter()
    while True:
        # untraced and traced units alternate, so that both sample the
        # same stretches of the host's drifting speed
        workload.fresh()
        plain.append(workload.run_unit())
        workload.fresh()
        tracer.run_id = len(units) + 1
        with layers.instrumented(tracer, tally), tracer.span("unit"):
            units.append(workload.run_unit())
        pair_s = statistics.median(p.wall_s + u.wall_s
                                   for p, u in zip(plain, units))
        if time.perf_counter() - started + pair_s > args.seconds:
            break
    stream_gen_s = measure_stream_gen(workload)

    # traced and untraced units must agree in output and jobs
    attempted, failed, problems = tally_failures(plain + units)
    total_self, root = tracer.self_time_check()
    if total_self != root:
        failed += 1
        problems.append(f"self times sum to {total_self} ns, "
                        f"traced roots last {root} ns")
    overhead_s = fastest(units) - fastest(plain)
    metrics = layers.per_layer_metrics(
        tracer, tally, units, overhead_s, stream_gen_s)
    path = write_chrome_trace(
        OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json",
        tracer.spans, f"repobench {args.workload} seed {args.seed}")
    print(f"[repobench] chrome trace written to {path}", file=sys.stderr)
    return _result(attempted, failed + fill_failed, problems, metrics)


def measure_stream_gen(workload: Any) -> float:
    """Seconds to generate the workload's traces chunk by chunk."""
    from repro.corpus.registry import resolve_profile
    from repro.isa.stream import StreamingTrace

    started = time.perf_counter()
    for spec in workload.stream_specs():
        trace = StreamingTrace(resolve_profile(spec.profile), spec.length,
                               seed=spec.seed)
        for _ in trace.chunks():
            pass
    return time.perf_counter() - started


def _fill(workload: Any) -> int:
    """Run the workload's untimed fill; its failed operations."""
    filled = workload.fill()
    return filled["failures"] + filled["write_errors"] if filled else 0


def _result(attempted: int, failed: int, problems: List[str],
            metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
    for problem in problems:
        print(f"[repobench] FAILED CHECK: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"repobench: no program source under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repobench.workloads import WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.probe_setup:
            workload.prepare()
            workload.fresh()
            print(time.perf_counter_ns())
            return 0
        run = traced if args.trace else untraced
        result = run(args, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
