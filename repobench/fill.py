"""Fill a result store with one tiny-scale reproduction.

``paper-warm`` runs this as a child process before it times any replay,
so the store it replays from is written by the program of the checkout
under test::

    python3 repobench/fill.py --seed 11 --store DIR [--workers 2]
        [--experiments fig01,ext_corpus]

Writes the store and ``DIR/rendered.txt`` and prints one JSON summary
line: the output digest, the directory of the ``repro`` package that ran,
the instructions simulated, and the failed-job and store-write-error
counts.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--experiments", type=lambda s: s.split(","),
                        help="comma-separated experiments (default: all)")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro
    from repro.engine import ParallelExecutor, ResultStore, SimEngine
    from repobench.workloads import CountingExecutor, reproduce, sha256

    inner = ParallelExecutor(workers=args.workers) if args.workers > 1 else None
    executor = CountingExecutor(inner)
    engine = SimEngine(executor=executor, store=ResultStore(args.store))
    text = reproduce(engine, args.seed, args.experiments)
    (args.store / "rendered.txt").write_text(text)
    print(json.dumps({
        "digest": sha256(text),
        "program": str(Path(repro.__file__).resolve().parent),
        "instructions": executor.instructions,
        "simulated": engine.stats.misses,
        "failures": engine.stats.failures,
        "write_errors": engine.store.write_errors,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
