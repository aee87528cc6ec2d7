"""Record the output digests the benchmark checks against.

    python3 repobench/record_digests.py --paper 0-20 --cold 0-99

For each ``--paper`` seed this runs one tiny-scale reproduction (the
output of ``paper-warm``) and writes its digest, and the digest of each
experiment's section of it, to ``digests.json``.  For each ``--cold``
seed it runs the experiments of ``ext-cold`` alone and writes the digest
of their text.  Entries of seeds not named are kept.  Re-record only
when the program's results are meant to change, and say so where the
change is described.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SCRATCH = ROOT / ".bench_build" / "repobench"


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repobench.sweep import seed_range
    from repobench.workloads import COLD_EXPERIMENTS, sections, sha256

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paper", type=seed_range, default=[])
    parser.add_argument("--cold", type=seed_range, default=[])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    digests = json.loads(DIGESTS.read_text())
    for seed in args.paper:
        summary, text = fill(seed, args.workers)
        digests["paper"][str(seed)] = summary["digest"]
        digests.setdefault("sections", {})[str(seed)] = {
            name: sha256(part) for name, part in sections(text).items()
        }
        save(digests)
        print(f"paper seed {seed}: {summary['digest']}", flush=True)
    for seed in args.cold:
        summary, _ = fill(seed, args.workers, COLD_EXPERIMENTS)
        digests.setdefault("cold", {})[str(seed)] = summary["digest"]
        save(digests)
        print(f"cold seed {seed}: {summary['digest']}", flush=True)
    return 0


def fill(seed: int, workers: int,
         names: Optional[Sequence[str]] = None) -> Tuple[Dict[str, Any], str]:
    """Run ``fill.py`` into a scratch store; its summary and text."""
    from repobench.workloads import fill_command

    with tempfile.TemporaryDirectory(dir=SCRATCH) as store:
        done = subprocess.run(
            fill_command(seed, Path(store), workers, names),
            check=True, stdout=subprocess.PIPE, text=True,
        )
        text = (Path(store) / "rendered.txt").read_text()
    summary = json.loads(done.stdout.splitlines()[-1])
    if summary["failures"] or summary["write_errors"]:
        raise SystemExit(f"seed {seed}: the reproduction failed")
    return summary, text


def save(digests: Dict[str, Dict[str, str]]) -> None:
    """Write the tables with their seeds in numeric order."""
    ordered = {
        name: dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        for name, table in digests.items()
    }
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
