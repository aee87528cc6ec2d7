"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables/figures and prints the
same rows/series the paper reports.  The default scale keeps a full
``pytest benchmarks/ --benchmark-only`` run to a few minutes; set
``REPRO_BENCH_SCALE=default`` (or ``full``) to regenerate at the scale used
for EXPERIMENTS.md.
"""

import hashlib
import os
from pathlib import Path

import pytest

import repro

from repro.experiments.common import ExperimentContext

SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")


@pytest.fixture(scope="session")
def ctx():
    """One shared context so artefacts (traces, logs, runs) are reused the
    way the experiment runner reuses them."""
    return ExperimentContext(scale=SCALE)


def run_once(benchmark, fn, *args, **kwargs):
    """Time a single invocation (experiments are deterministic and heavy;
    repeated rounds would only measure the context cache)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Stamp ``--benchmark-json`` output with a hash of the ``repro`` source
    it measured, so results of different trees are never mixed up
    (``simulator_ledger.py`` checks it)."""
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    output_json["source_hash"] = digest.hexdigest()
