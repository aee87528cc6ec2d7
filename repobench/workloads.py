"""The benchmark's workloads and the work they time.

Both workloads run serially in one process and are built from a seed:

* ``ext-cold`` regenerates two experiments of the paper's reproduction,
  ``ext_resync`` and ``ext_corpus``, at ``--scale tiny`` against a
  fresh, empty result store;
* ``paper-warm`` replays the whole reproduction (all 18 experiments)
  against a store filled by the program of the checkout under test.

A workload has two phases.  :meth:`Workload.prepare` builds its inputs and
belongs to set-up time; :meth:`Workload.run_unit` performs one unit of the
timed work and returns what the benchmark checks and reports.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import ResultStore, SerialExecutor, SimEngine, TraceSpec
from repro.engine.jobs import resolve_trace
from repro.experiments.common import SCALES, ExperimentContext
from repro.experiments.runner import EXPERIMENTS
from repro.isa.workloads import BENCHMARKS

from repobench import speed

#: the reproduction's scale; its traces are ``SCALES[PAPER_SCALE]`` long
PAPER_SCALE = "tiny"

#: what ``ext-cold`` regenerates: the contest experiment and the
#: streamed-corpus experiment, each over every benchmark
COLD_EXPERIMENTS = ("ext_resync", "ext_corpus")

BENCH_DIR = Path(__file__).resolve().parent
#: the ``repro`` package of the checkout the benchmark belongs to
PROGRAM_DIR = BENCH_DIR.parent / "src" / "repro"
DIGESTS_PATH = BENCH_DIR / "digests.json"


def trace_length(trace: Any) -> int:
    """Instructions in a job's trace, by recipe or by value."""
    if isinstance(trace, TraceSpec):
        return trace.length
    return len(trace)


class CountingExecutor:
    """Delegates to an executor, counts the trace instructions of the
    jobs it is asked to run (a contest counts its trace once) and keeps
    each job's kind and seconds, in the order the jobs ran.

    With ``reference``, it runs the jobs one at a time and calls
    ``reference()`` before each, keeping what it returns in ``refs``.
    """

    def __init__(self, inner: Optional[Any] = None,
                 reference: Optional[Callable[[], float]] = None) -> None:
        self.inner = inner if inner is not None else SerialExecutor()
        self.workers = self.inner.workers
        self.reference = reference
        self.instructions = 0
        self.kinds: List[str] = []
        self.seconds: List[float] = []
        self.refs: List[float] = []

    def run(self, jobs: Sequence[Any]) -> List[Tuple[object, float]]:
        self.instructions += sum(trace_length(job.trace) for job in jobs)
        if self.reference is None:
            outcomes = self.inner.run(jobs)
        else:
            outcomes = []
            for job in jobs:
                self.refs.append(self.reference())
                outcomes += self.inner.run([job])
        self.kinds += [job.kind for job in jobs]
        self.seconds += [seconds for _, seconds in outcomes]
        return outcomes


def render_result(run: Any, result: Any) -> str:
    """Render one experiment's result the way the experiment runner does."""
    render = getattr(sys.modules[run.__module__], "render", None)
    return render(result) if render is not None else result.render()


def reproduce(engine: SimEngine, seed: int,
              names: Optional[Sequence[str]] = None) -> str:
    """Run the registered experiments (all, or ``names``) at tiny scale;
    the rendered text.

    With every experiment, the text is what
    ``python -m repro.experiments --scale tiny`` prints when the scale's
    seed is ``seed``; with ``names``, it is those experiments' sections of
    that text.
    """
    ctx = ExperimentContext(scale=PAPER_SCALE, seed=seed, engine=engine)
    if names is None and engine.executor.workers > 1:
        ctx.prefetch()
    parts = []
    for name in EXPERIMENTS if names is None else names:
        run = EXPERIMENTS[name]
        result = run(ctx)
        parts.append(f"\n=== {name} ===\n{render_result(run, result)}\n")
    return "".join(parts)


def sections(text: str) -> Dict[str, str]:
    """A whole reproduction's text cut into one section per experiment,
    each as :func:`reproduce` renders it alone."""
    starts = [text.index(f"\n=== {name} ===\n") for name in EXPERIMENTS]
    ends = starts[1:] + [len(text)]
    return {name: text[start:end]
            for name, start, end in zip(EXPERIMENTS, starts, ends)}


def paper_specs(seed: int) -> List[TraceSpec]:
    """The reproduction's trace recipes: one tiny trace per benchmark."""
    length = SCALES[PAPER_SCALE].trace_len
    return [TraceSpec(bench, length, seed) for bench in BENCHMARKS]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(table: str, seed: int) -> Optional[str]:
    """The digest recorded for ``seed`` in ``digests.json``, if any."""
    digests = json.loads(DIGESTS_PATH.read_text())
    return digests.get(table, {}).get(str(seed))


@dataclass
class UnitResult:
    """What one unit of timed work produced."""

    wall_s: float
    #: digest of the unit's checked output
    digest: str
    #: None when the output passed its checks, else why it did not
    mismatch: Optional[str]
    jobs: int
    misses: int
    failures: int
    write_errors: int
    #: per-kind simulated job counts
    executed: Dict[str, int] = field(default_factory=dict)
    #: instructions of the simulated jobs, and host seconds inside them
    instructions: int = 0
    sim_seconds: float = 0.0
    store_bytes: int = 0
    #: kind and host seconds of each simulated job, in the order they ran
    job_kinds: List[str] = field(default_factory=list)
    job_seconds: List[float] = field(default_factory=list)
    #: reference loop times taken next to the unit's work
    #: (:mod:`repobench.speed`), not part of ``wall_s``
    refs: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Converts the unit's times to seconds at the reference speed;
        1.0, times as measured, when no reference was taken."""
        return speed.scale(self.refs) if self.refs else 1.0


def fastest(units: List[UnitResult]) -> float:
    """The fastest unit's wall time, as measured."""
    return min(u.wall_s for u in units)


def scaled_wall(units: List[UnitResult]) -> float:
    """The median unit's wall time at the reference speed."""
    return statistics.median(u.wall_s * u.scale for u in units)


def sim_kips(units: List[UnitResult]) -> float:
    """Thousands of simulated instructions per second at the reference
    speed: per second spent simulating them, in the median unit, or, in
    units that simulated nothing, per second of the median unit
    delivering their results."""
    unit = units[0]
    if unit.misses:
        seconds = statistics.median(
            sum(u.job_seconds) * u.scale for u in units)
    else:
        seconds = scaled_wall(units)
    return unit.instructions / seconds / 1e3


def _unit_from_engine(
    engine: SimEngine, wall_s: float, digest: str, mismatch: Optional[str],
    instructions: int, executor: Optional[CountingExecutor] = None,
) -> UnitResult:
    stats = engine.stats
    store = engine.store
    return UnitResult(
        wall_s=wall_s,
        digest=digest,
        mismatch=mismatch,
        jobs=stats.jobs,
        misses=stats.misses,
        failures=stats.failures,
        write_errors=store.write_errors if store is not None else 0,
        executed=dict(stats.executed),
        instructions=instructions,
        sim_seconds=stats.sim_seconds,
        store_bytes=store.path.stat().st_size if store is not None else 0,
        job_kinds=list(executor.kinds) if executor else [],
        job_seconds=list(executor.seconds) if executor else [],
        refs=list(executor.refs) if executor else [],
    )


class Workload:
    """One benchmark workload; subclasses fill in the phases."""

    name = ""

    #: when set, a reference loop timer to call next to each piece of
    #: the unit's work (see :mod:`repobench.speed`)
    reference: Optional[Callable[[], float]] = None

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def prepare(self) -> None:
        """Build the inputs (set-up time)."""

    def fill(self) -> Optional[Dict[str, Any]]:
        """Untimed preparation after set-up; a summary with ``failures``
        and ``write_errors`` counts, or None when there is none."""
        return None

    def fresh(self) -> None:
        """Untimed reset before each unit."""

    def run_unit(self) -> UnitResult:
        raise NotImplementedError

    def stream_specs(self) -> List[TraceSpec]:
        """The workload's trace recipes, as streaming specs."""
        return [replace(spec, stream=True) for spec in self.specs]


def source_digest(roots: Sequence[Path] = (PROGRAM_DIR, BENCH_DIR)) -> str:
    """Hash of the Python sources under ``roots`` (the program and the
    benchmark of this checkout)."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root.parent)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class PaperCache:
    """Filled result stores of this checkout's program, one per seed.

    ``paper-warm`` fills the entry for its seed with ``fill.py`` when no
    earlier run has, and replays it.  Entries are keyed by
    :func:`source_digest`, so a store is replayed only by the program
    that wrote it.
    """

    def __init__(self, root: Path, seed: int) -> None:
        self.dir = root / f"{source_digest()}-seed{seed}"

    def exists(self) -> bool:
        return self.dir.is_dir()

    def summary(self) -> Dict[str, Any]:
        return json.loads((self.dir / "summary.json").read_text())

    def text(self) -> str:
        return (self.dir / "rendered.txt").read_text()

    def publish(self, store_dir: Path, text: str,
                summary: Dict[str, Any]) -> None:
        """Move a filled store directory into the cache, atomically; the
        first publisher of a seed wins."""
        (store_dir / "rendered.txt").write_text(text)
        (store_dir / "summary.json").write_text(json.dumps(summary))
        self.dir.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(store_dir, self.dir)
        except OSError:
            shutil.rmtree(store_dir)


class ExtCold(Workload):
    """The reproduction's ``ext_resync`` and ``ext_corpus`` experiments
    against a fresh, empty store."""

    name = "ext-cold"

    def prepare(self) -> None:
        self.specs = paper_specs(self.seed)
        for spec in self.specs:
            resolve_trace(spec)
        self.expected = recorded_digest("cold", self.seed)

    def fresh(self) -> None:
        self.executor = CountingExecutor(reference=self.reference)
        self.store_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        self.engine = SimEngine(
            executor=self.executor, store=ResultStore(self.store_dir)
        )

    def run_unit(self) -> UnitResult:
        started = time.perf_counter()
        text = reproduce(self.engine, self.seed, COLD_EXPERIMENTS)
        wall_s = time.perf_counter() - started - sum(self.executor.refs)
        unit = _unit_from_engine(
            self.engine, wall_s, sha256(text),
            check_sections(text, COLD_EXPERIMENTS, self.expected),
            self.executor.instructions, self.executor,
        )
        shutil.rmtree(self.store_dir)
        return unit


def check_sections(text: str, names: Sequence[str],
                   expected: Optional[str]) -> Optional[str]:
    """Why the rendered text of experiments ``names`` is wrong, or None."""
    for name in names:
        if f"\n=== {name} ===\n" not in text:
            return f"experiment {name} missing from the rendered output"
    if expected is not None and sha256(text) != expected:
        return "rendered output differs from the recorded digest"
    return None


def check_paper(text: str, expected: Optional[str]) -> Optional[str]:
    """Why a rendered reproduction is wrong, or None."""
    return check_sections(text, list(EXPERIMENTS), expected)


def fill_command(seed: int, store_dir: Path, workers: int,
                 names: Optional[Sequence[str]] = None) -> List[str]:
    """The command that fills ``paper-warm``'s store: ``fill.py`` of this
    checkout, importing the program from this checkout's ``src``; with
    ``names``, only those experiments."""
    command = [
        sys.executable, str(BENCH_DIR / "fill.py"), "--seed", str(seed),
        "--store", str(store_dir), "--workers", str(workers),
    ]
    if names is not None:
        command += ["--experiments", ",".join(names)]
    return command


class PaperWarm(Workload):
    """The reproduction replayed from a store filled by the commit under
    test; every replay opens a fresh engine and store."""

    name = "paper-warm"

    #: fill workers: the fill is untimed, so it may use both cores
    FILL_WORKERS = 2

    def prepare(self) -> None:
        self.specs = paper_specs(self.seed)
        self.expected = recorded_digest("paper", self.seed)
        self.cache = PaperCache(self.scratch.parent / "paper", self.seed)

    def fill(self) -> Dict[str, Any]:
        """Make sure the cache holds this seed's store (untimed): filled
        by an earlier run, or now in a child process.  Returns the fill's
        summary."""
        if not self.cache.exists():
            store_dir = Path(tempfile.mkdtemp(dir=self.scratch))
            done = subprocess.run(
                fill_command(self.seed, store_dir, self.FILL_WORKERS),
                check=True, stdout=subprocess.PIPE, text=True,
            )
            summary = json.loads(done.stdout.splitlines()[-1])
            text = (store_dir / "rendered.txt").read_text()
            self.cache.publish(store_dir, text, summary)
        self.filled = self.cache.summary()
        if Path(self.filled["program"]) != PROGRAM_DIR:
            raise RuntimeError(
                f"the store was filled by {self.filled['program']}, "
                f"not by the checkout under test ({PROGRAM_DIR})"
            )
        self.fill_text = self.cache.text()
        return self.filled

    def run_unit(self) -> UnitResult:
        started = time.perf_counter()
        engine = SimEngine(store=ResultStore(self.cache.dir))
        text = reproduce(engine, self.seed)
        wall_s = time.perf_counter() - started
        mismatch = check_paper(text, self.expected)
        if mismatch is None and text != self.fill_text:
            mismatch = "replay differs from the filled store's output"
        if mismatch is None and engine.stats.misses:
            mismatch = f"replay simulated {engine.stats.misses} jobs"
        return _unit_from_engine(
            engine, wall_s, sha256(text), mismatch,
            self.filled["instructions"],
        )


WORKLOADS = {w.name: w for w in (ExtCold, PaperWarm)}
