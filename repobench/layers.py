"""Which layer calls the traced run times, and the per-layer metrics.

:func:`instrumented` installs :class:`~repobench.spans.SpanTracer`
wrappers around public functions and methods of each layer, patched where
their callers look them up, and restores the originals on exit.  Layers
are named after the modules of ``src/repro``:

=============  =========================================================
experiments    each registered experiment's ``run``; rendering
engine         ``SimEngine.run_many``, job ``cache_key``, ``execute_job``
               by job kind, ``ResultStore`` open (load), ``get``, ``put``
isa            ``TraceSpec.materialise``, ``StreamingTrace`` passes
uarch          ``run_standalone``, ``Core.__init__`` (cache arrays and
               prewarm), ``CoreConfig.fingerprint``
core           ``ContestingSystem`` construction and ``run``; the GRB
               methods ``on_retire``, ``drain`` and ``pop_for_fetch``
analysis       ``pair_switch_time``, ``region_log``
=============  =========================================================

The service layer and ``ParallelExecutor`` are not instrumented; see the
README in this directory.
"""

import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, MutableMapping, Tuple

from repro.analysis import regions, switching
from repro.core.system import ContestingSystem, ContestResult
from repro.engine import engine as engine_module
from repro.engine import jobs as jobs_module
from repro.engine import store as store_module
from repro.experiments.runner import EXPERIMENTS
from repro.isa.stream import StreamingTrace
from repro.uarch import run as run_module
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core
from repro.uarch.run import StandaloneResult

from repobench import workloads
from repobench.spans import SpanTracer

#: valid metric names (also what ``BENCHMARK.json`` accepts)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

JOB_KINDS = ("contest", "standalone", "region_log")

#: layer names: the first component of every frame name
LAYERS = ("experiments", "engine", "isa", "uarch", "core", "analysis")

#: GRB adapter methods, counted rather than recorded (millions of calls)
GRB_METHODS = (("on_retire", "retire"), ("drain", "drain"),
               ("pop_for_fetch", "pop"))


class Patcher:
    """Replaces attributes and mapping items; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def set_attr(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name], False))
        setattr(owner, name, value)

    def set_item(self, owner: MutableMapping, key: str, value: Any) -> None:
        self._undo.append((owner, key, owner[key], True))
        owner[key] = value

    def everywhere(self, original: Callable, value: Any) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds
        it, so callers that imported it by name see the wrapper too."""
        for module in list(sys.modules.values()):
            if not _is_repro(module):
                continue
            for name, bound in list(vars(module).items()):
                if bound is original:
                    self.set_attr(module, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value, item = self._undo.pop()
            if item:
                owner[name] = value
            else:
                setattr(owner, name, value)


def _is_repro(module: Any) -> bool:
    name = getattr(module, "__name__", "")
    return isinstance(module, ModuleType) and (
        name == "repro" or name.startswith("repro.")
    )


@dataclass
class SimTally:
    """Model statistics of the jobs the traced run simulated."""

    instructions: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in JOB_KINDS}
    )
    cycles: int = 0
    committed: int = 0
    injected: int = 0
    lead_changes: int = 0

    def add(self, outcome: Tuple[object, float], job: Any) -> None:
        """``execute_job``'s after-hook: fold in one finished job."""
        result = outcome[0]
        self.instructions[job.kind] += workloads.trace_length(job.trace)
        if isinstance(result, StandaloneResult):
            self.cycles += result.cycles
        elif isinstance(result, ContestResult):
            for stats in result.per_core.values():
                self.cycles += stats.cycles
                self.committed += stats.committed
                self.injected += stats.injected
            self.lead_changes += result.lead_changes


@contextmanager
def instrumented(tracer: SpanTracer, tally: SimTally) -> Iterator[None]:
    """Install the layer wrappers for the duration of the block."""
    p = Patcher()
    wrap = tracer.wrap
    try:
        for name, run in list(EXPERIMENTS.items()):
            p.set_item(EXPERIMENTS, name, wrap(run, f"experiments.{name}"))
        p.set_attr(workloads, "render_result",
                   wrap(workloads.render_result, "experiments.render"))

        p.set_attr(engine_module.SimEngine, "run_many", wrap(
            engine_module.SimEngine.run_many, "engine.run_many"))
        for cls in (jobs_module.StandaloneJob, jobs_module.RegionLogJob,
                    jobs_module.ContestJob):
            p.set_attr(cls, "cache_key", wrap(cls.cache_key, "engine.key"))
        p.everywhere(jobs_module.execute_job, wrap(
            jobs_module.execute_job,
            lambda job: f"engine.execute.{job.kind}", after=tally.add))
        store_cls = store_module.ResultStore
        p.set_attr(store_cls, "__init__",
                   wrap(store_cls.__init__, "engine.store_load"))
        p.set_attr(store_cls, "get", wrap(store_cls.get, "engine.store_get"))
        p.set_attr(store_cls, "put", wrap(store_cls.put, "engine.store_put"))

        p.set_attr(jobs_module.TraceSpec, "materialise", wrap(
            jobs_module.TraceSpec.materialise, "isa.materialise"))
        p.set_attr(StreamingTrace, "materialise",
                   wrap(StreamingTrace.materialise, "isa.materialise"))
        p.set_attr(StreamingTrace, "__init__", wrap(
            StreamingTrace.__init__, "isa.stream_trace", record=False))
        p.set_attr(StreamingTrace, "chunks", wrap(
            StreamingTrace.chunks, "isa.stream_pass", record=False))

        p.everywhere(run_module.run_standalone,
                     wrap(run_module.run_standalone, "uarch.standalone"))
        p.set_attr(Core, "__init__", wrap(Core.__init__, "uarch.core_init"))
        p.set_attr(CoreConfig, "fingerprint", wrap(
            CoreConfig.fingerprint, "uarch.config_fingerprint",
            record=False))

        p.set_attr(ContestingSystem, "__init__",
                   wrap(ContestingSystem.__init__, "core.system_init"))
        p.set_attr(ContestingSystem, "run",
                   wrap(ContestingSystem.run, "core.contest_run"))
        for method, short in GRB_METHODS:
            p.set_attr(ContestingSystem, method, wrap(
                getattr(ContestingSystem, method), f"core.grb_{short}",
                record=False))

        p.everywhere(switching.pair_switch_time, wrap(
            switching.pair_switch_time, "analysis.switch", record=False))
        p.everywhere(regions.region_log,
                     wrap(regions.region_log, "analysis.region_log"))
        yield
    finally:
        p.restore()


def per_layer_metrics(
    tracer: SpanTracer,
    tally: SimTally,
    units: List["workloads.UnitResult"],
    overhead_s: float,
    stream_gen_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``, per unit of
    work (set-up frames, traced once, are included once)."""
    n = len(units)
    t = tracer
    out: Dict[str, Tuple[float, str]] = {}

    def seconds(metric: str, frame: str) -> None:
        out[metric] = (t.total_s(frame) / n, "s")

    def calls(metric: str, frame: str) -> None:
        out[metric] = (t.calls(frame) / n, "count")

    for name in EXPERIMENTS:
        seconds(f"experiments.{name}_s", f"experiments.{name}")
    seconds("experiments.render_s", "experiments.render")

    jobs = sum(u.jobs for u in units)
    out["engine.jobs"] = (jobs / n, "count")
    out["engine.hit_ratio"] = (
        (jobs - sum(u.misses for u in units)) / jobs if jobs else 0.0,
        "ratio")
    for kind in JOB_KINDS:
        out[f"engine.jobs_simulated.{kind}"] = (
            sum(u.executed.get(kind, 0) for u in units) / n, "count")
    for kind in JOB_KINDS:
        seconds(f"engine.execute_s.{kind}", f"engine.execute.{kind}")
    seconds("engine.key_s", "engine.key")
    calls("engine.key_calls", "engine.key")
    out["engine.self_s"] = (t.self_s("engine.run_many") / n, "s")
    seconds("engine.store_load_s", "engine.store_load")
    seconds("engine.store_get_s", "engine.store_get")
    calls("engine.store_get_calls", "engine.store_get")
    seconds("engine.store_put_s", "engine.store_put")
    calls("engine.store_put_calls", "engine.store_put")
    out["engine.store_bytes"] = (units[-1].store_bytes, "bytes")
    out["engine.failures"] = (sum(u.failures for u in units) / n, "count")
    out["engine.store_write_errors"] = (
        sum(u.write_errors for u in units) / n, "count")

    seconds("isa.materialise_s", "isa.materialise")
    calls("isa.materialise_calls", "isa.materialise")
    out["isa.stream_gen_s"] = (stream_gen_s, "s")
    out["isa.stream_restarts"] = (
        (t.calls("isa.stream_pass") - t.calls("isa.stream_trace")) / n,
        "count")

    seconds("uarch.standalone_s", "uarch.standalone")
    calls("uarch.standalone_calls", "uarch.standalone")
    standalone_instr = (tally.instructions["standalone"]
                        + tally.instructions["region_log"])
    out["uarch.host_ns_per_instr"] = (
        t.stats.get("uarch.standalone", (0, 0, 0))[1] / standalone_instr
        if standalone_instr else 0.0, "ns")
    seconds("uarch.core_init_s", "uarch.core_init")
    calls("uarch.core_inits", "uarch.core_init")
    seconds("uarch.config_fingerprint_s", "uarch.config_fingerprint")
    calls("uarch.config_fingerprint_calls", "uarch.config_fingerprint")
    out["uarch.instructions"] = (sum(tally.instructions.values()) / n,
                                 "count")
    out["uarch.cycles"] = (tally.cycles / n, "count")

    calls("core.contests", "core.contest_run")
    seconds("core.system_init_s", "core.system_init")
    seconds("core.contest_run_s", "core.contest_run")
    for _, short in GRB_METHODS:
        seconds(f"core.grb_{short}_s", f"core.grb_{short}")
        calls(f"core.grb_{short}_calls", f"core.grb_{short}")
    out["core.injection_fraction"] = (
        tally.injected / tally.committed if tally.committed else 0.0,
        "ratio")
    out["core.lead_changes"] = (tally.lead_changes / n, "count")

    seconds("analysis.switch_s", "analysis.switch")
    calls("analysis.switch_calls", "analysis.switch")
    seconds("analysis.region_log_s", "analysis.region_log")

    for layer in LAYERS:
        out[f"layer_self_s.{layer}"] = (sum(
            stat[2] for name, stat in t.stats.items()
            if name.split(".")[0] == layer) / n / 1e9, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.unattributed_s"] = (t.self_s("unit") / n, "s")
    out["trace.wall_s"] = (workloads.fastest(units), "s")
    return out
