"""The global result buses: skipping ``drain`` before ``drain_due_ps`` is
exact, and the numbering of transfers after a re-fork."""

import dataclasses

import pytest

from repro.core.system import ContestingSystem
from repro.faults import FaultPlan
from repro.isa.generator import generate_trace
from repro.isa.workloads import workload_profile
from repro.uarch.config import core_config


def _contest(bench, partner, system=ContestingSystem, **kwargs):
    trace = generate_trace(workload_profile(bench), 3000, seed=5)
    return system(
        [core_config(bench), core_config(partner)], trace, **kwargs
    )


class _AlwaysDrain(ContestingSystem):
    """Calls ``drain`` at every cycle of every receiver."""

    def drain(self, core, now_ps):
        super().drain(core, now_ps)
        core.drain_due_ps = 0


@pytest.mark.parametrize("kwargs", [
    {},
    {"lagger_policy": "resync", "max_lag": 64, "sat_grace_ns": 10.0},
    {"max_lag": 64, "sat_grace_ns": 10.0},
    {"faults": FaultPlan(seed=1, drop_rate=0.05, corrupt_rate=0.01,
                         delay_rate=0.1, delay_ns=5.0)},
    {"skip_ahead": False, "grb_latency_ns": 3.0},
    # the lagging distance is exceeded before the first head arrives
    {"lagger_policy": "resync", "max_lag": 8, "grb_latency_ns": 20.0,
     "sat_grace_ns": 5.0},
], ids=["plain", "resync", "disable", "transfer-faults", "cycle-stepped",
        "over-lag-in-flight"])
def test_skipped_drains_are_no_ops(kwargs):
    """Skipping ``drain`` before ``drain_due_ps`` changes no result."""
    guarded = _contest("mcf", "crafty", **kwargs)
    always = _contest("mcf", "crafty", system=_AlwaysDrain, **kwargs)
    calls = {}
    for name, system in (("guarded", guarded), ("always", always)):
        def counted(core, now_ps, name=name, drain=system.drain):
            calls[name] = calls.get(name, 0) + 1
            drain(core, now_ps)
        system.drain = counted
    assert dataclasses.asdict(guarded.run()) == dataclasses.asdict(always.run())
    assert calls["guarded"] < calls["always"]
    assert dataclasses.asdict(guarded.fault_stats) == dataclasses.asdict(
        always.fault_stats
    )


# -- numbering of transfers after a re-fork ----------------------------------

def _resync_run():
    """A resync-policy contest, recording each broadcast whose FIFO number
    differs from the seq the sender retired."""
    system = _contest(
        "bzip", "crafty", lagger_policy="resync", max_lag=256,
        sat_grace_ns=20.0,
    )
    misnumbered = []
    retire = system.on_retire

    def on_retire(core, seq, now_ps):
        retire(core, seq, now_ps)
        for receiver in system.cores:
            if receiver is core or not receiver.contesting_enabled:
                continue
            for fifo in system.fifos[receiver.core_id]:
                if fifo.sender_id == core.core_id:
                    numbered = fifo.next_seq + fifo.occupancy - 1
                    if numbered != seq:
                        misnumbered.append((core.core_id, seq, numbered))

    system.on_retire = on_retire
    system.run()
    return system, misnumbered


def test_the_numbering_scenario_reforks():
    system, _ = _resync_run()
    assert system.resyncs > 0


@pytest.mark.xfail(
    strict=True,
    reason="a re-forked core's incoming FIFOs are realigned, but its "
    "outgoing transfers stay numbered by push count; fixing it changes "
    "recorded results",
)
def test_each_transfer_is_numbered_with_the_retiring_seq():
    _, misnumbered = _resync_run()
    assert misnumbered == []
