import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.generator import generate_trace, trace_phase_summary
from repro.isa.instructions import OpClass
from repro.isa.phases import (
    PhaseMix,
    PhaseType,
    branchy_phase,
    pointer_chase_phase,
    stream_phase,
    wide_ilp_phase,
)


def _mix(*phases_weights):
    return PhaseMix("test", list(phases_weights))


class TestDeterminism:
    def test_same_seed_identical(self):
        mix = _mix((wide_ilp_phase(), 1.0), (branchy_phase(), 1.0))
        a = generate_trace(mix, 1000, seed=3)
        b = generate_trace(mix, 1000, seed=3)
        for x, y in zip(a, b):
            assert (x.op, x.pc, x.dep1, x.dep2, x.addr, x.taken) == (
                y.op, y.pc, y.dep1, y.dep2, y.addr, y.taken
            )

    def test_different_seed_differs(self):
        mix = _mix((wide_ilp_phase(), 1.0))
        a = generate_trace(mix, 1000, seed=1)
        b = generate_trace(mix, 1000, seed=2)
        assert any(
            x.op != y.op or x.addr != y.addr for x, y in zip(a, b)
        )

    def test_length(self):
        mix = _mix((wide_ilp_phase(), 1.0))
        assert len(generate_trace(mix, 123, seed=0)) == 123

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(_mix((wide_ilp_phase(), 1.0)), 0)


class TestDependences:
    def test_producers_precede_consumers(self):
        mix = _mix((wide_ilp_phase(), 1.0), (pointer_chase_phase(), 1.0))
        trace = generate_trace(mix, 2000, seed=7)
        for seq, instr in enumerate(trace):
            assert instr.dep1 < seq
            assert instr.dep2 < seq

    def test_deps_reference_producers(self):
        mix = _mix((wide_ilp_phase(), 1.0))
        trace = generate_trace(mix, 2000, seed=7)
        for instr in trace:
            for dep in (instr.dep1, instr.dep2):
                if dep >= 0:
                    assert trace[dep].produces

    def test_pointer_chase_serialises_loads(self):
        phase = pointer_chase_phase(mean_dwell=10**9)
        trace = generate_trace(_mix((phase, 1.0)), 2000, seed=7)
        prev_load = -1
        checked = 0
        for seq, instr in enumerate(trace):
            if instr.op == OpClass.LOAD:
                if prev_load >= 0:
                    assert instr.dep1 == prev_load
                    checked += 1
                prev_load = seq
        assert checked > 50

    def test_no_deps_when_disabled(self):
        phase = PhaseType(
            "free", load_frac=0, store_frac=0, branch_frac=0,
            dep1_frac=0, two_src_frac=0, mean_dwell=10**9,
        )
        trace = generate_trace(_mix((phase, 1.0)), 500, seed=0)
        assert all(i.dep1 == -1 and i.dep2 == -1 for i in trace)


class TestMemoryBehaviour:
    def test_addresses_within_region(self):
        phase = stream_phase(footprint=64 * 1024, mean_dwell=10**9)
        trace = generate_trace(_mix((phase, 1.0)), 2000, seed=9)
        base = 1 << 26
        for instr in trace:
            if instr.is_mem:
                assert base <= instr.addr < base + 64 * 1024

    def test_shared_region(self):
        a = stream_phase("a", footprint=4096, region="heap")
        b = stream_phase("b", footprint=4096, region="heap")
        trace = generate_trace(_mix((a, 1.0), (b, 1.0)), 3000, seed=9)
        bases = {instr.addr >> 26 for instr in trace if instr.is_mem}
        assert len(bases) == 1

    def test_private_regions(self):
        a = stream_phase("a", footprint=4096)
        b = stream_phase("b", footprint=4096)
        trace = generate_trace(_mix((a, 1.0), (b, 1.0)), 3000, seed=9)
        bases = {instr.addr >> 26 for instr in trace if instr.is_mem}
        assert len(bases) == 2

    def test_stream_strides(self):
        phase = stream_phase(
            footprint=8 * 1024, stride=16, seq_frac=1.0, mean_dwell=10**9
        )
        trace = generate_trace(_mix((phase, 1.0)), 1000, seed=9)
        addrs = [i.addr for i in trace if i.is_mem]
        deltas = {b - a for a, b in zip(addrs, addrs[1:])}
        # pure sequential stream: constant stride except at wrap
        assert 16 in deltas
        assert all(d == 16 or d < 0 for d in deltas)

    def test_dense_object_walk(self):
        phase = PhaseType(
            "dense", load_frac=0.5, seq_frac=0.0, obj_words=4,
            footprint=64 * 1024, mean_dwell=10**9,
        )
        trace = generate_trace(_mix((phase, 1.0)), 800, seed=9)
        addrs = [i.addr for i in trace if i.is_mem]
        within = sum(1 for a, b in zip(addrs, addrs[1:]) if b - a == 8)
        # three of every four accesses continue the 4-word object
        assert within / len(addrs) > 0.5

    def test_zero_object_words_without_skewed_accesses(self):
        # obj_words only matters to skewed-random accesses: a pure stream
        # with obj_words=0 generates, and the first skewed access fails
        stream = PhaseType(
            "s", load_frac=0.5, seq_frac=1.0, obj_words=0, mean_dwell=10**9
        )
        trace = generate_trace(_mix((stream, 1.0)), 500, seed=9)
        assert sum(1 for i in trace if i.is_mem) > 0
        skewed = PhaseType(
            "k", load_frac=0.5, seq_frac=0.0, obj_words=0, mean_dwell=10**9
        )
        with pytest.raises(ZeroDivisionError):
            generate_trace(_mix((skewed, 1.0)), 500, seed=9)


class TestBranches:
    def test_bias_reflected_in_outcomes(self):
        phase = branchy_phase(branch_bias=0.95, mean_dwell=10**9)
        trace = generate_trace(_mix((phase, 1.0)), 8000, seed=9)
        per_pc = collections.defaultdict(list)
        for instr in trace:
            if instr.op == OpClass.BRANCH:
                per_pc[instr.pc].append(instr.taken)
        assert per_pc
        for outcomes in per_pc.values():
            if len(outcomes) < 30:
                continue
            frac = sum(outcomes) / len(outcomes)
            # each static branch follows one direction ~95% of the time
            assert frac > 0.85 or frac < 0.15

    def test_taken_frac_zero(self):
        phase = branchy_phase(
            branch_bias=1.0, taken_frac=0.0, mean_dwell=10**9
        )
        trace = generate_trace(_mix((phase, 1.0)), 2000, seed=9)
        assert all(
            not i.taken for i in trace if i.op == OpClass.BRANCH
        )

    def test_branch_pcs_stable(self):
        phase = branchy_phase(n_static_branches=4, mean_dwell=10**9)
        trace = generate_trace(_mix((phase, 1.0)), 2000, seed=9)
        pcs = {i.pc for i in trace if i.op == OpClass.BRANCH}
        assert len(pcs) == 4


class TestPhaseScheduling:
    def test_shares_follow_weight_times_dwell(self):
        a = wide_ilp_phase("a", mean_dwell=200)
        b = branchy_phase("b", mean_dwell=200)
        trace = generate_trace(_mix((a, 3.0), (b, 1.0)), 30000, seed=9)
        # distinguish by pc base: phase index 0 -> 1<<20, 1 -> 2<<20
        counts = collections.Counter(i.pc >> 20 for i in trace)
        share_a = counts[1] / len(trace)
        assert 0.65 < share_a < 0.85  # target 0.75

    def test_phase_starts_recorded(self):
        mix = _mix((wide_ilp_phase("a", mean_dwell=100), 1.0),
                   (branchy_phase("b", mean_dwell=100), 1.0))
        trace = generate_trace(mix, 5000, seed=9)
        summary = trace_phase_summary(trace)
        assert summary["transitions"] > 5
        assert 50 < summary["mean_dwell"] < 1500

    def test_single_phase_no_transitions(self):
        trace = generate_trace(
            _mix((wide_ilp_phase(mean_dwell=10**9), 1.0)), 1000, seed=0
        )
        assert len(trace.phase_starts) == 1


class TestSyscalls:
    def test_syscall_rate(self):
        phase = wide_ilp_phase(syscall_rate=0.01, mean_dwell=10**9)
        trace = generate_trace(_mix((phase, 1.0)), 5000, seed=9)
        n = sum(1 for i in trace if i.op == OpClass.SYSCALL)
        assert 10 < n < 150

    def test_no_syscalls_by_default(self):
        trace = generate_trace(_mix((wide_ilp_phase(), 1.0)), 2000, seed=9)
        assert all(i.op != OpClass.SYSCALL for i in trace)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 1000),
    length=st.integers(50, 400),
)
def test_generator_invariants(seed, length):
    """Property: any generated trace is structurally well-formed."""
    mix = _mix((wide_ilp_phase(), 2.0), (pointer_chase_phase(), 1.0))
    trace = generate_trace(mix, length, seed=seed)
    assert len(trace) == length
    for seq, instr in enumerate(trace):
        assert instr.dep1 < seq and instr.dep2 < seq
        if instr.is_mem:
            assert instr.addr > 0
        else:
            assert instr.addr == 0
