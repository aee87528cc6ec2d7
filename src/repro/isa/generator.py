"""Deterministic synthetic trace generation from a phase mixture.

``generate_trace`` walks a Markov chain over the mixture's phase types
(geometric dwell, no self-transitions) and emits one :class:`Instr` per step.
Generation is fully determined by ``(mix, length, seed)``.

Generation is *chunked* at its core: :func:`generate_chunks` yields
column-major :class:`TraceChunk` regions one at a time, drawing from the
seeded RNG in exactly the per-instruction order the materialising path has
always used, so a million-instruction trace can be produced and consumed
region by region without ever materialising (see
:class:`repro.isa.stream.StreamingTrace`).  :func:`generate_trace` is a
thin consumer that assembles the chunks into a concrete
:class:`~repro.isa.trace.Trace`; the two paths are bit-identical by
construction and pinned by ``tests/corpus``.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.isa.instructions import Instr, OpClass
from repro.isa.phases import PhaseMix, PhaseType
from repro.isa.trace import Trace
from repro.util.rng import Random, substream

#: Default streaming-generation region size, in instructions.  A runtime
#: knob only: chunking never changes the emitted instruction stream or the
#: trace fingerprint (pinned by ``tests/corpus/test_grammar.py``), so it
#: deliberately does NOT participate in any cache identity.
DEFAULT_CHUNK_SIZE = 4096


@dataclass
class TraceChunk:
    """One contiguous, column-major region of a generated trace.

    ``start`` is the absolute index of the first instruction;
    ``phase_starts`` holds the *absolute* indices (within this chunk) at
    which a new fine-grain phase begins.  Columns mirror
    :class:`~repro.isa.trace.DecodedTrace` field for field.
    """

    start: int
    ops: List[int] = field(default_factory=list)
    pcs: List[int] = field(default_factory=list)
    deps1: List[int] = field(default_factory=list)
    deps2: List[int] = field(default_factory=list)
    addrs: List[int] = field(default_factory=list)
    takens: List[bool] = field(default_factory=list)
    phase_starts: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def instructions(self) -> List[Instr]:
        """Materialise this chunk's rows as :class:`Instr` objects."""
        return [
            Instr(op=o, pc=p, dep1=d1, dep2=d2, addr=a, taken=t)
            for o, p, d1, d2, a, t in zip(
                self.ops, self.pcs, self.deps1, self.deps2,
                self.addrs, self.takens,
            )
        ]


class _PhaseRuntime:
    """Mutable per-phase state that persists across re-entries of a phase,
    plus the phase's parameters flattened into plain numbers for the
    per-instruction loop."""

    __slots__ = (
        "phase",
        "pc_base",
        "data_base",
        "body_pos",
        "stream_off",
        "branch_dirs",
        "next_branch",
        "obj_base",
        "obj_pos",
        "params",
    )

    def __init__(
        self, phase: PhaseType, index: int, region_id: int, rng: Random
    ) -> None:
        self.phase = phase
        # Distinct PC regions per phase type keep predictor behaviour
        # attributable to the phase; the data region may be shared between
        # phases carrying the same region tag (see PhaseType.region).
        self.pc_base = (index + 1) << 20
        self.data_base = (region_id + 1) << 26
        self.body_pos = 0
        self.stream_off = 0
        self.obj_base = 0
        self.obj_pos = phase.obj_words  # force a fresh object first
        # Fixed per-static-branch bias direction; predictability then comes
        # entirely from the phase's branch_bias parameter.
        self.branch_dirs = [
            rng.random() < phase.taken_frac
            for _ in range(phase.n_static_branches)
        ]
        self.next_branch = 0
        # Cumulative op-mix thresholds, summed left to right exactly as the
        # comparisons ``r < load + store + ...`` would sum them.
        t_load = phase.load_frac
        t_store = t_load + phase.store_frac
        t_branch = t_store + phase.branch_frac
        t_imul = t_branch + phase.imul_frac
        t_idiv = t_imul + phase.idiv_frac
        obj_bytes = phase.obj_words * 8
        self.params = (
            t_load, t_store, t_branch, t_imul, t_idiv,
            phase.syscall_rate,
            phase.dep1_frac,
            phase.dep1_frac * phase.branch_dep_scale,
            phase.chain_frac,
            phase.dep_window,
            phase.two_src_frac,
            phase.pointer_chase,
            phase.n_static_branches,
            phase.body_size,
            phase.branch_bias,
            phase.seq_frac,
            phase.stride,
            phase.footprint,
            phase.obj_words,
            obj_bytes,
            # 0 for obj_words=0: a skewed access then fails as it always has
            max(1, phase.footprint // obj_bytes) if obj_bytes else 0,
            phase.zipf_skew,
            # branch j's direction slot: (pc // 4 - body_size) % n for
            # pc = pc_base + 4 * (body_size + j)
            self.pc_base // 4,
        )


def _sample_dwell(rng: Random, mean: int) -> int:
    """Geometric-ish dwell with the configured mean, never below 8."""
    return max(8, int(rng.expovariate(1.0 / mean)))


_IALU = int(OpClass.IALU)
_IMUL = int(OpClass.IMUL)
_IDIV = int(OpClass.IDIV)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_SYSCALL = int(OpClass.SYSCALL)


def generate_chunks(
    mix: PhaseMix,
    length: int,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[TraceChunk]:
    """Generate the trace for ``(mix, length, seed)`` as a chunk stream.

    Yields consecutive :class:`TraceChunk` regions of ``chunk_size``
    instructions (the final one may be shorter).  The RNG draw order is
    strictly per-instruction and independent of ``chunk_size``, so the
    concatenated chunks are bit-identical to :func:`generate_trace` for
    any chunking — the invariant the corpus parity suite pins.

    The per-instruction loop keeps the current phase's parameters and
    mutable position in locals; they are written back to the phase's
    :class:`_PhaseRuntime` only when the phase changes.
    """
    if length <= 0:
        raise ValueError("trace length must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk size must be positive")
    rng = substream(seed, "trace", mix.name)
    random = rng.random
    randrange = rng.randrange

    region_names = []
    region_ids = []
    for i, (p, _) in enumerate(mix.entries):
        tag = p.region or f"__private_{i}"
        if tag not in region_names:
            region_names.append(tag)
        region_ids.append(region_names.index(tag))
    runtimes = [
        _PhaseRuntime(p, i, region_ids[i], rng)
        for i, (p, _) in enumerate(mix.entries)
    ]
    weights = mix.weights

    indices = list(range(len(runtimes)))
    transitions = mix.transitions

    def pick_phase(current: int) -> int:
        # With an explicit transition matrix, draw the successor from the
        # current phase's row.  Otherwise: weighted draw *including* the
        # current phase — by renewal theory the long-run instruction share
        # of phase i is then exactly weight_i * dwell_i / sum_j w_j * d_j.
        # (Excluding the current phase would cap any dominant phase near
        # 50% regardless of its weight.)  A self-draw simply extends the
        # dwell; a phase boundary is only recorded on an actual change.
        if transitions is not None and current >= 0:
            return rng.choices(indices, weights=transitions[current], k=1)[0]
        return rng.choices(indices, weights=weights, k=1)[0]

    chunk = TraceChunk(start=0, phase_starts=[0])
    producers: Deque[int] = deque(maxlen=64)
    last_load_seq = -1

    ops = chunk.ops
    pcs = chunk.pcs
    deps1 = chunk.deps1
    deps2 = chunk.deps2
    addrs = chunk.addrs
    takens = chunk.takens

    current = -1  # no phase entered yet: the loop enters ``chosen`` first
    chosen = pick_phase(-1)
    dwell = _sample_dwell(rng, runtimes[chosen].phase.mean_dwell)
    state = runtimes[chosen]
    body_pos = next_branch = stream_off = obj_base = obj_pos = 0

    for seq in range(length):
        if dwell <= 0:
            chosen = pick_phase(current)
            dwell = _sample_dwell(rng, runtimes[chosen].phase.mean_dwell)
        if chosen != current:
            if current >= 0:
                chunk.phase_starts.append(seq)
                state.body_pos = body_pos
                state.next_branch = next_branch
                state.stream_off = stream_off
                state.obj_base = obj_base
                state.obj_pos = obj_pos
            current = chosen
            state = runtimes[current]
            (t_load, t_store, t_branch, t_imul, t_idiv, syscall_rate,
             dep1_frac, branch_dep1_frac, chain_frac, dep_window,
             two_src_frac, pointer_chase, n_branches, body_size,
             branch_bias, seq_frac, stride, footprint, obj_words,
             obj_bytes, objects, zipf_skew, dir_base) = state.params
            pc_base = state.pc_base
            data_base = state.data_base
            branch_dirs = state.branch_dirs
            body_pos = state.body_pos
            next_branch = state.next_branch
            stream_off = state.stream_off
            obj_base = state.obj_base
            obj_pos = state.obj_pos
        dwell -= 1

        # --- choose the op class from the phase mix
        r = random()
        if syscall_rate and random() < syscall_rate:
            op = _SYSCALL
        elif r < t_load:
            op = _LOAD
        elif r < t_store:
            op = _STORE
        elif r < t_branch:
            op = _BRANCH
        elif r < t_imul:
            op = _IMUL
        elif r < t_idiv:
            op = _IDIV
        else:
            op = _IALU

        # --- program counter
        if op == _BRANCH:
            j = next_branch
            next_branch = (j + 1) % n_branches
            pc = pc_base + 4 * (body_size + j)
        else:
            pc = pc_base + 4 * body_pos
            body_pos = (body_pos + 1) % body_size

        # --- register dependences (no generated op is a NOP)
        dep1 = -1
        dep2 = -1
        if op == _LOAD and pointer_chase and last_load_seq >= 0:
            dep1 = last_load_seq
        elif producers and random() < (
            branch_dep1_frac if op == _BRANCH else dep1_frac
        ):
            # conditions are usually computed shortly before the branch
            if random() < chain_frac:
                dep1 = producers[-1]
            else:
                window = min(dep_window, len(producers))
                dep1 = producers[-1 - randrange(window)]
        if producers and random() < two_src_frac:
            window = min(dep_window, len(producers))
            dep2 = producers[-1 - randrange(window)]

        # --- memory address
        addr = 0
        if op == _LOAD or op == _STORE:
            if random() < seq_frac:
                stream_off = (stream_off + stride) % footprint
                offset = stream_off
            else:
                # Skewed-random *object* within the footprint, walked
                # densely word by word: temporal locality falls off with
                # rank (see PhaseType docs), so larger caches capture a
                # larger share.  Ranks are scattered over the address space
                # with a multiplicative hash so the hot set spreads across
                # all cache sets instead of packing into the low ones.
                if obj_pos >= obj_words:
                    rank = int(objects * (random() ** zipf_skew))
                    obj_base = ((rank * 2654435761) % objects) * obj_bytes
                    obj_pos = 0
                offset = obj_base + obj_pos * 8
                obj_pos += 1
            addr = data_base + offset

        # --- branch outcome
        taken = False
        if op == _BRANCH:
            direction = branch_dirs[(dir_base + j) % n_branches]
            taken = direction if random() < branch_bias else not direction

        ops.append(op)
        pcs.append(pc)
        deps1.append(dep1)
        deps2.append(dep2)
        addrs.append(addr)
        takens.append(taken)

        if op <= _LOAD:  # IALU, IMUL, IDIV and LOAD produce a register
            producers.append(seq)
            if op == _LOAD:
                last_load_seq = seq

        if len(ops) >= chunk_size:
            yield chunk
            chunk = TraceChunk(start=seq + 1)
            ops = chunk.ops
            pcs = chunk.pcs
            deps1 = chunk.deps1
            deps2 = chunk.deps2
            addrs = chunk.addrs
            takens = chunk.takens

    if ops:
        yield chunk


def generate_trace(
    mix: PhaseMix,
    length: int,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Generate a ``length``-instruction trace for the given phase mixture.

    Parameters
    ----------
    mix:
        The workload's phase mixture (see :mod:`repro.isa.workloads`).
    length:
        Number of dynamic instructions to emit.
    seed:
        Root seed; traces are bit-identical for identical arguments.
    name:
        Trace name; defaults to the mixture name.
    """
    instructions: List[Instr] = []
    phase_starts: List[int] = []
    for chunk in generate_chunks(mix, length, seed, chunk_size=length):
        instructions.extend(chunk.instructions())
        phase_starts.extend(chunk.phase_starts)
    return Trace(
        name=name or mix.name,
        instructions=instructions,
        seed=seed,
        phase_starts=phase_starts,
    )


def trace_phase_summary(trace: Trace) -> Dict[str, float]:
    """Summary diagnostics: mean phase dwell and transition count."""
    starts = trace.phase_starts
    if len(starts) < 2:
        return {"transitions": 0, "mean_dwell": float(len(trace))}
    dwells = [b - a for a, b in zip(starts, starts[1:])]
    dwells.append(len(trace) - starts[-1])
    return {
        "transitions": float(len(starts) - 1),
        "mean_dwell": sum(dwells) / len(dwells),
    }
