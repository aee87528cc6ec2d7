"""Streaming-vs-materialised differential parity.

The streaming trace's contract is *bit-identical* simulation: for any
profile, any backend, any chunk size, running the streamed trace must
produce exactly the result of running the materialised trace — every
stat, every per-region retire time at ``region_size=1``, every cache
counter.  The fast slice covers a representative spread on every push;
the ``slow``-marked full legacy matrix plus the sampled grammar matrix
runs nightly, like ``tests/differential/test_backend.py``.
"""

import dataclasses

import pytest

from repro.engine import SimEngine, StandaloneJob, TraceSpec
from repro.engine.jobs import resolve_trace
from repro.isa.stream import StreamingTrace
from repro.isa.trace import Trace
from repro.isa.workloads import BENCHMARKS, workload_profile
from repro.corpus import corpus_spec, resolve_profile
from repro.uarch.config import core_config
from repro.uarch.run import run_standalone

from tests.corpus.sampling import sample_specs
from tests.differential.diffutil import _assert_dicts_equal


def assert_streaming_identical(
    config, mix, length, seed=11, backend="reference", chunk_size=None,
    **kwargs,
):
    """Run materialised and streamed and require bit-identical results."""
    from repro.isa.generator import generate_trace

    materialised = generate_trace(mix, length, seed=seed)
    stream_kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    streamed = StreamingTrace(mix, length, seed=seed, **stream_kwargs)
    want = run_standalone(config, materialised, backend=backend, **kwargs)
    got = run_standalone(config, streamed, backend=backend, **kwargs)
    _assert_dicts_equal(
        dataclasses.asdict(got),
        dataclasses.asdict(want),
        f"streaming {config.name} on {mix.name} [{backend}]",
    )
    assert streamed.fingerprint() == materialised.fingerprint()


# --- fast slice (every push) ------------------------------------------


@pytest.mark.parametrize("profile", ("gcc", "mcf", "twolf"))
def test_legacy_profile_parity_reference(profile):
    assert_streaming_identical(
        core_config(profile), workload_profile(profile), 3000,
        region_size=1,
    )


@pytest.mark.parametrize(
    "name", ("corpus/stream-f64k-b92", "corpus/wide_ilp+branchy-r50-d1")
)
def test_corpus_workload_parity_reference(name):
    assert_streaming_identical(
        core_config("gcc"), resolve_profile(name), 3000, region_size=1,
    )


def test_parity_at_tiny_chunk_sizes():
    # chunk boundaries inside every pipeline structure: the carried-state
    # paths (window eviction, backward reads) all exercise
    assert_streaming_identical(
        core_config("crafty"), workload_profile("vpr"), 2000,
        chunk_size=97, region_size=1,
    )


def test_columnar_backend_parity_streaming():
    np = pytest.importorskip("numpy")  # noqa: F841
    from repro.backend import get_backend

    # compute-only sampled grammar spec: the columnar fast path engages,
    # exercising the chunked scheduler's carried pipeline state
    from tests.corpus.fixture import compute_only_spec

    mix = compute_only_spec().build_mix()
    stats = get_backend("columnar").stats
    before = stats.fast_runs
    assert_streaming_identical(
        core_config("gcc"), mix, 4000, backend="columnar", region_size=1,
    )
    assert stats.fast_runs > before, "columnar fast path did not engage"


def test_columnar_fallback_parity_streaming():
    pytest.importorskip("numpy")
    # memory ops push this outside the columnar envelope: the certificate
    # routes to the reference loop, which must consume the stream too
    assert_streaming_identical(
        core_config("gcc"), workload_profile("gcc"), 2500,
        backend="columnar", region_size=1,
    )


def test_backward_access_restarts_generation():
    mix = workload_profile("gcc")
    trace = StreamingTrace(mix, 6000, seed=11, chunk_size=64)
    ops = trace.decoded().ops
    ops[5999]
    before = trace.restarts
    assert ops[0] == Trace("x", list(trace.materialise()), 11).decoded().ops[0]
    assert trace.restarts > before


_FIELDS = ("ops", "pcs", "deps1", "deps2", "addrs", "takens")


def _column_case(length=3000, chunk_size=64):
    """A small-chunked stream and its materialised columns."""
    from repro.isa.generator import generate_trace

    mix = workload_profile("gcc")
    trace = StreamingTrace(mix, length, seed=11, chunk_size=chunk_size)
    want = generate_trace(mix, length, seed=11).decoded()
    return trace, want


class TestColumnFastPath:
    """A column serves reads inside its last chunk after one range check;
    every other read goes through the chunk window."""

    def test_interleaved_forward_sweep_is_one_pass(self):
        trace, want = _column_case()
        decoded = trace.decoded()
        for i in range(len(trace)):
            for name in _FIELDS:
                assert getattr(decoded, name)[i] == getattr(want, name)[i]
        assert trace.restarts == 1

    def test_windowed_reads_restart_exactly_as_through_the_window(self):
        """A core-like pattern (a band of reads trailing a forward-moving
        head, with occasional jumps back past the window) restarts
        generation exactly as often as chunk-by-chunk window reads."""
        from repro.isa.stream import _ChunkWindow
        from repro.util.rng import substream

        trace, want = _column_case(length=4000, chunk_size=32)
        reference, _ = _column_case(length=4000, chunk_size=32)
        window = _ChunkWindow(reference)
        decoded = trace.decoded()
        rng = substream(3, "column-reads")
        head = 0
        for step in range(6000):
            head = min(head + rng.randrange(3), len(trace) - 1)
            back = 2000 if step % 1500 == 1499 else rng.randrange(300)
            index = max(0, head - back)
            name = rng.choice(_FIELDS)
            chunk = window.chunk(index)
            expected = getattr(chunk, name)[index - chunk.start]
            assert getattr(decoded, name)[index] == expected
            assert expected == getattr(want, name)[index]
        assert trace.restarts == reference.restarts > 1

    def test_a_column_forgets_chunks_the_window_evicted(self):
        trace, want = _column_case()
        decoded = trace.decoded()
        assert decoded.ops[1] == want.ops[1]  # ops now holds chunk 0
        for i in range(len(trace)):
            decoded.pcs[i]  # sweeps chunk 0 out of the window
        before = trace.restarts
        assert decoded.ops[2] == want.ops[2]
        assert trace.restarts == before + 1

    def test_negative_indices(self):
        trace, want = _column_case()
        decoded = trace.decoded()
        n = len(trace)
        for name in _FIELDS:
            column = getattr(decoded, name)
            assert column[-1] == getattr(want, name)[n - 1]
            assert column[-n] == getattr(want, name)[0]

    def test_out_of_range_raises_index_error(self):
        trace, _ = _column_case()
        decoded = trace.decoded()
        n = len(trace)
        decoded.ops[n - 1]  # the last chunk is the column's current one
        for index in (n, n + 5, -n - 1):
            with pytest.raises(IndexError):
                decoded.ops[index]
            with pytest.raises(IndexError):
                decoded.takens[index]


class TestEngineIntegration:
    def test_stream_flag_keys_the_cache_separately(self):
        base = TraceSpec("gcc", 2000)
        streamed = TraceSpec("gcc", 2000, stream=True)
        job = StandaloneJob(core_config("gcc"), base)
        sjob = StandaloneJob(core_config("gcc"), streamed)
        assert job.cache_key() != sjob.cache_key()

    def test_streamed_job_result_equals_materialised(self):
        engine = SimEngine()
        config = core_config("gcc")
        want = engine.run(StandaloneJob(config, TraceSpec("gcc", 2000)))
        got = engine.run(
            StandaloneJob(config, TraceSpec("gcc", 2000, stream=True))
        )
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_resolve_trace_returns_fresh_streams(self):
        spec = TraceSpec("gcc", 1000, stream=True)
        a = resolve_trace(spec)
        b = resolve_trace(spec)
        assert isinstance(a, StreamingTrace)
        assert a is not b  # no memo: windows/restart counters are not shared

    def test_corpus_spec_fingerprint_carries_the_content_hash(self):
        name = "corpus/serial_chain-f16k-b98"
        fp = TraceSpec(name, 2000).fingerprint()
        assert corpus_spec(name).content_hash()[:12] in fp
        assert TraceSpec(name, 2000, stream=True).fingerprint() == (
            fp + "/stream"
        )


# --- full matrix (nightly) --------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("profile", BENCHMARKS)
def test_full_legacy_parity_matrix(profile):
    """All 11 legacy profiles, reference backend, retire streams pinned."""
    assert_streaming_identical(
        core_config(profile), workload_profile(profile), 6000,
        region_size=1,
    )


@pytest.mark.slow
@pytest.mark.parametrize("profile", BENCHMARKS[::2])
def test_full_legacy_parity_columnar(profile):
    pytest.importorskip("numpy")
    assert_streaming_identical(
        core_config("gcc"), workload_profile(profile), 6000,
        backend="columnar", region_size=1,
    )


@pytest.mark.slow
@pytest.mark.parametrize("index", range(10))
def test_sampled_grammar_parity_matrix(index):
    """Sampled grammar workloads on contrasting cores, both directions."""
    spec = sample_specs(10)[index]
    core = ("gcc", "mcf", "crafty")[index % 3]
    assert_streaming_identical(
        core_config(core), spec.build_mix(), 5000, region_size=1,
    )
    assert_streaming_identical(
        core_config(core), spec.build_mix(), 5000,
        chunk_size=256, region_size=1,
    )
