"""Workload inputs, output checks, the unit loop, and the warm-store fill."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS

from repobench import run, speed, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_check_paper():
    text = "".join(f"\n=== {name} ===\nbody\n" for name in EXPERIMENTS)
    assert workloads.check_paper(text, None) is None
    assert workloads.check_paper(text, workloads.sha256(text)) is None
    assert "recorded digest" in workloads.check_paper(text, "0" * 64)
    assert "missing" in workloads.check_paper(text[20:], None)


def test_check_sections_names_only_the_cold_experiments():
    names = workloads.COLD_EXPERIMENTS
    text = "".join(f"\n=== {name} ===\nbody\n" for name in names)
    assert workloads.check_sections(text, names, None) is None
    assert "missing" in workloads.check_paper(text, None)
    assert "recorded digest" in workloads.check_sections(
        text, names, "0" * 64)


class _FakeWorkload:
    def __init__(self, wall_s):
        self.wall_s = wall_s
        self.fresh_calls = 0

    def fresh(self):
        self.fresh_calls += 1

    def run_unit(self):
        return workloads.UnitResult(
            wall_s=self.wall_s, digest="d", mismatch=None, jobs=3, misses=0,
            failures=0, write_errors=0)


def test_run_units_repeats_while_another_unit_fits():
    fake = _FakeWorkload(wall_s=0.01)
    assert len(run.run_units(fake, 0.0)) == 1
    assert fake.fresh_calls == 1
    # a unit that reports longer than the budget still runs exactly once
    assert len(run.run_units(_FakeWorkload(wall_s=60.0), 1.0)) == 1


def test_failures_and_mismatches_are_failed_operations():
    ok = _FakeWorkload(0.1).run_unit()
    bad = workloads.UnitResult(
        wall_s=0.1, digest="x", mismatch="differs", jobs=3, misses=0,
        failures=1, write_errors=2)
    attempted, failed, problems = run.tally_failures([ok, bad])
    # two units' jobs and output checks, and the check that they agree
    assert attempted == 3 + 3 + 2 + 1
    assert failed == 1 + 2 + 1 + 1
    assert len(problems) == 3
    assert run.tally_failures([ok, ok]) == (3 + 3 + 2 + 1, 0, [])


def test_units_that_simulated_different_jobs_disagree():
    def unit(kinds):
        return workloads.UnitResult(
            wall_s=1.0, digest="d", mismatch=None, jobs=2, misses=2,
            failures=0, write_errors=0, job_kinds=kinds,
            job_seconds=[0.5] * len(kinds))

    same = run.tally_failures([unit(["contest"]), unit(["contest"])])
    assert same[1] == 0
    differ = run.tally_failures([unit(["contest"]), unit(["standalone"])])
    assert differ[1] == 1


def test_times_are_scaled_to_the_reference_speed():
    ref = speed.REFERENCE_S

    def unit(wall_s, job_seconds, refs):
        return workloads.UnitResult(
            wall_s=wall_s, digest="d", mismatch=None, jobs=2,
            misses=len(job_seconds), failures=0, write_errors=0,
            instructions=60_000, sim_seconds=sum(job_seconds),
            job_kinds=["contest"] * len(job_seconds),
            job_seconds=job_seconds, refs=refs)

    # the second unit ran while the host was twice as slow, the third
    # three times
    cold = [unit(4.0, [1.0, 2.0], [ref, ref]),
            unit(8.0, [2.0, 4.0], [2 * ref, 2 * ref, 2 * ref]),
            unit(15.0, [3.0, 9.0], [3 * ref])]
    assert [u.scale for u in cold] == pytest.approx([1.0, 0.5, 1 / 3])
    assert workloads.fastest(cold) == 4.0
    assert workloads.scaled_wall(cold) == pytest.approx(4.0)
    assert workloads.sim_kips(cold) == pytest.approx(20.0)
    # with no reference taken, times count as measured
    warm = [unit(2.0, [], []), unit(3.0, [], []), unit(5.0, [], [])]
    assert warm[0].scale == 1.0
    assert workloads.scaled_wall(warm) == 3.0
    assert workloads.sim_kips(warm) == pytest.approx(20.0)


def test_speed_scale_is_the_mean_reference():
    ref = speed.REFERENCE_S
    assert speed.scale([ref, 3 * ref]) == pytest.approx(0.5)
    assert speed.reference_time() > 0


def test_references_sit_before_every_job():
    calls = []

    class Inner:
        workers = 1

        def run(self, jobs):
            calls.append(("run", len(jobs)))
            return [(job, 0.25) for job in jobs]

    class Job:
        kind = "contest"
        trace = [0] * 10

    def reference():
        calls.append(("ref",))
        return 0.01

    executor = workloads.CountingExecutor(Inner(), reference=reference)
    executor.run([Job(), Job()])
    assert calls == [("ref",), ("run", 1), ("ref",), ("run", 1)]
    assert executor.refs == [0.01, 0.01]
    assert executor.seconds == [0.25, 0.25]
    assert executor.instructions == 20
    plain = workloads.CountingExecutor(Inner())
    plain.run([Job(), Job()])
    assert calls[-1] == ("run", 2) and plain.refs == []


def test_fill_command_runs_this_checkouts_fill_script(tmp_path):
    command = workloads.fill_command(11, tmp_path, 2)
    assert command[0] == sys.executable
    assert Path(command[1]) == ROOT / "repobench" / "fill.py"
    assert workloads.PROGRAM_DIR == ROOT / "src" / "repro"


def test_cache_key_follows_the_sources(tmp_path):
    program = tmp_path / "src" / "repro"
    program.mkdir(parents=True)
    (program / "a.py").write_text("x = 1\n")
    before = workloads.source_digest([program])
    assert workloads.source_digest([program]) == before
    (program / "a.py").write_text("x = 2\n")
    assert workloads.source_digest([program]) != before


def test_the_first_publisher_of_a_seed_wins(tmp_path):
    cache = workloads.PaperCache(tmp_path / "paper", 5)
    assert not cache.exists()
    for n in (1, 2):
        store = tmp_path / f"store{n}"
        store.mkdir()
        cache.publish(store, f"text {n}", {"n": n})
        assert not store.exists()
    assert cache.exists()
    assert cache.text() == "text 1"
    assert cache.summary() == {"n": 1}


def test_sections_cut_the_text_at_experiment_headers():
    parts = {name: f"\n=== {name} ===\nbody of {name}\n"
             for name in EXPERIMENTS}
    assert workloads.sections("".join(parts.values())) == parts


def test_cold_digests_are_recorded_for_a_hundred_seeds():
    for seed in range(100):
        assert workloads.recorded_digest("cold", seed) is not None, seed


def test_the_default_seed_has_its_sections_recorded():
    # the section digests come from the same reproduction as the whole
    # text's digest, so they are re-recorded together
    paper = workloads.recorded_digest("paper", 11)
    by_section = workloads.recorded_digest("sections", 11)
    assert paper is not None
    assert sorted(by_section) == sorted(EXPERIMENTS)


def test_the_warm_store_is_filled_by_the_commit_under_test(tmp_path):
    """A ``repro`` package earlier on the path must not fill the store:
    the fill imports the program of the benchmark's own checkout, and its
    output matches the digest recorded for the default seed.

    The fill runs one experiment, ``ext_corpus`` (a few seconds), and is
    checked against that experiment's section of the default seed's
    recorded reproduction; benchmark runs check the whole fill."""
    decoy = tmp_path / "decoy" / "repro"
    decoy.mkdir(parents=True)
    (decoy / "__init__.py").write_text("raise ImportError('decoy repro')\n")
    store = tmp_path / "store"
    store.mkdir()
    env = dict(os.environ, PYTHONPATH=str(decoy.parent))
    done = subprocess.run(
        workloads.fill_command(11, store, 2, ["ext_corpus"]), check=True,
        env=env, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    summary = json.loads(done.stdout.splitlines()[-1])
    assert Path(summary["program"]) == workloads.PROGRAM_DIR
    recorded = workloads.recorded_digest("sections", 11)
    assert summary["digest"] == recorded["ext_corpus"]
    assert summary["failures"] == summary["write_errors"] == 0
    assert summary["simulated"] > 0
    assert (store / "rendered.txt").read_text().startswith(
        "\n=== ext_corpus ===")
