"""Tests for the pluggable batch-execution layer (ISSUE 3 tentpole).

The headline property: ``Session.run_many`` returns *byte-identical*
serialized results whatever the strategy (``serial``/``threads``/
``processes``), the worker count, or the submission order — parallelism is
a scheduling concern, never a semantics concern.  The scheduling itself is
deterministic too: shard assignment depends only on the multiset of
characterization keys in the batch.
"""

import json
import os
import random
import time

import pytest

from repro.api import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
    Session,
    ThreadExecutor,
    Workload,
    list_backends,
    register_backend,
    shard_workloads,
    unregister_backend,
)
from repro.api.cli import main as cli_main
from repro.api.executor import resolve_worker_count, validate_max_workers

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3)


def mixed_batch():
    """blur/jacobi/chambolle workloads, including shared-key frame pairs."""
    return [
        Workload.from_algorithm("blur", **SMALL),
        Workload.from_algorithm("blur", frame_width=640, frame_height=480,
                                **SMALL),
        Workload.from_algorithm("jacobi", **SMALL),
        Workload.from_algorithm("chamb", **SMALL),
        Workload.from_algorithm("chamb", frame_width=640, frame_height=480,
                                **SMALL),
    ]


def serialized(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestWorkerCountValidation:
    """ISSUE 3 satellite: bad ``max_workers`` must fail loudly, not be
    silently replaced by an ``os.cpu_count()`` default."""

    @pytest.mark.parametrize("bad", [0, -1, -8, 1.5, True, "4"])
    def test_run_many_rejects_non_positive_worker_counts(self, bad):
        with pytest.raises(ValueError, match="max_workers"):
            Session().run_many([Workload.from_algorithm("blur", **SMALL)],
                               max_workers=bad)

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_every_builtin_strategy_rejects_zero_workers(self, name):
        with pytest.raises(ValueError, match="max_workers"):
            Session().run_many([Workload.from_algorithm("blur", **SMALL)],
                               max_workers=0, executor=name)

    def test_validation_happens_before_any_workload_runs(self):
        session = Session()
        with pytest.raises(ValueError):
            session.run_many(mixed_batch(), max_workers=-2)
        assert session.stats.workloads_run == 0

    def test_none_means_auto_sizing(self):
        assert validate_max_workers(None) is None
        assert resolve_worker_count(None, 3) >= 1
        assert resolve_worker_count(8, 3) == 3  # capped to the batch


class TestDeterministicSharding:
    def test_shards_partition_the_batch(self):
        batch = mixed_batch()
        shards = shard_workloads(batch, 3)
        indices = sorted(i for shard in shards for i in shard)
        assert indices == list(range(len(batch)))

    def test_shared_keys_stay_in_one_shard(self):
        batch = mixed_batch()
        shards = shard_workloads(batch, len(batch))
        shard_of = {i: n for n, shard in enumerate(shards) for i in shard}
        keys = [w.characterization_key() for w in batch]
        for a in range(len(batch)):
            for b in range(a + 1, len(batch)):
                if keys[a] == keys[b]:
                    assert shard_of[a] == shard_of[b]

    def test_assignment_ignores_submission_order(self):
        """The key -> shard mapping must be a function of the key multiset
        only, so shuffled batches schedule identically."""
        batch = mixed_batch()
        ordering = list(range(len(batch)))
        reference = None
        for seed in range(5):
            random.Random(seed).shuffle(ordering)
            shuffled = [batch[i] for i in ordering]
            shards = shard_workloads(shuffled, 2)
            key_to_shard = {
                repr(shuffled[i].characterization_key()): n
                for n, shard in enumerate(shards) for i in shard}
            if reference is None:
                reference = key_to_shard
            assert key_to_shard == reference

    def test_shard_count_validated(self):
        with pytest.raises(ValueError, match="shard_count"):
            shard_workloads(mixed_batch(), 0)


class TestExecutorRegistry:
    def test_builtins_are_registered(self):
        assert list_backends("executor") == {
            "executor": sorted(EXECUTOR_NAMES)}

    def test_out_of_tree_strategy_plugs_in(self):
        """A custom executor registered under the ``executor`` kind runs
        end-to-end through ``Session.run_many``."""
        calls = []

        class RecordingExecutor(SerialExecutor):
            name = "recording"

            def run_batch(self, session, workloads, max_workers=None):
                calls.append(len(workloads))
                return super().run_batch(session, workloads,
                                         max_workers=max_workers)

        register_backend("executor", "recording", RecordingExecutor)
        try:
            results = Session().run_many(
                [Workload.from_algorithm("blur", **SMALL)],
                executor="recording")
            assert calls == [1] and len(results) == 1
        finally:
            unregister_backend("executor", "recording")

    def test_unknown_strategy_fails_cleanly(self):
        from repro.api import BackendError

        with pytest.raises(BackendError, match="unknown executor"):
            Session().run_many([Workload.from_algorithm("blur", **SMALL)],
                               executor="not-a-strategy")

    def test_strategy_instance_accepted_directly(self):
        results = Session().run_many(
            [Workload.from_algorithm("blur", **SMALL)],
            executor=ThreadExecutor())
        assert len(results) == 1 and results[0].pareto


@pytest.mark.par
@pytest.mark.slow
class TestCrossExecutorDeterminism:
    """ISSUE 3 satellite: byte-identical ``to_dict()`` results for serial,
    threads, and processes — including under shuffled submission order."""

    def test_all_strategies_agree_byte_for_byte(self):
        batch = mixed_batch()
        baseline = [serialized(r)
                    for r in Session().run_many(batch, executor="serial")]
        for name in ("threads", "processes"):
            results = Session().run_many(batch, max_workers=4, executor=name)
            assert [serialized(r) for r in results] == baseline, name

    def test_shuffled_submission_changes_nothing_per_workload(self):
        batch = mixed_batch()
        baseline = {
            workload: serialized(result)
            for workload, result in zip(
                batch, Session().run_many(batch, executor="serial"))}
        ordering = list(range(len(batch)))
        random.Random(42).shuffle(ordering)
        shuffled = [batch[i] for i in ordering]
        for name in ("threads", "processes"):
            results = Session().run_many(shuffled, max_workers=3,
                                         executor=name)
            for workload, result in zip(shuffled, results):
                assert serialized(result) == baseline[workload], name

    def test_worker_count_does_not_change_results(self):
        batch = mixed_batch()
        baseline = [serialized(r)
                    for r in Session().run_many(batch, executor="serial")]
        for workers in (1, 2, 5):
            results = Session().run_many(batch, max_workers=workers,
                                         executor="processes")
            assert [serialized(r) for r in results] == baseline, workers


@pytest.mark.par
@pytest.mark.slow
class TestProcessExecutor:
    def test_cold_run_merges_stats_and_store_writes(self, tmp_path):
        store_dir = str(tmp_path / "store")
        session = Session(store=store_dir)
        results = session.run_many(mixed_batch(), max_workers=4,
                                   executor="processes")
        assert len(results) == 5 and all(r.pareto for r in results)
        stats = session.stats
        assert stats.workloads_run == 5
        assert stats.synthesis_runs > 0        # folded in from the workers
        assert stats.store_writes > 0          # workers share the store

    def test_warm_rerun_shares_the_serial_code_path(self, tmp_path):
        """A store-warm batch must be answered in-process (zero forks, zero
        synthesis) — cold parallel runs and warm reruns share one path."""
        store_dir = str(tmp_path / "store")
        batch = mixed_batch()
        cold = Session(store=store_dir)
        cold_results = cold.run_many(batch, max_workers=4,
                                     executor="processes")

        warm = Session(store=store_dir)
        warm_results = warm.run_many(batch, max_workers=4,
                                     executor="processes")
        assert warm.stats.synthesis_runs == 0
        assert warm.stats.store_disk_hits == len(batch)
        assert ([serialized(r) for r in warm_results]
                == [serialized(r) for r in cold_results])

    def test_results_promoted_into_parent_memory(self):
        """Without a store, a later ``run()`` of the same workload in the
        parent session is a memory hit, not a recomputation."""
        batch = mixed_batch()
        session = Session()
        session.run_many(batch, max_workers=4, executor="processes")
        runs = session.stats.synthesis_runs
        events = []
        session.on_event(events.append)
        rerun = session.run(batch[0])
        assert rerun.pareto
        assert session.stats.synthesis_runs == runs
        assert any(event.kind == "cache-hit"
                   and "restored result" in event.detail
                   for event in events)

    def test_batch_events_are_emitted(self):
        events = []
        session = Session(on_event=events.append)
        session.run_many(mixed_batch(), max_workers=4, executor="processes")
        finished = [e for e in events if e.kind == "workload-finished"]
        assert len(finished) == 5
        assert all(e.elapsed_s is not None and e.elapsed_s >= 0
                   for e in finished)

    def test_worker_failure_propagates_to_the_parent(self):
        """A failing shard must re-raise like serial/threads do — but only
        after the batch completes, with the failure counted and announced
        and the surviving shards' statistics preserved."""
        bad = Workload.from_algorithm("blur",
                                      calibration_windows_per_depth=1,
                                      **SMALL)
        good = Workload.from_algorithm("jacobi", **SMALL)
        events = []
        session = Session(on_event=events.append)
        with pytest.raises(ValueError, match="calibration_windows_per_depth"):
            session.run_many([bad, good], max_workers=2,
                             executor="processes")
        stats = session.stats
        assert stats.workloads_failed == 1
        assert stats.workloads_run == 1       # the good shard still counted
        assert stats.synthesis_runs > 0       # ... and kept its accounting
        failed = [e for e in events if e.kind == "workload-failed"]
        assert len(failed) == 1
        assert "calibration_windows_per_depth" in failed[0].detail

    def test_explicit_start_method_is_honored(self):
        executor = ProcessExecutor(start_method="fork")
        results = Session().run_many(
            [Workload.from_algorithm("blur", **SMALL),
             Workload.from_algorithm("jacobi", **SMALL)],
            max_workers=2, executor=executor)
        assert len(results) == 2 and all(r.pareto for r in results)


class TestInProcessWarmPath:
    """ISSUE 4 satellite: the warm/cold split consults the *in-memory*
    caches — full results and the characterization-key explorer cache —
    not just the persistent store, so repeated in-session batches never pay
    pool startup.  (Fast: nothing here is allowed to fork, which is the
    point — so no ``par`` marker.)"""

    @staticmethod
    def _forbid_forking(monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor must not be created "
                                 "for an in-session-warm batch")
        monkeypatch.setattr("repro.api.executor.ProcessPoolExecutor", boom)

    def test_rerun_of_a_computed_batch_forks_nothing(self, monkeypatch):
        batch = [Workload.from_algorithm("blur", **SMALL),
                 Workload.from_algorithm("jacobi", **SMALL)]
        session = Session()
        first = session.run_many(batch, executor="serial")
        self._forbid_forking(monkeypatch)
        rerun = session.run_many(batch, max_workers=4, executor="processes")
        assert ([serialized(r) for r in rerun]
                == [serialized(r) for r in first])

    def test_new_frames_over_characterized_kernels_fork_nothing(
            self, monkeypatch):
        """A follow-up batch over new frame sizes reuses the in-memory cone
        characterizations; forking would recompute them from scratch in the
        workers, so it must stay in-process."""
        batch = [Workload.from_algorithm("blur", **SMALL),
                 Workload.from_algorithm("jacobi", **SMALL)]
        session = Session()
        session.run_many(batch, executor="serial")
        runs_before = session.stats.synthesis_runs
        self._forbid_forking(monkeypatch)
        shifted = [workload.replace(frame_width=200, frame_height=150)
                   for workload in batch]
        results = session.run_many(shifted, max_workers=4,
                                   executor="processes")
        assert all(result.pareto for result in results)
        # shared characterizations: the new frames paid zero synthesis
        assert session.stats.synthesis_runs == runs_before

    def test_cold_keys_still_prefer_forking(self):
        """The in-memory probe must not claim workloads the session has
        never seen (their keys have no explorer yet)."""
        session = Session()
        cold = Workload.from_algorithm("blur", **SMALL)
        assert not session._prefers_in_process(cold)
        session.run(cold)
        assert session._prefers_in_process(cold)
        # same characterization key, different frame: explorer-cache warm
        assert session._prefers_in_process(
            cold.replace(frame_width=200, frame_height=150))
        # different kernel: genuinely cold
        assert not session._prefers_in_process(
            Workload.from_algorithm("jacobi", **SMALL))

    def test_iteration_count_needing_new_depth_families_stays_cold(self):
        """The probe checks family coverage, not mere explorer existence: an
        iteration count that introduces uncharacterized depth families must
        still fork (its synthesis genuinely parallelizes)."""
        shallow = Workload.from_algorithm(
            "blur", iterations=1, window_sides=(1, 2, 3), max_depth=2,
            max_cones_per_depth=3)
        session = Session()
        session.run(shallow)  # characterizes the depth-1 family only
        assert session._prefers_in_process(
            shallow.replace(frame_width=200, frame_height=150))
        deeper = shallow.replace(iterations=4)  # adds the depth-2 family
        assert not session._prefers_in_process(deeper)
        session.run(deeper)
        assert session._prefers_in_process(deeper.replace(frame_width=64,
                                                          frame_height=64))


@pytest.mark.par
@pytest.mark.slow
class TestScalingSpeedup:
    def test_processes_beat_serial_on_a_multicore_runner(self):
        """ISSUE 3 acceptance: >= 2x over serial on a cold 4-kernel batch
        with 4 workers (the frozen BENCH_<date>.json snapshots hold the
        last full-scale runs).  Meaningless without real cores — the
        strategy trades fork overhead for parallelism — so skipped below 4.
        """
        if (os.cpu_count() or 1) < 4:
            pytest.skip("needs >= 4 cores to demonstrate process scaling")
        knobs = dict(iterations=8, window_sides=(1, 2, 3, 4, 5, 6),
                     max_depth=4, max_cones_per_depth=8,
                     synthesize_all=True)
        batch = [Workload.from_algorithm(name, **knobs)
                 for name in ("blur", "chamb", "jacobi", "heat")]

        started = time.perf_counter()
        serial = Session().run_many(batch, executor="serial")
        serial_wall = time.perf_counter() - started

        started = time.perf_counter()
        parallel = Session().run_many(batch, max_workers=4,
                                      executor="processes")
        parallel_wall = time.perf_counter() - started

        assert ([serialized(r) for r in parallel]
                == [serialized(r) for r in serial])
        assert serial_wall / parallel_wall >= 2.0, (
            f"processes {parallel_wall:.2f}s vs serial {serial_wall:.2f}s")


class TestCliExecutorFlags:
    def test_sweep_accepts_serial_executor(self, capsys):
        assert cli_main(["sweep", "--algorithms", "blur", "--frames",
                         "128x96", "--iterations", "4", "--windows", "1,2,3",
                         "--max-depth", "2", "--executor", "serial",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workloads"]

    def test_explore_accepts_executor_and_jobs(self, capsys):
        assert cli_main(["explore", "blur", "--frame", "128x96",
                         "--iterations", "4", "--windows", "1,2,3",
                         "--max-depth", "2", "--quiet", "--executor",
                         "serial", "--jobs", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exploration"]["pareto"]

    def test_unknown_executor_name_exits_2(self, capsys):
        assert cli_main(["sweep", "--algorithms", "blur", "--frames",
                         "128x96", "--iterations", "4", "--windows", "1,2,3",
                         "--max-depth", "2", "--executor", "warp-drive",
                         "--json"]) == 2
        assert "unknown executor" in capsys.readouterr().err

    def test_invalid_jobs_exits_2(self, capsys):
        assert cli_main(["sweep", "--algorithms", "blur", "--frames",
                         "128x96", "--iterations", "4", "--windows", "1,2,3",
                         "--max-depth", "2", "--jobs", "0", "--json"]) == 2
        assert "max_workers" in capsys.readouterr().err

    @pytest.mark.par
    @pytest.mark.slow
    def test_sweep_processes_executor_end_to_end(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        arguments = ["sweep", "--algorithms", "blur,jacobi", "--frames",
                     "128x96", "--iterations", "4", "--windows", "1,2,3",
                     "--max-depth", "2", "--executor", "processes", "--jobs",
                     "2", "--store", store_dir, "--json"]
        assert cli_main(arguments) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["session"]["synthesis_runs"] > 0
        assert cli_main(arguments) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["session"]["synthesis_runs"] == 0
        assert warm["workloads"] == cold["workloads"]
