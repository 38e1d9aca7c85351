"""Tests for the one batch path, ``Session.run_many``.

The headline property: ``Session.run_many`` returns *byte-identical*
serialized results whatever the pool size or the submission order — the
thread pool is a scheduling concern, never a semantics concern.  A pool of
one runs inline on the calling thread and follows the same failure rule as
any larger pool: every workload runs, then the earliest failure in input
order is re-raised.
"""

import json
import random

import pytest

from repro.api import BackendError, Session, Workload
from repro.api.cli import main as cli_main
from repro.api.session import resolve_worker_count, validate_max_workers

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
    """Bad ``max_workers`` must fail loudly, not be silently replaced by an
    ``os.cpu_count()`` default."""

    @pytest.mark.parametrize("bad", [0, -1, -8, 1.5, True, "4"])
    def test_run_many_rejects_non_positive_worker_counts(self, bad):
        with pytest.raises(ValueError, match="max_workers"):
            Session().run_many([Workload.from_algorithm("blur", **SMALL)],
                               max_workers=bad)

    def test_validation_happens_before_any_workload_runs(self):
        session = Session()
        with pytest.raises(ValueError):
            session.run_many(mixed_batch(), max_workers=-2)
        assert session.stats.workloads_run == 0

    def test_none_means_auto_sizing(self):
        assert validate_max_workers(None) is None
        assert resolve_worker_count(None, 3) >= 1
        assert resolve_worker_count(8, 3) == 3  # capped to the batch


class TestPoolSizeDeterminism:
    def test_pool_size_and_submission_order_do_not_change_results(self):
        """Inline (``max_workers=1``) is the oracle: pools of 2 and 5, and
        a shuffled submission order, must give byte-identical results per
        workload."""
        batch = mixed_batch()
        baseline = [serialized(r)
                    for r in Session().run_many(batch, max_workers=1)]
        for workers in (2, 5):
            results = Session().run_many(batch, max_workers=workers)
            assert [serialized(r) for r in results] == baseline, workers

        expected = dict(zip(batch, baseline))
        ordering = list(range(len(batch)))
        random.Random(42).shuffle(ordering)
        shuffled = [batch[i] for i in ordering]
        results = Session().run_many(shuffled, max_workers=3)
        for workload, result in zip(shuffled, results):
            assert serialized(result) == expected[workload]


class TestFailureRule:
    """One failure rule for every pool size: every workload runs, then the
    earliest failure in input order is re-raised."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_every_workload_runs_before_the_failure_is_raised(
            self, max_workers):
        batch = [
            Workload.from_algorithm("blur", **SMALL),
            Workload.from_algorithm("heat", calibration_windows_per_depth=1,
                                    **SMALL),
            Workload.from_algorithm("jacobi", **SMALL),
            Workload.from_algorithm("erode", calibration_windows_per_depth=1,
                                    **SMALL),
        ]
        events = []
        session = Session(on_event=events.append)
        with pytest.raises(ValueError, match="calibration_windows_per_depth"):
            session.run_many(batch, max_workers=max_workers)
        stats = session.stats
        assert stats.workloads_run == 2
        assert stats.workloads_failed == 2
        assert sorted(e.workload.name for e in events
                      if e.kind == "workload-finished") == ["blur", "jacobi"]
        # completed siblings are cached: a replay is a memory hit
        runs = stats.synthesis_runs
        assert session.run(batch[2]).pareto
        assert session.stats.synthesis_runs == runs

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_earliest_failure_in_input_order_is_raised(self, max_workers):
        bad_calibration = Workload.from_algorithm(
            "heat", calibration_windows_per_depth=1, **SMALL)
        bad_backend = Workload.from_algorithm(
            "erode", synthesizer="no-such-backend", **SMALL)
        good = Workload.from_algorithm("blur", **SMALL)
        with pytest.raises(ValueError, match="calibration_windows_per_depth"):
            Session().run_many([good, bad_calibration, bad_backend],
                               max_workers=max_workers)
        with pytest.raises(BackendError, match="no-such-backend"):
            Session().run_many([good, bad_backend, bad_calibration],
                               max_workers=max_workers)


class TestCliJobsFlag:
    def test_invalid_jobs_exits_2(self, capsys):
        assert cli_main(["sweep", "--algorithms", "blur", "--frames",
                         "128x96", "--iterations", "4", "--windows", "1,2,3",
                         "--max-depth", "2", "--jobs", "0", "--json"]) == 2
        assert "max_workers" in capsys.readouterr().err

    def test_sweep_jobs_one_runs_inline(self, capsys):
        assert cli_main(["sweep", "--algorithms", "blur,jacobi", "--frames",
                         "128x96", "--iterations", "4", "--windows", "1,2,3",
                         "--max-depth", "2", "--jobs", "1", "--quiet",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["workloads"]) == 2

    @pytest.mark.parametrize("arguments", [
        ["sweep", "--algorithms", "blur", "--executor", "threads"],
        ["explore", "blur", "--jobs", "2"],
    ])
    def test_removed_flags_are_rejected(self, arguments, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(arguments)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
