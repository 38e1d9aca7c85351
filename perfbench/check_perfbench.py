"""The benchmark's own tests: a tiny-size smoke of every workload.

Run explicitly (the name keeps it out of the repository's test suite)::

    python3 -m pytest -q perfbench/check_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.dse.constraints import DseConstraints  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)

WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_benchmark(tmp_path, workload: str, trace: int, *extra: str,
                  cwd: str = ROOT, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny", "--out", str(tmp_path),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_comes_out_with_its_unit(tmp_path, workload, trace):
    result = result_line(run_benchmark(tmp_path, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(tmp_path, workload):
    args = run.parse_arguments(["--workload", workload, "--seed", "9",
                                "--seconds", "1", "--scale", "tiny",
                                "--out", str(tmp_path)])
    args.trace_dir = str(tmp_path)
    measure = run.WORKLOADS[workload]
    untraced, traced = measure(args, False), measure(args, True)
    assert untraced.digests() == traced.digests()
    assert untraced.failed == traced.failed == 0
    assert traced.layers and not untraced.layers


def _corrupted_expected(tmp_path, corrupt) -> str:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    corrupt(expected)
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    return str(corrupted)


def test_corrupted_expected_digest_counts_as_a_failure(tmp_path):
    def corrupt(expected):
        expected["paper_cold"]["tiny"]["blur"]["pareto_digest"] = "0" * 64

    result = result_line(run_benchmark(
        tmp_path, "paper_cold", 0, "--expected",
        _corrupted_expected(tmp_path, corrupt)))
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2


@pytest.mark.parametrize("workload", ["design_sweep", "service_mix"])
def test_corrupted_frozen_round_digest_counts_as_a_failure(tmp_path,
                                                           workload):
    seed = workloads.DEFAULT_SEED
    clean = result_line(run_benchmark(tmp_path, workload, 0, seed=seed))
    assert clean["correct"] is True

    def corrupt(expected):
        expected[workload]["tiny"][str(seed)][0] = "0" * 64

    result = result_line(run_benchmark(
        tmp_path, workload, 0, "--expected",
        _corrupted_expected(tmp_path, corrupt), seed=seed))
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == clean["attempted"]


def test_a_constrained_set_missing_a_point_is_caught():
    @dataclasses.dataclass
    class Point:
        area_luts: float
        frames_per_second: float
        fits_device: bool = True

        def to_dict(self):
            return dataclasses.asdict(self)

    unconstrained = [Point(10, 5), Point(20, 50), Point(40, 90)]
    floor = DseConstraints(min_frames_per_second=40)
    assert workloads.filtered_reference_problems(
        unconstrained[1:], unconstrained, floor) == []
    assert workloads.filtered_reference_problems(
        unconstrained[2:], unconstrained, floor)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = run_benchmark(tmp_path / "out", "paper_cold", 0,
                              cwd=str(tmp_path))
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_design_covers_every_declared_metric_and_workload():
    assert [e["name"] for e in SPEC["end_to_end"]] == list(run.GATED)
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as handle:
        design = json.load(handle)
    assert set(design["per_layer"]) == {e["name"] for e in SPEC["per_layer"]}
    assert set(design["workloads"]) == set(WORKLOADS) == set(run.WORKLOADS)
    assert design["seeds"] == {"default": workloads.DEFAULT_SEED,
                               "held_out": workloads.HELD_OUT_SEED}


def test_paper_knobs_match_the_section_4_explorer():
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        from _support import FRAME, make_explorer
    finally:
        sys.path.remove(os.path.join(ROOT, "benchmarks"))
    explorer = make_explorer("blur")
    knobs = workloads.PAPER_KNOBS
    assert (knobs["frame_width"], knobs["frame_height"]) == FRAME
    assert tuple(explorer.window_sides) == knobs["window_sides"]
    assert explorer.max_depth == knobs["max_depth"]
    assert explorer.max_cones_per_depth == knobs["max_cones_per_depth"]
    assert explorer.synthesize_all is knobs["synthesize_all"]
    assert explorer.data_format.value == knobs["data_format"].value
    assert explorer.device.name == knobs["device"]


def test_compare_flags_a_metric_worse_than_its_bound(tmp_path, capsys):
    import compare

    def report(value, self_s):
        entry = {"value": value, "unit": "s", "q1": value, "q3": value}
        return {"workload": "design_sweep", "trace": 0,
                "end_to_end": {"cpu_s": entry, "wall_s": entry,
                               "setup_s": dict(entry, value=1.0)},
                "per_layer": {"dse.explore.self_s": self_s}}

    for side, value in (("base", 1.0), ("head", 1.3)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "e2e.json").write_text(json.dumps(
            report(value, 0.0)))
        (tmp_path / side / "layers.json").write_text(json.dumps(
            dict(report(value, value), trace=1)))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 1
    lines = capsys.readouterr().out.splitlines()
    printed = {line.split()[1] for line in lines[:-1]}
    assert {"cpu_s", "wall_s", "dse.explore.self_s"} <= printed
    assert [line.split()[1] for line in lines[:-1]
            if line.rstrip().endswith("WORSE")] == ["cpu_s"]
    assert lines[-1] == "1 metric(s) worse than their bound"


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    import common

    assert common.tail(list(range(1000)))["percentile"] == 99.0
    assert common.tail(list(range(100)))["percentile"] == 90.0
    short = common.tail([3.0, 1.0])
    assert short == {"value": 3.0, "percentile": 100.0, "n": 2}
