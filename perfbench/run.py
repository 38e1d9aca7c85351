"""The repository benchmark: three seeded workloads, checked outputs.

Run from the checkout root::

    python3 perfbench/run.py --workload paper_cold --seed 2013 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
``--trace 1`` repeats the measured phase in a fresh process with every
layer entry point wrapped (see ``layers.py``) and prints the per-layer
metrics, including the tracing overhead against the untraced phase.  The
last stdout line is the JSON result; the full report (quartiles, sample
counts, environment, per-kernel walls, problems) is written under
``.perfbench/results/``.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

#: End-to-end metrics (untraced phase) and their units.
END_TO_END = {"setup_s": "s", "setup_wall_s": "s", "wall_s": "s",
              "cpu_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "requests_per_s": "1/s", "peak_rss_mb": "MB"}
#: The ones the result line carries and BENCHMARK.json bounds.  The other
#: wall-clock metrics go to the run report only: time stolen by other
#: tenants of the host spreads them too widely across runs (README.md).
GATED = ("setup_s", "cpu_s", "peak_rss_mb")

#: Per-layer metrics a workload measures outside the spans.
LAYER_METRICS_OUTSIDE_SPANS = (
    "dse.stream.pruned_fraction", "service.queue_wait_p50_ms",
    "service.queue_wait_tail_ms", "service.coalesce.hit_ratio",
    "service.batch.mean_size", "service.transport_ms", "service.jobs_failed")

#: The paper's names of the paper_cold kernels.
KERNEL_NAMES = {"blur": "igf", "chamb": "chambolle"}

#: Set-up probes per paper_cold run (fresh interpreter + imports only).
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170.0


class Phase:
    """One measured phase: rounds of work plus the checks made on them."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.setup_wall_s: List[float] = []
        self.rounds: List[Dict[str, Any]] = []
        self.latencies_s: List[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.layers: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, float] = {}
        #: Report-only sample series (the per-kernel cold walls).
        self.series: Dict[str, List[float]] = {}
        #: Per-layer metrics measured outside the spans (zero if absent).
        self.layer_metrics: Dict[str, float] = {}
        #: CPU seconds by request kind, summed over the rounds.
        self.kind_cpu_s: Dict[str, float] = {}

    def add_setup(self, report: Dict[str, Any], spawned: float) -> None:
        """Set-up is measured in CPU seconds: the wall clock of a CPU-bound
        set-up mostly measures time stolen by other tenants (README.md)."""
        self.setup_s.append(report["ready_cpu"])
        self.setup_wall_s.append(report["ready"] - spawned)

    def add_rounds(self, report: Dict[str, Any]) -> None:
        self.rounds.extend(report["rounds"])
        for each in report["rounds"]:
            self.kind_cpu_s = _add(self.kind_cpu_s, each.get("kind_cpu_s", {}))
        self.latencies_s.extend(report["latencies_s"])
        self.attempted += (sum(r["requests"] for r in report["rounds"])
                           + report["checks"])
        self.failed += (sum(r["failed"] for r in report["rounds"])
                        + report["checks_failed"])
        self.problems.extend(report["problems"])
        self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])

    def wall_s(self) -> float:
        return common.quartiles([r["wall_s"] for r in self.rounds])["median"]

    def digests(self) -> List[str]:
        return [r["digest"] for r in self.rounds]

    def cpu_share(self) -> Dict[str, float]:
        """Each request kind's share of the rounds' CPU time; ``other`` is
        the rest (for service_mix: HTTP, queue, scheduler, load generator
        and, when traced, the span wrappers)."""
        total = sum(r["cpu_s"] for r in self.rounds)
        shares = {kind: cpu / total for kind, cpu in self.kind_cpu_s.items()}
        if shares:
            shares["other"] = 1.0 - sum(shares.values())
        return shares

    def check_frozen(self, frozen: List[str]) -> None:
        """Count each round whose output digest differs from the frozen
        one for this seed and scale."""
        for index, (got, want) in enumerate(zip(self.digests(), frozen)):
            self.attempted += 1
            if got != want:
                self.failed += 1
                self.problems.append(f"round {index} output {got[:12]} "
                                     f"differs from the frozen {want[:12]}")


# ---------------------------------------------------------------------- #
# paper_cold


def paper_cold(args: argparse.Namespace, traced: bool) -> Phase:
    import workloads

    scale = workloads.SCALES[args.scale]
    expected = _expected(args)["paper_cold"][scale.name]
    phase = Phase()
    if not traced:
        for _ in range(SETUP_PROBES):
            process, spawned = common.spawn_worker("setup")
            phase.add_setup(common.collect(process, WORKER_TIMEOUT_S),
                            spawned)
    kernel_walls: Dict[str, List[float]] = {}
    for _ in range(workloads.rounds_for("paper_cold", args.seconds)):
        wall = cpu = 0.0
        digests = []
        kind_cpu_s: Dict[str, float] = {}
        for kernel in workloads.paper_order(args.seed):
            spans = os.path.join(args.trace_dir, f"paper_cold-{kernel}.jsonl")
            process, spawned = common.spawn_worker(
                "cold", kernel, scale.name, "1" if traced else "0", spans)
            report = common.collect(process, WORKER_TIMEOUT_S)
            phase.add_setup(report, spawned)
            wall += report["wall_s"]
            cpu += report["cpu_s"]
            phase.latencies_s.append(report["wall_s"])
            kernel_walls.setdefault(kernel, []).append(report["wall_s"])
            phase.peak_rss_mb = max(phase.peak_rss_mb, report["peak_rss_mb"])
            problems = _paper_problems(kernel, report, expected[kernel])
            phase.attempted += 1
            phase.failed += bool(problems)
            phase.problems.extend(problems)
            digests.append([report["characterization_digest"],
                            report["pareto_digest"]])
            phase.layers = _merge(phase.layers, report.get("layers", {}))
            phase.counters = _add(phase.counters, report["session"],
                                  report["engine"])
            kind_cpu_s[KERNEL_NAMES[kernel]] = report["cpu_s"]
        phase.rounds.append({"wall_s": wall, "cpu_s": cpu, "requests": 2,
                             "digest": common.digest(digests)})
        phase.kind_cpu_s = _add(phase.kind_cpu_s, kind_cpu_s)
    phase.series = {f"{KERNEL_NAMES[kernel]}_cold_s": walls
                    for kernel, walls in kernel_walls.items()}
    return phase


def _expected(args: argparse.Namespace) -> Dict[str, Any]:
    with open(args.expected, encoding="utf-8") as handle:
        return json.load(handle)


def _paper_problems(kernel: str, report: Dict[str, Any],
                    expected: Dict[str, str]) -> List[str]:
    import workloads

    problems = []
    for key in ("characterization_digest", "pareto_digest"):
        if report[key] != expected[key]:
            problems.append(f"{kernel}: {key} {report[key][:12]} differs "
                            f"from the frozen {expected[key][:12]}")
    errors = report["area_error"]
    if errors["max_pct"] >= workloads.MAX_AREA_ERROR_PCT:
        problems.append(f"{kernel}: max area error {errors['max_pct']:.2f}%")
    if errors["mean_pct"] >= workloads.MEAN_AREA_ERROR_PCT:
        problems.append(f"{kernel}: mean area error "
                        f"{errors['mean_pct']:.2f}%")
    return problems


# ---------------------------------------------------------------------- #
# design_sweep


def design_sweep(args: argparse.Namespace, traced: bool) -> Phase:
    phase = Phase()
    spans = os.path.join(args.trace_dir, "design_sweep.jsonl")
    process, spawned = common.spawn_worker(
        "sweep", args.scale, str(args.seed), str(args.seconds),
        "1" if traced else "0", spans)
    report = common.collect(process, WORKER_TIMEOUT_S)
    phase.add_setup(report, spawned)
    phase.add_rounds(report)
    phase.layers = report.get("layers", {})
    phase.counters = _add({}, report["session"], report["engine"])
    phase.layer_metrics["dse.stream.pruned_fraction"] = \
        report["stream_pruned_fraction"]
    return phase


# ---------------------------------------------------------------------- #
# service_mix


def service_mix(args: argparse.Namespace, traced: bool) -> Phase:
    import layers

    phase = Phase()
    store = common.ensure_dir(os.path.join(
        args.out, f"store-{os.getpid()}-{int(traced)}"))
    spans = os.path.join(args.trace_dir, "service_mix.jsonl")
    log = open(os.path.join(args.trace_dir, f"serve-{int(traced)}.log"), "w")
    spawned = time.monotonic()
    daemon = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "serve.py"),
         spans if traced else "-", "--port", "0", "--store", store,
         "--quiet"],
        env=common.child_env(), cwd=common.ROOT, stdout=subprocess.PIPE,
        stderr=log, text=True)
    url = None
    try:
        url = _daemon_url(daemon)
        process, _ = common.spawn_worker(
            "mix", args.scale, str(args.seed), str(args.seconds),
            "1" if traced else "0", url, str(daemon.pid))
        report = common.collect(process, WORKER_TIMEOUT_S)
    finally:
        _stop_daemon(daemon, url)
        log.close()
        shutil.rmtree(store, ignore_errors=True)
    phase.add_setup(report, spawned)
    phase.add_rounds(report)
    before, after = report["stats_before"], report["stats_after"]
    phase.counters = _add(
        {}, _subtract(after["session"], before["session"]),
        {"shared_hits": after["shared_table"]["hits"]
         - before["shared_table"]["hits"],
         "shared_misses": after["shared_table"]["misses"]
         - before["shared_table"]["misses"],
         "stream_chunks": after["stream"]["chunks_materialized"]
         - before["stream"]["chunks_materialized"]})
    if traced:
        start, end = report["phase"]
        with open(spans, encoding="utf-8") as handle:
            recorded = [json.loads(line) for line in handle]
        in_phase = [span for span in recorded
                    if start <= span["start"] <= end]
        phase.layers = layers.summarize(in_phase)
        phase.kind_cpu_s = layers.request_kind_cpu(in_phase)
    phase.layer_metrics.update(_service_metrics(report))
    return phase


def _daemon_url(daemon: subprocess.Popen) -> str:
    line = daemon.stdout.readline()
    marker = "listening on "
    if marker not in line:
        raise RuntimeError(f"service did not announce its address: {line!r}")
    return line.split(marker, 1)[1].strip()


def _stop_daemon(daemon: subprocess.Popen, url: Optional[str]) -> None:
    if url is not None and daemon.poll() is None:
        request = urllib.request.Request(
            url + "/shutdown", data=json.dumps({"drain": True}).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            urllib.request.urlopen(request, timeout=10).read()
        except OSError:
            pass  # already gone; terminated below if still alive
    try:
        daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()
    daemon.stdout.close()


def _service_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    before, after = report["stats_before"], report["stats_after"]
    submitted = after["queue"]["submitted"] - before["queue"]["submitted"]
    coalesced = after["queue"]["coalesced"] - before["queue"]["coalesced"]
    jobs = report["jobs"]
    waits = [job["queue_wait_s"] * 1e3 for job in jobs]
    transport = [(job["latency_s"] - job["server_s"]) * 1e3 for job in jobs]
    return {
        "service.queue_wait_p50_ms":
            common.quartiles(waits)["median"] if waits else 0.0,
        "service.queue_wait_tail_ms":
            common.tail(waits)["value"] if waits else 0.0,
        "service.coalesce.hit_ratio": coalesced / submitted if submitted
        else 0.0,
        "service.batch.mean_size": after["scheduler"]["mean_batch_size"],
        "service.transport_ms":
            common.quartiles(transport)["median"] if transport else 0.0,
        "service.jobs_failed": (after["scheduler"]["jobs_failed"]
                                - before["scheduler"]["jobs_failed"]),
    }


WORKLOADS: Dict[str, Callable[[argparse.Namespace, bool], Phase]] = {
    "paper_cold": paper_cold,
    "design_sweep": design_sweep,
    "service_mix": service_mix,
}


# ---------------------------------------------------------------------- #
# metrics


def _add(total: Dict[str, float], *parts: Dict[str, float]
         ) -> Dict[str, float]:
    total = dict(total)
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _subtract(after: Dict[str, Any], before: Dict[str, Any]
              ) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in common.SESSION_COUNTERS}


def _merge(left: Dict[str, Dict[str, float]],
           right: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    merged = {name: dict(entry) for name, entry in left.items()}
    for name, entry in right.items():
        merged[name] = _add(merged.get(name, {}), entry)
    return merged


def end_to_end(phase: Phase) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric with its median, quartiles and count.

    ``wall_s``, ``cpu_s`` and ``requests_per_s`` are medians over the
    phase's rounds, which all have the same composition.  One round hit by
    a collection pause or a burst of stolen time moves a phase total but
    not the median.
    """
    rounds = phase.rounds
    latencies_ms = [value * 1e3 for value in phase.latencies_s]
    stats = {
        "setup_s": common.quartiles(phase.setup_s),
        "setup_wall_s": common.quartiles(phase.setup_wall_s),
        "wall_s": common.quartiles([r["wall_s"] for r in rounds]),
        "cpu_s": common.quartiles([r["cpu_s"] for r in rounds]),
        "latency_p50_ms": common.quartiles(latencies_ms),
        "latency_tail_ms": common.tail(latencies_ms),
        "requests_per_s": common.quartiles(
            [r["requests"] / r["wall_s"] for r in rounds]),
        "peak_rss_mb": {"value": phase.peak_rss_mb, "n": 1},
    }
    out = {}
    for name, unit in END_TO_END.items():
        entry = dict(stats[name], unit=unit)
        entry["value"] = entry.pop("median", entry.get("value"))
        out[name] = entry
    return out


def per_layer(traced: Phase, untraced: Phase) -> Dict[str, float]:
    """Every per-layer metric (zero where the workload does not reach the
    layer), from the traced phase."""
    import layers

    metrics = layers.span_metrics(traced.layers,
                                  sum(r["wall_s"] for r in traced.rounds))
    counters = traced.counters
    hits = counters.get("characterization_cache_hits", 0)
    misses = counters.get("characterization_cache_misses", 0)
    shared = counters.get("shared_hits", 0) + counters.get("shared_misses", 0)
    metrics.update({
        "api.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "api.store.disk_hits": counters.get("store_disk_hits", 0),
        "api.store.writes": counters.get("store_writes", 0),
        "dse.shared_table.hit_ratio":
            counters.get("shared_hits", 0) / shared if shared else 0.0,
        "dse.stream.chunks": counters.get("stream_chunks", 0),
        "obs.trace_overhead_pct":
            100.0 * (traced.wall_s() / untraced.wall_s() - 1.0),
    })
    for name in LAYER_METRICS_OUTSIDE_SPANS:
        metrics[name] = traced.layer_metrics.get(name, 0.0)
    return metrics


# ---------------------------------------------------------------------- #
# entry point


def parse_arguments(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the measured phase: round(seconds / "
                             "nominal round wall) rounds, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="problem sizes (tiny: the benchmark's own tests)")
    parser.add_argument("--expected", default=os.path.join(HERE,
                                                           "expected.json"),
                        help="frozen output digests")
    parser.add_argument("--out", default=common.OUT,
                        help="output directory: results/ (full per-run "
                             "reports), traces/ (spans), service stores")
    return parser.parse_args(argv)


def _program_present() -> bool:
    return os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py"))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_arguments(argv)
    if not _program_present():
        print(f"error: no program to measure under {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    args.trace_dir = common.ensure_dir(os.path.join(
        args.out, "traces", f"{args.workload}-{args.seed}-{stamp}"))
    load_before = common.load_average()
    measure = WORKLOADS[args.workload]
    untraced = measure(args, False)
    frozen = _expected(args).get(args.workload, {}).get(args.scale, {})
    if str(args.seed) in frozen:
        untraced.check_frozen(frozen[str(args.seed)])
    phases: List[Phase] = [untraced]
    if args.trace:
        phases.append(measure(args, True))
        if untraced.digests() != phases[1].digests():
            phases[1].failed += 1
            phases[1].problems.append(
                "traced and untraced outputs differ")
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "environment": dict(common.environment(), load_before=load_before,
                            load_after=common.load_average()),
        "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
        "problems": [p for phase in phases for p in phase.problems][:50],
        "end_to_end": end_to_end(untraced),
        "extra": {name: common.quartiles(values)
                  for name, values in untraced.series.items()},
        "round_digests": untraced.digests(),
        "request_cpu_share": {
            label: phase.cpu_share()
            for label, phase in zip(("untraced", "traced"), phases)
            if phase.kind_cpu_s},
    }
    if args.trace:
        report["per_layer"] = per_layer(phases[1], untraced)
        report["layers"] = phases[1].layers
    common.write_json(os.path.join(
        args.out, "results", f"{args.workload}-{args.seed}-t{args.trace}-{stamp}"
                      f".json"), report)

    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({key: report[key] for key in (
        "environment", "end_to_end", "extra")}, sort_keys=True))
    if args.trace:
        metrics = {name: common.metric(value, _layer_unit(name))
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {name: common.metric(report["end_to_end"][name]["value"],
                                       END_TO_END[name])
                   for name in GATED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".self_s", "s"), ("_ms", "ms"), ("_pct", "%"),
                         ("ratio", "ratio"), ("fraction", "ratio"),
                         (".bytes", "bytes"), (".mean_size", "count"),
                         (".per_run", "ratio"), (".per_graph", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
