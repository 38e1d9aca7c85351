"""Child-process side of the benchmark: one measured phase per process.

Usage (spawned by ``run.py``; ``src`` and this directory on PYTHONPATH)::

    worker.py setup
    worker.py cold  <kernel> <scale> <traced 0|1> <spans path>
    worker.py sweep <scale> <seed> <seconds> <traced 0|1> <spans path>
    worker.py mix   <scale> <seed> <seconds> <traced 0|1> <url> <daemon pid>

Each prints one JSON object as its last stdout line.  ``ready`` is the
``time.monotonic()`` stamp at which set-up (imports, priming) finished, so
the parent can subtract its spawn stamp; ``ready_cpu`` is the CPU time the
set-up took (for ``mix``, the daemon's and the load generator's).
"""

from __future__ import annotations

import random
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import common
import layers
import workloads
from repro import Session
from repro.dse.constraints import DseConstraints
from repro.dse.engine import shared_table_stats
from repro.dse.stream import stream_stats


def _recorder(traced: bool) -> Optional[layers.Recorder]:
    if not traced:
        return None
    recorder = layers.Recorder()
    layers.install(recorder)
    return recorder


def _session_counters(stats: Dict[str, Any]) -> Dict[str, float]:
    return {key: stats[key] for key in common.SESSION_COUNTERS}


def _engine_counters() -> Dict[str, float]:
    shared, stream = shared_table_stats(), stream_stats()
    return {"shared_hits": shared["hits"], "shared_misses": shared["misses"],
            "stream_chunks": stream["chunks_materialized"]}


def _delta(after: Dict[str, float], before: Dict[str, float]
           ) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _ready(other_cpu_s: float = 0.0) -> Dict[str, float]:
    return {"ready": time.monotonic(),
            "ready_cpu": time.process_time() + other_cpu_s}


def _finish_trace(recorder: Optional[layers.Recorder], spans_path: str,
                  report: Dict[str, Any]) -> None:
    if recorder is not None:
        recorder.dump(spans_path)
        report["layers"] = layers.summarize(recorder.span_dicts())


# ---------------------------------------------------------------------- #
# paper_cold: one cold exploration in a fresh process


def run_cold(kernel: str, scale: workloads.Scale, traced: bool,
             spans_path: str) -> Dict[str, Any]:
    recorder = _recorder(traced)
    workload = workloads.paper_workload(scale, kernel)
    ready = _ready()
    session = Session()
    started, cpu_started = time.perf_counter(), time.process_time()
    result = session.run(workload)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    exploration = result.exploration
    report = {
        **ready, "wall_s": wall, "cpu_s": cpu,
        "characterization_digest":
            workloads.characterization_digest(exploration),
        "pareto_digest": workloads.pareto_digest(exploration.pareto),
        "area_error": workloads.area_errors(exploration),
        "session": _session_counters(session.stats.to_dict()),
        "engine": _engine_counters(),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    _finish_trace(recorder, spans_path, report)
    return report


# ---------------------------------------------------------------------- #
# design_sweep: one closed-loop designer in one process


def run_sweep(scale: workloads.Scale, seed: int, seconds: float,
              traced: bool, spans_path: str) -> Dict[str, Any]:
    recorder = _recorder(traced)
    session = Session()
    base = workloads.sweep_base(scale)
    fitting = [point for point in session.run(base).pareto
               if point.fits_device]
    session.run(workloads.sweep_wide(scale))
    primed = _session_counters(session.stats.to_dict())
    engine_before = _engine_counters()
    if recorder is not None:
        recorder.clear()
    ready = _ready()

    rng = random.Random(seed)
    rounds: List[Dict[str, Any]] = []
    latencies: List[float] = []
    problems: List[str] = []
    #: constrained requests re-checked against their unconstrained run
    to_reference: List[Any] = []
    pruned_rows = space_rows = 0
    for _ in range(workloads.rounds_for("design_sweep", seconds)):
        requests = workloads.sweep_round(scale, rng, len(fitting))
        outputs: List[Any] = []
        kind_cpu_s = dict.fromkeys(("explore", "stream", "vhdl"), 0.0)
        round_started = time.perf_counter()
        cpu_started = time.process_time()
        for index, (kind, payload) in enumerate(requests):
            if recorder is not None:
                recorder.set_request(f"{len(rounds)}.{index}")
            sent, sent_cpu = time.perf_counter(), time.process_time()
            try:
                if kind == "vhdl":
                    outputs.append(session.generate_vhdl(
                        base, point=fitting[payload]))
                else:
                    outputs.append(session.run(payload))
            except Exception as error:  # a failed request is counted, not fatal
                outputs.append(error)
            latencies.append(time.perf_counter() - sent)
            kind_cpu_s[kind] += time.process_time() - sent_cpu
        wall = time.perf_counter() - round_started
        cpu = time.process_time() - cpu_started

        # the checks, outside the round's stamps
        digests: List[str] = []
        failed = 0
        streamed = False
        for (kind, payload), output in zip(requests, outputs):
            if isinstance(output, Exception):
                found = [f"{kind} raised {output!r}"]
            elif kind == "vhdl":
                found = workloads.vhdl_problems(output)
                digests.append(common.digest(output))
            else:
                constraints = payload.constraints or DseConstraints()
                found = workloads.pareto_problems(output.pareto, constraints)
                digests.append(workloads.pareto_digest(output.pareto))
                streaming = output.exploration.streaming
                if streaming:
                    pruned_rows += streaming["pruned_rows"]
                    space_rows += streaming["space_rows"]
                # every monotone-constrained warm explore, and one stream
                # per round (an unconstrained stream costs ~0.12 s)
                if (workloads.has_monotone_constraint(constraints)
                        and not (kind == "stream" and streamed)):
                    to_reference.append((payload, output.pareto))
                    streamed = streamed or kind == "stream"
            if found:
                failed += 1
                problems.extend(found[:3])
        rounds.append({"wall_s": wall, "cpu_s": cpu,
                       "kind_cpu_s": kind_cpu_s,
                       "requests": len(requests), "failed": failed,
                       "digest": common.digest(digests)})

    after = _session_counters(session.stats.to_dict())
    engine_after = _engine_counters()
    grown = after["synthesis_runs"] - primed["synthesis_runs"]
    if grown:
        problems.append(f"synthesis runs grew by {grown} after priming")
    report = {
        **ready, "rounds": rounds, "latencies_s": latencies,
        "session": _delta(after, primed),
        "engine": _delta(engine_after, engine_before),
        "stream_pruned_fraction": (pruned_rows / space_rows
                                   if space_rows else 0.0),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    _finish_trace(recorder, spans_path, report)

    # after the phase and its counters and spans: each constrained Pareto
    # set against its request's unconstrained run, filtered
    mismatched = 0
    for payload, points in to_reference:
        unconstrained = session.run(payload.replace(constraints=None)).pareto
        found = workloads.filtered_reference_problems(
            points, unconstrained, payload.constraints)
        if found:
            mismatched += 1
            problems.extend(f"{payload.name}: {problem}" for problem in found)
    report.update(problems=problems, checks=1 + len(to_reference),
                  checks_failed=int(grown != 0) + mismatched)
    return report


# ---------------------------------------------------------------------- #
# service_mix: the load generator against a running daemon


class _Mix:
    """Two closed-loop client threads draining one round of items."""

    def __init__(self, client, traced: bool) -> None:
        self.client = client
        self.traced = traced
        self.latencies: List[float] = []
        self.jobs: List[Dict[str, Any]] = []
        self.served: List[Any] = []
        self.problems: List[str] = []

    def run_round(self, items: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Send every item; return what came back, in item order."""
        queue = list(reversed(items))
        lock = threading.Lock()
        replies: Dict[int, Dict[str, Any]] = {}

        def client_loop() -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    position = len(items) - len(queue)
                    item = queue.pop()
                replies[position] = self._send(item)

        threads = [threading.Thread(target=client_loop) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [replies[i] for i in range(len(items))]

    def _send(self, item: Dict[str, Any]) -> Dict[str, Any]:
        from repro.obs import trace as obs_trace

        reply: Dict[str, Any] = {"item": item, "sent": [], "handles": [],
                                 "results": [], "error": None}
        with obs_trace.span("perfbench.request", job=item["job"]):
            try:
                for _ in range(item["copies"]):
                    reply["sent"].append(time.perf_counter())
                    reply["handles"].append(self.client.submit(
                        item["workload"], job=item["job"]))
                reply["results"] = [handle.result(timeout=120)
                                    for handle in reply["handles"]]
            except Exception as error:  # counted as a failed request
                reply["error"] = error
        reply["finished"] = time.perf_counter()
        return reply

    def check_round(self, replies: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Check a round's replies (after its stamps were taken)."""
        failed = 0
        digests: List[str] = []
        for reply in replies:
            workload, job = reply["item"]["workload"], reply["item"]["job"]
            found: List[str] = []
            if reply["error"] is not None:
                found.append(f"{job} raised {reply['error']!r}")
            for result in reply["results"]:
                if job == "validate":
                    found.extend(workloads.validation_problems(result))
                else:
                    found.extend(workloads.pareto_problems(
                        result.exploration.pareto,
                        workload.constraints or DseConstraints()))
            latencies = [reply["finished"] - sent for sent in reply["sent"]]
            served = [common.digest(result.to_dict())
                      for result in reply["results"]]
            self.latencies.extend(latencies)
            if job == "explore":
                self.served.extend((workload, digest) for digest in served)
            if self.traced and reply["error"] is None:
                for latency, handle in zip(latencies, reply["handles"]):
                    status = handle.status()
                    self.jobs.append({
                        "latency_s": latency,
                        "queue_wait_s": status["started_at"]
                                        - status["submitted_at"],
                        "server_s": status["finished_at"]
                                    - status["submitted_at"]})
            digests.append(common.digest(served))
            if found:
                failed += 1
                self.problems.extend(found[:3])
        return {"failed": failed,
                "requests": sum(reply["item"]["copies"] for reply in replies),
                "digest": common.digest(digests)}


def run_mix(scale: workloads.Scale, seed: int, seconds: float, traced: bool,
            url: str, daemon_pid: int) -> Dict[str, Any]:
    from repro.obs import trace as obs_trace
    from repro.service.client import ReproClient

    if traced:
        obs_trace.enable()  # joins each request's spans in the daemon
    client = ReproClient(url, request_timeout_s=60.0)
    for workload in workloads.mix_warm_keys(scale):
        client.submit(workload).result(timeout=300)
    stats_before = client.stats()
    ready = _ready(common.process_cpu_s(daemon_pid))

    rng = random.Random(seed)
    mix = _Mix(client, traced)
    rounds: List[Dict[str, Any]] = []
    for _ in range(workloads.rounds_for("service_mix", seconds)):
        items = workloads.mix_round(scale, rng)
        round_started = time.perf_counter()
        cpu_started = time.process_time() + common.process_cpu_s(daemon_pid)
        replies = mix.run_round(items)
        wall = time.perf_counter() - round_started
        cpu = (time.process_time() + common.process_cpu_s(daemon_pid)
               - cpu_started)
        rounds.append(dict(mix.check_round(replies), wall_s=wall, cpu_s=cpu))
    phase_finished = time.monotonic()
    stats_after = client.stats()
    daemon_rss = common.process_peak_rss_mb(daemon_pid)

    # outside the measured phase: every served explore against a direct,
    # store-less Session.run of the same workload
    reference = Session()
    expected: Dict[Any, str] = {}
    mismatched = 0
    for workload, served in mix.served:
        if workload not in expected:
            expected[workload] = common.digest(
                reference.run(workload).to_dict())
        if expected[workload] != served:
            mismatched += 1
            mix.problems.append(f"served {workload.name} differs from a "
                                f"direct Session.run")
    return {
        **ready, "phase": [ready["ready"], phase_finished],
        "rounds": rounds, "latencies_s": mix.latencies, "jobs": mix.jobs,
        "problems": mix.problems, "checks": len(mix.served),
        "checks_failed": mismatched,
        "stats_before": stats_before, "stats_after": stats_after,
        "peak_rss_mb": daemon_rss,
    }


# ---------------------------------------------------------------------- #


def main(argv: List[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        report: Dict[str, Any] = _ready()
    elif mode == "cold":
        kernel, scale, traced, spans_path = argv[1:5]
        report = run_cold(kernel, workloads.SCALES[scale], traced == "1",
                          spans_path)
    elif mode == "sweep":
        scale, seed, seconds, traced, spans_path = argv[1:6]
        report = run_sweep(workloads.SCALES[scale], int(seed), float(seconds),
                           traced == "1", spans_path)
    elif mode == "mix":
        scale, seed, seconds, traced, url, pid = argv[1:7]
        report = run_mix(workloads.SCALES[scale], int(seed), float(seconds),
                         traced == "1", url, int(pid))
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    common.emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
