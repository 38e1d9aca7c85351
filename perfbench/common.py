"""Shared helpers: paths, statistics, environment capture, child processes."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence

#: Checkout root (the parent of this package's directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch output of every run (traces, result files, service stores).
OUT = os.path.join(ROOT, ".perfbench")

#: Tail percentiles tried from the highest down; the first with at least
#: ``TAIL_MIN_BEYOND`` samples above it is reported.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

#: ``Session.stats`` counters the per-layer metrics are derived from.
SESSION_COUNTERS = ("characterization_cache_hits",
                    "characterization_cache_misses", "store_disk_hits",
                    "store_writes", "synthesis_runs")


def child_env() -> Dict[str, str]:
    """Environment for child processes: ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(mode: str, *arguments: str) -> "tuple[subprocess.Popen, float]":
    """Start ``worker.py <mode> ...``; return it and its monotonic start."""
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, *arguments],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return process, started


def collect(process: subprocess.Popen, timeout: float) -> Dict[str, Any]:
    """Wait for a worker and parse the JSON object on its last stdout line."""
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"worker did not finish within {timeout:.0f}s")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {process.returncode}")
    return json.loads(lines[-1])


def digest(payload: Any) -> str:
    """SHA-256 of a JSON-ready value (sorted keys)."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (``ru_maxrss`` is KB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s(pid: int) -> float:
    """User+system CPU seconds of ``pid`` and its reaped children."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------- #
# statistics


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """Median, first and third quartile, and sample count."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def tail(values: Sequence[float]) -> Dict[str, Any]:
    """The highest :data:`TAIL_LADDER` percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it (nearest rank); with too few
    samples for any, the maximum (percentile 100)."""
    values = sorted(values)
    count = len(values)
    for percentile in TAIL_LADDER:
        rank = math.ceil(percentile / 100.0 * count)
        if count - rank >= TAIL_MIN_BEYOND:
            return {"value": values[rank - 1], "percentile": percentile,
                    "n": count}
    return {"value": values[-1], "percentile": 100.0, "n": count}


# ---------------------------------------------------------------------- #
# environment


def load_average() -> List[float]:
    return list(os.getloadavg())


def environment() -> Dict[str, Any]:
    """What a wall-versus-CPU gap needs to be read against."""
    import numpy

    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform()}


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def write_json(path: str, payload: Any) -> None:
    ensure_dir(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def emit(payload: Dict[str, Any]) -> None:
    """Print a worker's result as the last line of its stdout."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
