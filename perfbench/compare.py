"""Compare two sets of benchmark reports, metric by metric.

Usage::

    python3 perfbench/compare.py BASE HEAD

``BASE`` and ``HEAD`` are report files written by ``run.py`` (under
``.perfbench/results/``) or directories of them.  Reports are grouped by
workload.  Per workload and metric, it prints both medians, both quartile
ranges and the relative delta of each.  With one report per side, the
quartiles are those of that run's own samples.  With several, the median
and quartiles are taken over the reports.

Metrics bounded in ``BENCHMARK.json`` are flagged ``WORSE`` when the head
median is worse than the base median by more than the bound, and
``better`` when it improves by more than it.  The other metrics (the
unbounded end-to-end ones of the run report and every per-layer one) are
printed with their deltas and no flag.  The exit code is 1 if anything is
flagged ``WORSE``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402


def load_reports(path: str) -> List[Dict[str, Any]]:
    paths = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    reports = []
    for each in paths:
        with open(each, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    if not reports:
        raise SystemExit(f"error: no reports under {path}")
    return reports


def series(reports: List[Dict[str, Any]]
           ) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """``(workload, kind, metric) -> {median, q1, q3, n}``."""
    values: Dict[Tuple[str, str, str], List[Dict[str, float]]] = {}
    for report in reports:
        workload = report["workload"]
        if report["trace"]:
            for name, value in report["per_layer"].items():
                values.setdefault((workload, "layer", name), []).append(
                    {"median": value, "q1": value, "q3": value})
            continue
        for name, entry in report["end_to_end"].items():
            value = entry["value"]
            values.setdefault((workload, "e2e", name), []).append(
                {"median": value, "q1": entry.get("q1", value),
                 "q3": entry.get("q3", value)})
        for name, entry in report.get("extra", {}).items():
            values.setdefault((workload, "extra", name), []).append(entry)
    summary = {}
    for key, entries in values.items():
        if len(entries) == 1:
            summary[key] = dict(entries[0], n=1)
        else:
            summary[key] = dict(common.quartiles(
                [entry["median"] for entry in entries]))
    return summary


def _relative(head: float, base: float) -> Optional[float]:
    return (head - base) / base if base else None


def compare(base: Dict, head: Dict, spec: Dict[str, Any]
            ) -> Tuple[List[str], int]:
    bounded = {entry["name"]: entry for entry in spec["end_to_end"]}
    lines, worse = [], 0
    for key in sorted(set(base) & set(head)):
        workload, kind, name = key
        old, new = base[key], head[key]
        delta = _relative(new["median"], old["median"])
        rule = bounded.get(name) if kind == "e2e" else None
        flag = ""
        if rule is not None and delta is not None:
            signed = delta if rule["better"] == "lower" else -delta
            if signed > rule["bound"]:
                flag = "WORSE"
                worse += 1
            elif signed < -rule["bound"]:
                flag = "better"
        quartile_deltas = [_relative(new[q], old[q]) for q in ("q1", "q3")]
        lines.append(
            f"{workload:12s} {name:30s} {old['median']:12.5g} -> "
            f"{new['median']:12.5g}  {_percent(delta):>8s}  "
            f"q1 {_percent(quartile_deltas[0]):>8s}  "
            f"q3 {_percent(quartile_deltas[1]):>8s}  "
            f"n {old['n']}/{new['n']}  {flag}")
    return lines, worse


def _percent(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100 * value:+.1f}%"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    lines, worse = compare(series(load_reports(args.base)),
                           series(load_reports(args.head)), spec)
    print("\n".join(lines))
    print(f"{worse} metric(s) worse than their bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
