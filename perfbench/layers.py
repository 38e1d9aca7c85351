"""Per-layer tracing installed from outside the program.

:func:`install` wraps the public entry point of each ``repro`` layer in a
span recorder.  Functions are rebound at every module-level name their
callers bind (``from repro.ir.dfg import build_dfg_from_cone`` copies the
function into the importing module, so patching only the defining module
would miss those calls); methods are replaced on their class.

A span records its name, the wrapped function's qualified name, request
identifier, span id, parent span id, start (``time.monotonic()``,
comparable across processes), duration and self time (duration minus the
time its direct child spans cover on the same thread), plus the attributes
listed in :data:`TARGETS` and, for the :data:`CPU_TIMED` spans, the
thread's CPU seconds (``cpu_s``).
Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(span name, module, attribute path, attributes(result) -> dict)``.
#: The span name is the per-layer metric prefix.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[Any], Dict]]], ...] = (
    ("symbolic.build", "repro.symbolic.cone_expression",
     "ConeExpressionBuilder.build", lambda cone: {"ops": cone.operation_count}),
    ("ir.lower", "repro.ir.dfg", "build_dfg_from_cone",
     lambda graph: {"nodes": len(graph.nodes())}),
    ("ir.schedule", "repro.ir.scheduling", "pipeline_schedule", None),
    ("ir.topo", "repro.ir.dfg", "DataflowGraph.topological_order", None),
    ("synth", "repro.synth.synthesizer", "Synthesizer.synthesize", None),
    ("synth.schedule", "repro.synth.timing", "TimingModel.schedule", None),
    ("synth.timing", "repro.synth.timing", "TimingModel.analyze", None),
    ("synth.techmap", "repro.synth.technology_map", "TechnologyMapper.map",
     None),
    ("synth.reuse", "repro.synth.logic_reuse", "LogicReuseModel.optimize",
     None),
    ("estimation.calibrate", "repro.estimation.area_model",
     "RegisterAreaModel.calibrate", None),
    ("estimation.batch", "repro.estimation.area_model",
     "RegisterAreaModel.estimate_batch", None),
    ("estimation.batch", "repro.estimation.throughput_model",
     "ThroughputModel.estimate_batch", None),
    ("architecture.table", "repro.architecture.enumeration", "space_table",
     None),
    ("architecture.table", "repro.architecture.enumeration",
     "enumerate_architectures", None),
    ("dse.characterize", "repro.dse.explorer",
     "DesignSpaceExplorer.characterize_cones", None),
    ("dse.explore", "repro.dse.explorer", "DesignSpaceExplorer.explore", None),
    ("codegen", "repro.api.pipeline", "generate_vhdl_files",
     lambda files: {"bytes": sum(len(text) for text in files.values())}),
    ("api.call", "repro.api.session", "Session.run", None),
    ("api.call", "repro.api.session", "Session.validate", None),
    ("api.call", "repro.api.session", "Session.generate_vhdl", None),
    ("simulation", "repro.simulation.cone_simulator",
     "FunctionalConeSimulator.run",
     lambda frames: {"pixels": frames.height * frames.width}),
    ("simulation.golden", "repro.simulation.golden", "GoldenExecutor.run",
     None),
    ("frontend", "repro.frontend.c_parser", "parse_c_source", None),
    ("frontend", "repro.frontend.extractor", "extract_kernel_from_c", None),
)

#: Span names whose self time counts toward ``obs.core_cover_pct``: the
#: layers that do a cold characterization's work.
CORE_LAYERS = ("symbolic.", "ir.", "synth", "estimation.")

#: Span names that also record their thread's CPU time: the public API
#: calls, which split a round's CPU time by request kind.
CPU_TIMED = ("api.call",)

#: The fields every span has; any other key is a numeric attribute.
SPAN_FIELDS = ("name", "function", "request", "id", "parent", "start",
               "duration", "self")


class Recorder:
    """Thread-aware span recorder; one per process."""

    def __init__(self, request_id: Optional[Callable[[], Optional[str]]] = None
                 ) -> None:
        self.spans: List[Tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: Fallback identifier source (e.g. the program's own trace id in
        #: a server whose jobs run on scheduler threads).
        self._request_id = request_id

    # ------------------------------------------------------------------ #
    # request identity

    def set_request(self, request_id: Optional[str]) -> None:
        """Tag the spans this thread records next with ``request_id``."""
        self._local.request = request_id

    def _current_request(self) -> Optional[str]:
        request = getattr(self._local, "request", None)
        if request is None and self._request_id is not None:
            request = self._request_id()
        return request

    # ------------------------------------------------------------------ #
    # recording

    def wrap(self, name: str, function: Callable,
             attributes: Optional[Callable[[Any], Dict]] = None) -> Callable:
        local = self._local
        ids = self._ids
        spans = self.spans
        qualname = function.__qualname__
        cpu_clock = time.thread_time if name in CPU_TIMED else None

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.monotonic()
            cpu_start = cpu_clock() if cpu_clock is not None else 0.0
            extra: Dict[str, Any] = {}
            try:
                result = function(*args, **kwargs)
                if attributes is not None:
                    extra = attributes(result)
                return result
            finally:
                duration = time.monotonic() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                if cpu_clock is not None:
                    extra = dict(extra, cpu_s=cpu_clock() - cpu_start)
                # list.append is atomic under the interpreter lock
                spans.append((name, qualname, self._current_request(),
                              span_id, parent, start, duration,
                              duration - frame[1], extra))

        return traced

    def clear(self) -> None:
        del self.spans[:]

    def span_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(SPAN_FIELDS, record[:8]), **record[8])
                for record in list(self.spans)]

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.span_dicts():
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so each binding site exists before the
    rebinding pass (later imports would copy the wrapper anyway)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry at each name its callers bind."""
    _import_all_repro_modules()
    for name, module_name, path, attributes in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        wrapper = recorder.wrap(name, original, attributes)
        if parents:
            setattr(owner, leaf, wrapper)
            continue
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper


def summarize(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and summed numeric attributes."""
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += span["self"]
        for key, value in span.items():
            if key not in SPAN_FIELDS:
                entry[key] = entry.get(key, 0) + value
    return summary


def request_kind_cpu(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """CPU seconds of the outermost public API calls by request kind:
    ``validate``, ``vhdl``, ``cold`` (an explore that synthesized) and
    ``warm`` (one that did not).  The spans come from one process."""
    spans = list(spans)
    by_id = {span["id"]: span for span in spans}

    def outermost_call(span: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        found = None
        while span is not None:
            if span["name"] == "api.call":
                found = span
            span = by_id.get(span["parent"])
        return found

    synthesized = set()
    for span in spans:
        if span["name"] == "synth":
            call = outermost_call(span)
            if call is not None:
                synthesized.add(id(call))
    kinds: Dict[str, float] = {}
    for span in spans:
        if span["name"] != "api.call" or outermost_call(span) is not span:
            continue
        if span["function"] == "Session.validate":
            kind = "validate"
        elif span["function"] == "Session.generate_vhdl":
            kind = "vhdl"
        else:
            kind = "cold" if id(span) in synthesized else "warm"
        kinds[kind] = kinds.get(kind, 0.0) + span["cpu_s"]
    return kinds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(summary: Dict[str, Dict[str, float]],
                 traced_wall_s: float) -> Dict[str, float]:
    """The span-derived per-layer metrics (zero for layers not exercised)."""
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    metrics = {
        "symbolic.build.calls": get("symbolic.build", "calls"),
        "symbolic.build.self_s": get("symbolic.build", "self_s"),
        "symbolic.build.ops": get("symbolic.build", "ops"),
        "ir.lower.calls": get("ir.lower", "calls"),
        "ir.lower.self_s": get("ir.lower", "self_s"),
        "ir.lower.nodes": get("ir.lower", "nodes"),
        "ir.schedule.calls": get("ir.schedule", "calls"),
        "ir.schedule.self_s": get("ir.schedule", "self_s"),
        "ir.schedule.per_run": _ratio(get("ir.schedule", "calls"),
                                      get("synth", "calls")),
        "ir.topo.per_graph": _ratio(get("ir.topo", "calls"),
                                    get("ir.lower", "calls")),
        "synth.runs": get("synth", "calls"),
        "synth.self_s": get("synth", "self_s"),
        "synth.schedule.self_s": get("synth.schedule", "self_s"),
        "synth.timing.self_s": get("synth.timing", "self_s"),
        "synth.techmap.self_s": get("synth.techmap", "self_s"),
        "synth.reuse.self_s": get("synth.reuse", "self_s"),
        "estimation.calibrate.calls": get("estimation.calibrate", "calls"),
        "estimation.calibrate.self_s": get("estimation.calibrate", "self_s"),
        "estimation.batch.calls": get("estimation.batch", "calls"),
        "estimation.batch.self_s": get("estimation.batch", "self_s"),
        "architecture.table.calls": get("architecture.table", "calls"),
        "architecture.table.self_s": get("architecture.table", "self_s"),
        "dse.characterize.calls": get("dse.characterize", "calls"),
        "dse.characterize.self_s": get("dse.characterize", "self_s"),
        "dse.explore.calls": get("dse.explore", "calls"),
        "dse.explore.self_s": get("dse.explore", "self_s"),
        "codegen.calls": get("codegen", "calls"),
        "codegen.self_s": get("codegen", "self_s"),
        "codegen.bytes": get("codegen", "bytes"),
        "api.call.self_s": get("api.call", "self_s"),
        "simulation.calls": get("simulation", "calls"),
        "simulation.self_s": get("simulation", "self_s"),
        "simulation.pixels": get("simulation", "pixels"),
        "simulation.golden.self_s": get("simulation.golden", "self_s"),
        "frontend.calls": get("frontend", "calls"),
        "frontend.self_s": get("frontend", "self_s"),
    }
    core = sum(entry["self_s"] for name, entry in summary.items()
               if name.startswith(CORE_LAYERS))
    metrics["obs.core_cover_pct"] = 100.0 * _ratio(core, traced_wall_s)
    return metrics
