"""Observability substrate: tracing, typed metrics, profiling.

``repro.obs`` is stdlib-only (NumPy allowed but unused) and holds the
same import-hygiene bar as :mod:`repro.dse.engine`: importing it must
never pull in test/plot/config frameworks.  Three modules:

:mod:`repro.obs.trace`
    A ``Span`` tree with ids/parent-ids, wall+CPU timings, and typed
    attributes.  Context propagates through ``contextvars`` inside a
    process, through the ``X-Repro-Trace`` header across the
    service/fleet HTTP hops, and through explicit context payloads
    into ``run_many`` pool threads and service jobs.  Spans
    land in a ring-buffer :class:`~repro.obs.trace.TraceStore` and
    export as JSONL or Chrome ``trace_event`` JSON.

:mod:`repro.obs.metrics`
    ``Counter`` / ``Gauge`` / ``Histogram`` (fixed log-spaced latency
    buckets).  Each stateful layer — queue, scheduler, session, store,
    router, admission policy, membership — declares its instruments
    once in its own ``MetricsRegistry``; process-wide caches use the
    global one.  A layer's ``stats()`` document and ``GET /metrics``
    (``render_prometheus(*registries)``) are two views of the same
    instruments, typed by their owner.  Plus a strict parser for the
    Prometheus text exposition format used by the ``--obs`` smoke.

:mod:`repro.obs.profile`
    An opt-in sampling profiler (``REPRO_OBS_PROFILE=1`` / ``--profile``)
    that attributes hot-path samples to the enclosing span and writes
    flamegraph-ready folded-stack JSON.

Everything is ~zero-cost when disabled: the recorder is a no-op
singleton behind one module-global check, and tracing is bit-neutral —
spans are a side channel that never touches result payloads or digests.
``scripts/check.sh --obs`` gates both: a traced ``run_many`` batch must be
digest-identical to an untraced one, and the CPU time spent inside the
tracer's calls (span creation and recording, context handoffs) must stay
under 5% of the traced batch's CPU time, worst of 3 batches.  The
traced-versus-untraced wall difference is printed but not gated.
"""

from repro.obs import metrics, profile, trace

__all__ = ["metrics", "profile", "trace"]
