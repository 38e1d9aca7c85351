"""Pluggable batch-execution strategies for :meth:`Session.run_many`.

The characterization/exploration stages are pure Python, so a thread pool
parallelizes only their (few) lock-free gaps — multi-kernel sweeps are
effectively GIL-serialized.  This module turns batch scheduling into an
extension point with three built-in strategies, registered under the
``executor`` kind of :mod:`repro.api.registry`:

``serial``
    Run the batch in input order on the calling thread.  The baseline every
    other strategy must agree with byte-for-byte.
``threads``
    The classic shared-session thread pool: workloads sharing a
    characterization key serialize on the session's per-key locks, distinct
    kernels overlap wherever the interpreter allows.  Best when the batch is
    warm (persistent-store hits are I/O bound) or small.
``processes``
    Shard the batch by characterization key across a
    ``ProcessPoolExecutor``: each worker process runs its shard through its
    own :class:`~repro.api.session.Session` and ships the serialized
    :class:`~repro.api.results.FlowResult`\\ s back; characterizations and
    results are merged through the shared :class:`~repro.api.store
    .ArtifactStore` (when the parent session has one) and the results are
    promoted into the parent session's memory cache.  Best for cold,
    CPU-bound sweeps of several distinct kernels.

Scheduling is deterministic regardless of strategy and worker count:
results always come back in input order, and shard assignment depends only
on the *set* of characterization keys in the batch (see
:func:`shard_workloads`) — not on submission order, pool size, or timing.

Out-of-tree strategies plug in like every other backend::

    from repro.api import register_backend

    register_backend("executor", "slurm", SlurmExecutor)
    session.run_many(workloads, executor="slurm")

A strategy factory is invoked with no arguments and must return an object
with ``run_batch(session, workloads, max_workers=None) -> List[FlowResult]``
(see :class:`ExecutionStrategy`).

The ``processes`` strategy resolves workloads inside fresh worker processes,
so their kernels/backends must be importable there: registry algorithms,
C-source and inline kernels always are (they serialize in full); custom
backends registered at runtime are visible under the default ``fork`` start
method on POSIX, while spawn-based platforms need them importable via the
``REPRO_BACKENDS`` plugin mechanism.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.api.registry import register_backend
from repro.api.results import FlowResult
from repro.api.workload import Workload
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # imported lazily at runtime to avoid a session cycle
    from repro.api.session import Session

#: The built-in strategy names, in documentation order.
EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "threads", "processes")


@runtime_checkable
class ExecutionStrategy(Protocol):
    """What :meth:`Session.run_many` needs from a batch executor."""

    #: Human-readable strategy name (diagnostics only).
    name: str

    def run_batch(self, session: "Session", workloads: Sequence[Workload],
                  max_workers: Optional[int] = None) -> List[FlowResult]:
        """Run every workload through ``session``; results in input order."""
        ...


def resolve_strategy(executor: Union[str, ExecutionStrategy, None]
                     ) -> ExecutionStrategy:
    """Resolve ``run_many``'s ``executor`` argument to a strategy instance.

    ``None`` means the default (``threads``); a string is looked up under
    the ``executor`` kind of :mod:`repro.api.registry`; a strategy object
    passes through unchanged.  The one hand-off point shared by
    :meth:`Session.run_many` and the service scheduler
    (:mod:`repro.service.scheduler`), so both surfaces accept exactly the
    same executor names — and a long-lived server validates its configured
    name at startup instead of on the first burst.
    """
    if executor is None:
        executor = "threads"
    if isinstance(executor, str):
        from repro.api.registry import create_backend

        return create_backend("executor", executor)
    return executor


def validate_max_workers(max_workers: Optional[int]) -> Optional[int]:
    """Reject worker counts that would otherwise be silently "repaired".

    ``None`` means "size the pool automatically"; anything else must be a
    positive integer — ``0``, negatives, bools, and fractional counts are
    configuration errors, not requests for a default.
    """
    if max_workers is None:
        return None
    if isinstance(max_workers, bool) or not isinstance(max_workers, int):
        raise ValueError(
            f"max_workers must be a positive integer or None (got "
            f"{max_workers!r})")
    if max_workers < 1:
        raise ValueError(
            f"max_workers must be >= 1 (got {max_workers}); pass None to "
            f"size the worker pool from os.cpu_count()")
    return max_workers


def resolve_worker_count(max_workers: Optional[int], batch_size: int) -> int:
    """The effective pool size for a batch (validated, auto-sized, capped)."""
    validate_max_workers(max_workers)
    if max_workers is None:
        max_workers = min(batch_size, max(2, (os.cpu_count() or 2)))
    return max(1, min(max_workers, batch_size))


def shard_workloads(workloads: Sequence[Workload],
                    shard_count: int) -> List[List[int]]:
    """Deterministically assign batch indices to at most ``shard_count``
    shards.

    Workloads sharing a characterization key land in the same shard (they
    share cone characterizations, so splitting them would duplicate the
    expensive synthesis/calibration work in two processes).  Key groups are
    ordered largest-first with ties broken by the key's deterministic repr,
    then greedily packed onto the least-loaded shard — a function of the
    *multiset of keys only*, so shuffling the submission order, changing the
    strategy, or resizing the pool never changes which keys run together.
    Within each shard, indices keep input order.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1 (got {shard_count})")
    groups: Dict[Tuple, List[int]] = {}
    for index, workload in enumerate(workloads):
        groups.setdefault(workload.characterization_key(), []).append(index)
    ordered = sorted(groups.items(),
                     key=lambda item: (-len(item[1]), repr(item[0])))
    shards: List[List[int]] = [[] for _ in range(min(shard_count,
                                                     len(groups)))]
    loads = [0] * len(shards)
    for _key, indices in ordered:
        target = loads.index(min(loads))  # first least-loaded: deterministic
        shards[target].extend(indices)
        loads[target] += len(indices)
    for shard in shards:
        shard.sort()
    return shards


# ---------------------------------------------------------------------- #
# built-in strategies


class SerialExecutor:
    """Run the batch sequentially on the calling thread (the baseline)."""

    name = "serial"

    def run_batch(self, session: "Session", workloads: Sequence[Workload],
                  max_workers: Optional[int] = None) -> List[FlowResult]:
        validate_max_workers(max_workers)
        return [session.run(workload) for workload in workloads]


class ThreadExecutor:
    """Fan the batch out over a shared-session thread pool."""

    name = "threads"

    def run_batch(self, session: "Session", workloads: Sequence[Workload],
                  max_workers: Optional[int] = None) -> List[FlowResult]:
        workers = resolve_worker_count(max_workers, len(workloads))
        if workers <= 1 or len(workloads) == 1:
            return [session.run(workload) for workload in workloads]
        # contextvars do not follow work into pool threads: capture the
        # batch's trace context here and re-enter it around each run, so
        # per-workload spans parent under the run_many span
        context = obs_trace.context_payload()

        def traced_run(workload: Workload) -> FlowResult:
            with obs_trace.adopt(context):
                return session.run(workload)

        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="repro-session") as pool:
            return list(pool.map(traced_run, workloads))


class ProcessExecutor:
    """Shard the batch by characterization key across worker processes.

    Workloads the parent session can already serve cheaply are answered
    in-process — a full result in the in-memory caches or the persistent
    store, or an in-memory explorer whose characterization the workload
    would reuse (a worker process could not see it and would re-synthesize
    from scratch).  A warm rerun therefore forks nothing and takes the
    exact same code path as :class:`SerialExecutor`, and repeated
    in-session batches never pay pool startup.  Only the cold remainder is
    sharded; each
    worker process runs its shard through a fresh session pointed at the
    parent's store directory, so characterizations and results written there
    are immediately reusable by the parent and by later runs.  The workers'
    session statistics are folded into the parent's and every shipped result
    is promoted into the parent's in-memory cache.
    """

    name = "processes"

    def __init__(self, start_method: Optional[str] = None) -> None:
        self._start_method = start_method

    def _context(self):
        if self._start_method is None:
            return None
        import multiprocessing

        return multiprocessing.get_context(self._start_method)

    def run_batch(self, session: "Session", workloads: Sequence[Workload],
                  max_workers: Optional[int] = None) -> List[FlowResult]:
        workers = resolve_worker_count(max_workers, len(workloads))
        results: List[Optional[FlowResult]] = [None] * len(workloads)

        cold: List[int] = []
        for index, workload in enumerate(workloads):
            if session._prefers_in_process(workload):
                results[index] = session.run(workload)
            else:
                cold.append(index)
        if not cold:
            return results  # fully warm: nothing forked

        shards = shard_workloads([workloads[i] for i in cold],
                                 workers if workers > 1 else 1)
        if workers <= 1 or len(shards) <= 1:
            # one shard would only add fork/pickle overhead: run in-process
            for index in cold:
                results[index] = session.run(workloads[index])
            return results

        store = session.store
        store_root = store.root if store is not None else None
        failures: List[Tuple[int, BaseException]] = []
        trace_context = obs_trace.context_payload()
        with ProcessPoolExecutor(max_workers=len(shards),
                                 mp_context=self._context()) as pool:
            futures = []
            for shard in shards:
                indices = [cold[i] for i in shard]
                payloads = [workloads[i].to_dict() for i in indices]
                futures.append((indices,
                                pool.submit(_run_shard, payloads,
                                            store_root, trace_context)))
            # Consume every shard before re-raising a failure, so the
            # statistics (and store artifacts) of completed shards are
            # never lost to one bad workload.
            for indices, future in futures:
                (shard_results, stats, elapsed, failure,
                 shard_spans) = future.result()
                session._absorb_child_stats(stats)
                obs_trace.absorb(shard_spans)
                for index, payload, spent in zip(indices, shard_results,
                                                 elapsed):
                    workload = workloads[index]
                    session._emit_batch_event("workload-started", workload)
                    results[index] = session._adopt_result(
                        workload, FlowResult.from_dict(payload))
                    session._emit_batch_event("workload-finished", workload,
                                              elapsed_s=spent)
                if failure is not None:
                    position, error, spent = failure
                    index = indices[position]
                    if not stats.get("workloads_failed"):
                        # the workload died before the child session could
                        # account it (e.g. deserialization): count it here
                        session._absorb_child_stats({"workloads_failed": 1})
                    session._emit_batch_event("workload-started",
                                              workloads[index])
                    session._emit_batch_event("workload-failed",
                                              workloads[index],
                                              elapsed_s=spent,
                                              detail=str(error))
                    failures.append((index, error))
        if failures:
            # match serial/threads semantics: the earliest failure in input
            # order is re-raised after the batch completes scheduling
            failures.sort(key=lambda entry: entry[0])
            raise failures[0][1]
        return results


#: One failed shard entry: (position within the shard, the exception, the
#: seconds spent on the failing workload).
ShardFailure = Optional[Tuple[int, BaseException, float]]


def _run_shard(workload_payloads: List[Dict[str, Any]],
               store_root: Optional[str],
               trace_context: Optional[Dict[str, Any]] = None
               ) -> Tuple[List[Dict[str, Any]], Dict[str, Any], List[float],
                          ShardFailure, List[Dict[str, Any]]]:
    """Worker-process entry point: run one shard through a fresh session.

    Ships everything back as plain JSON-ready dicts — the parent
    reconstructs :class:`FlowResult` objects and folds the statistics, so
    the only non-builtin pickled across the process boundary is a failing
    workload's exception.  A failure aborts the rest of the shard (like the
    serial path) but is *returned*, not raised, so the shard's completed
    results and its session statistics survive the error.

    With ``trace_context`` (the parent's span handoff payload), the shard
    runs under an ``executor.shard`` span parented into the caller's trace;
    worker-side spans cannot reach the parent's recorder, so they are
    captured locally and shipped back as the last tuple element for the
    parent to re-anchor with :func:`repro.obs.trace.absorb`.
    """
    from repro.api.session import Session

    session = Session(store=store_root)
    results: List[Dict[str, Any]] = []
    elapsed: List[float] = []
    failure: ShardFailure = None

    def execute() -> None:
        nonlocal failure
        for position, payload in enumerate(workload_payloads):
            started = time.perf_counter()
            try:
                workload = Workload.from_dict(payload)
                results.append(session.run(workload).to_dict())
            except Exception as error:
                failure = (position, error, time.perf_counter() - started)
                break
            elapsed.append(time.perf_counter() - started)

    spans: List[Dict[str, Any]] = []
    if trace_context is not None:
        with obs_trace.capture(spans), obs_trace.adopt(trace_context):
            with obs_trace.span("executor.shard",
                                workloads=len(workload_payloads)):
                execute()
    else:
        execute()
    return results, session.stats.to_dict(), elapsed, failure, spans


register_backend("executor", SerialExecutor.name, SerialExecutor)
register_backend("executor", ThreadExecutor.name, ThreadExecutor)
register_backend("executor", ProcessExecutor.name, ProcessExecutor)
