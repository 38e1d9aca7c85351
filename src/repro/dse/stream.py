"""Out-of-core chunked exploration for million-candidate design spaces.

The columnar engine (:mod:`repro.dse.engine`) materializes the whole
enumerated candidate set — and the full objective columns — in RAM before
extracting the frontier.  That is the right trade for the paper-scale space
(~720 points) but not for the ROADMAP's target spaces three to four orders
larger.  This module evaluates the *same* space as a sequence of bounded-row
chunks instead, in the divide-and-conquer spirit of SCC-chunked automaton
determinization: split the space into independently evaluable pieces, solve
each piece, and merge the partial solutions into a state whose size is
bounded by the answer, not by the space.

Pieces:

1. :func:`plan_chunks` slices the (window, split) groups of a space along
   the instance-count axis into chunks of at most ``chunk_rows`` rows.  A
   chunk is a *description* (group indices + a count range); its NumPy
   columns are materialized lazily, with tightened dtypes (``int32`` counts),
   and only if the chunk survives pushdown.
2. Constraint pushdown prunes rows *before* chunk materialization: the
   area-side constraints (``device_only``, ``max_area_luts``) depend only on
   shape knobs and the cone areas, and per-row area is nondecreasing in the
   primary instance count, so each group's admitted rows form a prefix of
   the count axis found by binary search — O(log rows) scalar probes using
   the engine's exact accumulation formula.  A ``min_frames_per_second``
   floor is monotone along the same axis in the other direction (compute
   cycles per tile are nonincreasing in the primary count, so the frame
   rate is nondecreasing): a second binary search on the throughput formula
   finds the admitted *suffix*, and the intersected [suffix, prefix)
   interval is what gets costed.  Rows outside the interval are counted in
   ``pruned_rows`` and never costed; chunks entirely outside it are never
   materialized at all.
3. :class:`StreamingFrontier` folds each chunk's admitted objective columns
   into a bounded Pareto state that is byte-identical to
   :func:`repro.dse.pareto.pareto_indices` on the concatenated full arrays
   regardless of chunk size or arrival order.  It carries only
   ``(area, time, global row)`` triples — design points are rebuilt for the
   frontier members at finalization by re-running ``estimate_batch`` on
   just their rows (elementwise over the count axis, hence bit-identical).
4. The admitted-row prefixes are persisted in a small process-wide LRU
   keyed by shape knobs + the cone-area inputs + the area constraints, so a
   re-explore that changes only per-run knobs (frame geometry, minimum
   fps) skips the pushdown analysis and re-costs only throughput columns.
   The throughput-side suffix depends on those per-run knobs, so it is
   recomputed per call (O(groups·log rows) probes) and deliberately kept
   out of the cache key.  Counters are exposed through :func:`stream_stats`
   (the service tier serves them under ``stats()["stream"]``).

:func:`explore_stream` is the engine-level entry point;
:meth:`repro.dse.explorer.DesignSpaceExplorer.explore` selects it at or
above :data:`STREAM_AUTO_THRESHOLD` rows (or on ``stream=True``) and
:func:`repro.dse.engine.explore_columnar` below.  Like the columnar engine
it accepts every throughput backend: one that overrides a per-row hook is
costed through the row-loop adapter
(:func:`repro.dse.engine.batch_backend`), without the min-fps suffix
pushdown.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.architecture.enumeration import ArchitectureSpace, CountingLru
from repro.dse.constraints import DseConstraints
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import FINITE_OBJECTIVES_ERROR as _FINITE_ERROR
from repro.estimation.throughput_model import (
    ConePerformance,
    ThroughputModel,
    performance_from_columns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.explorer import ConeCharacterization

#: Default bound on rows materialized per chunk (~a few hundred KB of
#: float64 working set — comfortably cache-resident).
DEFAULT_CHUNK_ROWS = 4096

#: Spaces at or above this many candidates stream by default (explorer
#: ``stream=None``): the full-table columnar path would hold several
#: multi-MB objective columns alive at once.
STREAM_AUTO_THRESHOLD = 200_000

#: Entries the admitted-row mask cache may hold (one entry per distinct
#: (shape knobs, cone areas, area constraints) combination).
MASK_CACHE_CAPACITY = 16


# ---------------------------------------------------------------------- #
# streaming accumulators


class StreamingFrontier:
    """Streaming Pareto accumulator over (area, time) with bounded state.

    Each call to :meth:`update` folds one chunk of objective values into
    the running frontier.  The state holds one ``(area, time, order)``
    triple per current frontier member, where ``order`` is the candidate's
    global enumeration row — merging sorts by ``(area, time, order)`` and
    keeps the strict running-minimum times, which reproduces
    :func:`repro.dse.pareto.pareto_indices`'s stable first-seen tie-break
    exactly (among equal ``(area, time)`` pairs the smallest global row
    survives, and a smaller row can never arrive later *in enumeration
    order*, whatever chunk it arrives in).  The result is therefore
    independent of chunk sizes and chunk arrival order, and identical to
    running ``pareto_indices`` once over the concatenated arrays.

    Orders must be unique across all updates (they are global rows);
    non-finite objectives raise :exc:`ValueError`, matching the batch
    contract in :mod:`repro.dse.pareto`.
    """

    def __init__(self) -> None:
        self._area = np.empty(0, dtype=np.float64)
        self._time = np.empty(0, dtype=np.float64)
        self._order = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return int(self._area.size)

    def update(self, area_luts: "np.ndarray", seconds_per_frame: "np.ndarray",
               order: "np.ndarray") -> None:
        areas, times, orders = _validated_triples(area_luts,
                                                  seconds_per_frame, order)
        if areas.size == 0:
            return
        areas = np.concatenate([self._area, areas])
        times = np.concatenate([self._time, times])
        orders = np.concatenate([self._order, orders])
        rank = np.lexsort((orders, times, areas))
        areas, times, orders = areas[rank], times[rank], orders[rank]
        keep = np.empty(areas.size, dtype=bool)
        keep[0] = True
        keep[1:] = times[1:] < np.minimum.accumulate(times)[:-1]
        self._area = areas[keep]
        self._time = times[keep]
        self._order = orders[keep]

    def result(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """``(area, time, order)`` of the frontier, in increasing-area order
        (the exact order ``pareto_indices`` would return the same rows in)."""
        return self._area.copy(), self._time.copy(), self._order.copy()


def _validated_triples(area_luts, seconds_per_frame, order):
    areas = np.asarray(area_luts, dtype=np.float64)
    times = np.asarray(seconds_per_frame, dtype=np.float64)
    orders = np.asarray(order, dtype=np.int64)
    if not (areas.shape == times.shape == orders.shape) or areas.ndim != 1:
        raise ValueError("area, time, and order must be 1-D arrays of "
                         "equal length")
    if not (np.isfinite(areas).all() and np.isfinite(times).all()):
        raise ValueError(_FINITE_ERROR)
    return areas, times, orders


# ---------------------------------------------------------------------- #
# chunk planning


@dataclass(frozen=True)
class SpaceChunk:
    """One bounded-row slice of a (window, split) group's count axis.

    Purely descriptive — holds group indices and a count range, never
    arrays; :meth:`counts` materializes the (dtype-tightened) count column
    on demand, and pushdown may decide it never has to.
    """

    window: int
    window_index: int
    split: Tuple[int, ...]
    split_index: int
    #: Global enumeration row of the group's first candidate (count 1).
    base_row: int
    #: Zero-based [start, stop) slice of the group's count axis.
    count_start: int
    count_stop: int

    @property
    def rows(self) -> int:
        return self.count_stop - self.count_start

    def counts(self, stop: Optional[int] = None,
               start: Optional[int] = None) -> "np.ndarray":
        """The chunk's primary-count column (``int32``: the enumeration
        bounds counts far below 2**31, and ``estimate_batch`` widens
        exactly, so the tightening is free).  ``start``/``stop`` narrow the
        range to the pushdown-admitted [suffix, prefix) interval."""
        start = self.count_start if start is None else start
        stop = self.count_stop if stop is None else stop
        return np.arange(start + 1, stop + 1, dtype=np.int32)


def plan_chunks(space: ArchitectureSpace,
                chunk_rows: int = DEFAULT_CHUNK_ROWS) -> List[SpaceChunk]:
    """Slice a space into chunks of at most ``chunk_rows`` candidates.

    Chunks never span (window, split) groups, so every chunk shares one
    representative architecture, one per-depth area table, and one cone
    performance table; within a group the count axis is sliced in
    enumeration order.  Concatenating all chunks in plan order visits
    exactly the rows of :func:`repro.architecture.enumeration.space_table`
    in row order — but nothing here builds that table.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1 (got {chunk_rows})")
    splits = tuple(tuple(split) for split in space.level_splits())
    n_splits, n_counts = len(splits), space.max_cones_per_depth
    chunks: List[SpaceChunk] = []
    for window_index, window in enumerate(space.window_sides):
        for split_index, split in enumerate(splits):
            base = ((window_index * n_splits) + split_index) * n_counts
            for start in range(0, n_counts, chunk_rows):
                chunks.append(SpaceChunk(
                    window=window, window_index=window_index,
                    split=split, split_index=split_index, base_row=base,
                    count_start=start,
                    count_stop=min(start + chunk_rows, n_counts)))
    return chunks


# ---------------------------------------------------------------------- #
# constraint pushdown + the admitted-row mask cache


@dataclass(frozen=True)
class _GroupAdmission:
    """Pushdown outcome for one (window, split) group.

    ``admit_len`` is the length of the admitted prefix of the count axis
    (per-row area is nondecreasing in the primary count, so the area-side
    constraints admit a prefix); ``evaluable`` is False when the group's
    depths lack characterizations (the engine skips such groups without
    counting them as pruned).
    """

    evaluable: bool
    admit_len: int
    pruned: int


def _group_area(counts: "np.ndarray", depths: Sequence[int], primary: int,
                area_by_depth: Mapping[int, float]) -> "np.ndarray":
    """Per-row area over a counts vector — the columnar engine's exact
    accumulation (sorted-depth order, primary count varies), so any slice
    of the count axis reproduces the full-table values bit for bit."""
    area = np.zeros(counts.size, dtype=np.float64)
    for depth in depths:
        if depth == primary:
            area += counts * area_by_depth[depth]
        else:
            area += 1 * area_by_depth[depth]
    return area


def _admitted_prefix(n_counts: int, area_limit: float,
                     depths: Sequence[int], primary: int,
                     area_by_depth: Mapping[int, float]) -> int:
    """Largest ``k`` such that counts ``1..k`` satisfy ``area <= limit``.

    Probes the exact per-row area at O(log n) single counts instead of
    materializing the group's area column; valid because area is
    nondecreasing in the primary count (cone areas are nonnegative and
    IEEE add/multiply are monotonic).  Falls back to a full scan if a
    characterization ever reported a negative area.
    """
    def area_at(count: int) -> float:
        return float(_group_area(np.asarray([count], dtype=np.int64),
                                 depths, primary, area_by_depth)[0])

    if area_by_depth[primary] < 0:  # pathological; prefix property gone
        counts = np.arange(1, n_counts + 1, dtype=np.int64)
        mask = _group_area(counts, depths, primary, area_by_depth) <= area_limit
        return int(np.count_nonzero(mask))
    if area_at(n_counts) <= area_limit:
        return n_counts
    if area_at(1) > area_limit:
        return 0
    low, high = 1, n_counts  # area(low) <= limit < area(high)
    while high - low > 1:
        mid = (low + high) // 2
        if area_at(mid) <= area_limit:
            low = mid
        else:
            high = mid
    return low


_mask_cache = CountingLru("repro_stream", MASK_CACHE_CAPACITY)
_RUN_COUNTERS = {
    name: obs_metrics.registry().counter(f"repro_stream_{name}")
    for name in ("runs", "chunks_materialized", "throughput_pruned_rows")}


def stream_stats() -> Dict[str, int]:
    """Process-wide counters of the streaming engine.

    Served by the service tier under ``stats()["stream"]``.  The mask-cache
    half (``hits``/``misses``/``evictions``/``entries``/``capacity``):
    ``hits`` growing across jobs is the signature of incremental
    re-explores (only per-run knobs changed, pushdown analysis reused);
    ``evictions`` counts distinct (shape, area, constraint) combinations
    beyond the bound.  The run half: ``runs`` counts streamed
    explorations, ``chunks_materialized`` the chunks actually costed
    across them, and ``throughput_pruned_rows`` the rows the min-fps
    suffix pushdown skipped before costing.
    """
    return obs_metrics.registry().values("repro_stream_")


def reset_stream_stats() -> None:
    """Zero every streaming counter (tests) without dropping cached masks.

    Use :func:`clear_stream_caches` to also forget the admitted-row masks.
    """
    _mask_cache.reset_stats()
    for counter in _RUN_COUNTERS.values():
        counter.reset()


def clear_stream_caches() -> None:
    """Reset the mask cache and all counters (tests and benchmarks)."""
    _mask_cache.clear()
    reset_stream_stats()


def _mask_cache_key(space: ArchitectureSpace,
                    characterizations: Mapping[Tuple[int, int],
                                               "ConeCharacterization"],
                    constraints: DseConstraints,
                    usable_luts: float) -> Tuple:
    """Admission is a pure function of this key.

    Shape knobs pick the candidate rows; the cone areas and the area-side
    constraints pick which rows are admitted.  Per-run knobs (frame
    geometry, min-fps, port width) are deliberately absent — changing only
    those re-uses the cached masks and re-costs only throughput columns.
    A knob that changes the areas (data format, device recalibration)
    changes the key and recomputes, correctness before reuse.
    """
    shape_key = (space.total_iterations, space.max_depth,
                 space.uniform_levels_only, tuple(space.window_sides),
                 space.max_cones_per_depth)
    area_key = tuple(sorted(
        (window, depth, float(entry.area_luts))
        for (window, depth), entry in characterizations.items()))
    constraint_key = (
        bool(constraints.device_only),
        None if constraints.max_area_luts is None
        else float(constraints.max_area_luts),
        float(usable_luts) if constraints.device_only else None)
    return (shape_key, area_key, constraint_key)


def _compute_admissions(space: ArchitectureSpace,
                        splits: Tuple[Tuple[int, ...], ...],
                        characterizations: Mapping[Tuple[int, int],
                                                   "ConeCharacterization"],
                        constraints: DseConstraints,
                        usable_luts: float
                        ) -> Dict[Tuple[int, int], _GroupAdmission]:
    n_counts = space.max_cones_per_depth
    area_limit = math.inf
    if constraints.device_only:
        area_limit = min(area_limit, usable_luts)
    if constraints.max_area_luts is not None:
        area_limit = min(area_limit, constraints.max_area_luts)
    admissions: Dict[Tuple[int, int], _GroupAdmission] = {}
    for window_index, window in enumerate(space.window_sides):
        for split_index, split in enumerate(splits):
            depths = sorted(set(split))
            if any((window, depth) not in characterizations
                   for depth in depths):
                admissions[(window_index, split_index)] = _GroupAdmission(
                    evaluable=False, admit_len=0, pruned=0)
                continue
            if math.isinf(area_limit):
                admit = n_counts
            else:
                area_by_depth = {
                    depth: characterizations[(window, depth)].area_luts
                    for depth in depths}
                admit = _admitted_prefix(n_counts, area_limit, depths,
                                         depths[-1], area_by_depth)
            admissions[(window_index, split_index)] = _GroupAdmission(
                evaluable=True, admit_len=admit, pruned=n_counts - admit)
    return admissions


# ---------------------------------------------------------------------- #
# the streaming exploration


@dataclass
class _GroupContext:
    """Hoisted per-(window, split) evaluation state (built on first use)."""

    window: int
    split: Tuple[int, ...]
    depths: List[int]
    primary: int
    area_by_depth: Dict[int, float]
    area_estimated: bool
    representative: object
    cone_performance: Dict[int, ConePerformance]


def _group_context(space: ArchitectureSpace,
                   characterizations: Mapping[Tuple[int, int],
                                              "ConeCharacterization"],
                   window: int, split: Tuple[int, ...]) -> _GroupContext:
    """Build one group's evaluation context from pure index arithmetic.

    Used through :meth:`_PointBuilder.context` (one lazy cache for the
    fps probes, the chunk fold and the point builder) and by the columnar
    engine's group loop.
    """
    depths = sorted(set(split))
    area_by_depth = {
        depth: characterizations[(window, depth)].area_luts
        for depth in depths}
    return _GroupContext(
        window=window, split=split, depths=depths,
        primary=depths[-1], area_by_depth=area_by_depth,
        area_estimated=any(
            not characterizations[(window, depth)].synthesized
            for depth in depths),
        representative=space.materialize_row_parts(window, split, 1),
        cone_performance={
            depth: ConePerformance(
                depth=depth, window_side=window,
                latency_cycles=characterizations[
                    (window, depth)].latency_cycles,
                initiation_interval=1)
            for depth in depths})


@dataclass(frozen=True)
class _GroupPlan:
    """One group's final admitted count-axis interval for one exploration.

    ``[start, stop)`` is the intersection of the area-admitted prefix
    (cached across per-run knob changes) with the throughput-admitted
    suffix (recomputed per call — it depends on frame geometry and the fps
    floor).  ``post_filter`` marks groups where the suffix probe declined
    (non-monotone overrides, nonpositive frame times): the min-fps floor is
    then applied after costing, exactly like the columnar engine.
    """

    evaluable: bool
    start: int
    stop: int
    post_filter: bool


def _throughput_admitted_start(admit_len: int, min_fps: float,
                               context: _GroupContext,
                               throughput_model: ThroughputModel,
                               frame_width: int,
                               frame_height: int) -> Optional[int]:
    """Zero-based count index where the fps-admitted suffix begins.

    Compute cycles per tile are nonincreasing in the primary instance count
    (more instances, fewer serialized execution batches), and every other
    term of the frame time is count-constant, so ``frames_per_second`` is
    nondecreasing along the count axis and a min-fps floor admits a suffix
    ``[start, admit_len)`` — found by O(log n) single-count probes of the
    exact batch formula (elementwise over the count axis, hence
    bit-identical to the full-column values).  Returns ``None`` when the
    monotonicity argument does not hold and the caller must fall back to
    post-cost filtering: a (pathological) negative execution interval on
    the primary level, or a nonpositive frame time anywhere in the prefix
    (``frames_per_second`` snaps to 0 there, breaking the suffix shape).
    """
    def columns_at(count: int) -> Mapping[str, object]:
        return throughput_model.estimate_batch(
            context.representative, context.cone_performance,
            frame_width, frame_height,
            np.asarray([count], dtype=np.int64))

    interval = throughput_model.execution_interval_cycles(
        context.representative, context.primary,
        context.cone_performance[context.primary])
    if interval < 0:
        return None
    tail = columns_at(admit_len)
    # seconds_per_frame is nonincreasing in the count, so its minimum over
    # the prefix sits at admit_len: positive there means positive (and the
    # fps column exactly 1/seconds) everywhere.
    if not float(tail["seconds_per_frame"][0]) > 0.0:
        return None

    def admits(count: int) -> bool:
        return bool(columns_at(count)["frames_per_second"][0] >= min_fps)

    if not bool(tail["frames_per_second"][0] >= min_fps):
        return admit_len  # even the fastest admitted row fails the floor
    if admits(1):
        return 0
    low, high = 1, admit_len  # fps(low) fails the floor, fps(high) passes
    while high - low > 1:
        mid = (low + high) // 2
        if admits(mid):
            high = mid
        else:
            low = mid
    return high - 1  # count `high` is the smallest admitted count


def _plan_groups(throughput_model: ThroughputModel,
                 frame_width: int, frame_height: int,
                 constraints: DseConstraints,
                 admissions: Mapping[Tuple[int, int], _GroupAdmission],
                 context: Callable[[Tuple[int, int]], _GroupContext]
                 ) -> Tuple[Dict[Tuple[int, int], _GroupPlan], int]:
    """Intersect the cached area prefixes with the fps suffix per group.

    Returns the per-group plans plus the total rows the throughput-side
    pushdown pruned (rows inside the area prefix but below the floor).
    ``context`` hands out the (lazily built, shared) group contexts the
    fps probes need.
    The suffix probe is gated on the stock batch formula
    (:func:`repro.dse.engine.supports_columnar`); models that override it
    keep the post-cost filter, bit-identical either way.
    """
    min_fps = constraints.min_frames_per_second
    if min_fps is not None:
        # lazy: keeps `import repro.dse.stream` NumPy+stdlib-only (the
        # check.sh import guard); engine is equally light but imports the
        # enumeration table machinery this module exists to avoid.
        from repro.dse.engine import supports_columnar
        pushdown = supports_columnar(throughput_model)
    else:
        pushdown = False
    plans: Dict[Tuple[int, int], _GroupPlan] = {}
    fps_pruned = 0
    for group_key, admission in admissions.items():
        if (not admission.evaluable or admission.admit_len <= 0
                or min_fps is None):
            plans[group_key] = _GroupPlan(
                evaluable=admission.evaluable, start=0,
                stop=admission.admit_len, post_filter=False)
            continue
        if not pushdown:
            plans[group_key] = _GroupPlan(
                evaluable=True, start=0, stop=admission.admit_len,
                post_filter=True)
            continue
        start = _throughput_admitted_start(
            admission.admit_len, min_fps, context(group_key),
            throughput_model, frame_width, frame_height)
        if start is None:
            plans[group_key] = _GroupPlan(
                evaluable=True, start=0, stop=admission.admit_len,
                post_filter=True)
        else:
            fps_pruned += start
            plans[group_key] = _GroupPlan(
                evaluable=True, start=start, stop=admission.admit_len,
                post_filter=False)
    return plans, fps_pruned


@dataclass
class StreamingExploration:
    """What :func:`explore_stream` produces.

    Only frontier members are ever materialized as :class:`DesignPoint`
    objects — ``pareto`` matches the columnar engine's ``pareto`` exactly
    (same points, same order), and ``pareto_row_index`` holds their global
    enumeration rows.
    """

    space_rows: int
    admitted_rows: int
    pruned_rows: int
    chunk_rows: int
    chunks_total: int
    #: Chunks never materialized: fully pruned by pushdown, outside the
    #: admitted interval, or in a group without characterizations.
    chunks_skipped: int
    #: Largest number of rows actually materialized at once.
    peak_chunk_rows: int
    #: Largest frontier state observed while streaming.
    frontier_peak: int
    mask_cache_hit: bool
    pareto_row_index: "np.ndarray"
    pareto: List[DesignPoint]
    #: Rows pruned by the min-fps suffix pushdown (included in
    #: ``pruned_rows``); 0 when no floor was set or the model declined.
    throughput_pruned_rows: int = 0

    @property
    def pruned_fraction(self) -> float:
        return self.pruned_rows / self.space_rows if self.space_rows else 0.0


def explore_stream(space: ArchitectureSpace,
                   characterizations: Mapping[Tuple[int, int],
                                              "ConeCharacterization"],
                   throughput_model: ThroughputModel,
                   frame_width: int, frame_height: int,
                   constraints: Optional[DseConstraints] = None,
                   usable_luts: float = math.inf,
                   chunk_rows: int = DEFAULT_CHUNK_ROWS,
                   chunk_order: Optional[Sequence[int]] = None
                   ) -> StreamingExploration:
    """Evaluate a whole architecture space at bounded memory.

    Visits the same candidates as :func:`repro.dse.engine.explore_columnar`
    and produces the identical Pareto frontier (same design points, same
    order, bit-identical serializations) — whatever ``chunk_rows`` is, and
    whatever order ``chunk_order`` (a permutation of the planned chunk
    indices, mainly for tests) folds the chunks in.  Peak memory is bounded
    by the chunk size plus the frontier state, never by the space.  A
    backend that overrides a per-row hook is costed through
    :func:`repro.dse.engine.batch_backend`.

    ``pruned_rows`` counts every row skipped before costing: the area-side
    prefix pushdown (identical to the columnar engine's accounting) plus
    the min-fps suffix pushdown (``throughput_pruned_rows``; the columnar
    engine filters those after costing without counting them), so with an
    fps floor ``admitted_rows + pruned_rows`` covers all evaluable rows.
    """
    # lazy: keeps `import repro.dse.stream` free of the enumeration table
    # machinery (see _plan_groups)
    from repro.dse.engine import batch_backend

    constraints = constraints or DseConstraints()
    throughput_model = batch_backend(throughput_model, space)
    chunks = plan_chunks(space, chunk_rows)
    splits = tuple(tuple(split) for split in space.level_splits())

    if chunk_order is None:
        schedule: List[int] = list(range(len(chunks)))
    else:
        schedule = list(chunk_order)
        if sorted(schedule) != list(range(len(chunks))):
            raise ValueError(
                f"chunk_order must be a permutation of range({len(chunks)})")

    key = _mask_cache_key(space, characterizations, constraints, usable_luts)
    admissions = _mask_cache.get(key)
    mask_cache_hit = admissions is not None
    if admissions is None:
        admissions = _compute_admissions(space, splits, characterizations,
                                         constraints, usable_luts)
        _mask_cache.put(key, admissions)
    builder = _PointBuilder(space, characterizations, throughput_model,
                            frame_width, frame_height, usable_luts, splits)
    plans, throughput_pruned = _plan_groups(
        throughput_model, frame_width, frame_height, constraints,
        admissions, builder.context)
    pruned_rows = (sum(entry.pruned for entry in admissions.values())
                   + throughput_pruned)

    min_fps = constraints.min_frames_per_second
    frontier = StreamingFrontier()
    admitted_rows = 0
    chunks_materialized = 0
    peak_chunk_rows = 0
    frontier_peak = 0
    fold_started = time.perf_counter()
    with obs_trace.span("stream.explore", chunks=len(chunks)):
        for chunk in (chunks[index] for index in schedule):
            group_key = (chunk.window_index, chunk.split_index)
            plan = plans[group_key]
            start = max(chunk.count_start, plan.start)
            stop = min(chunk.count_stop, plan.stop)
            if not plan.evaluable or stop <= start:
                continue
            context = builder.context(group_key)
            counts = chunk.counts(start=start, stop=stop)
            chunks_materialized += 1
            peak_chunk_rows = max(peak_chunk_rows, int(counts.size))
            area = _group_area(counts, context.depths, context.primary,
                               context.area_by_depth)
            columns = throughput_model.estimate_batch(
                context.representative, context.cone_performance,
                frame_width, frame_height, counts)
            times = np.asarray(columns["seconds_per_frame"])
            rows = chunk.base_row + np.arange(start, stop, dtype=np.int64)
            if plan.post_filter and min_fps is not None:
                admitted = columns["frames_per_second"] >= min_fps
                area, times, rows = (area[admitted], times[admitted],
                                     rows[admitted])
            if rows.size == 0:
                continue
            admitted_rows += int(rows.size)
            frontier.update(area, times, rows)
            frontier_peak = max(frontier_peak, len(frontier))
    obs_metrics.registry().histogram(
        "repro_stream_chunk_fold_seconds").observe(
            time.perf_counter() - fold_started)
    for name, delta in (("runs", 1),
                        ("chunks_materialized", chunks_materialized),
                        ("throughput_pruned_rows", throughput_pruned)):
        _RUN_COUNTERS[name].inc(delta)

    pareto_area, _pareto_time, pareto_rows = frontier.result()
    return StreamingExploration(
        space_rows=space.size(),
        admitted_rows=admitted_rows,
        pruned_rows=pruned_rows,
        chunk_rows=chunk_rows,
        chunks_total=len(chunks),
        chunks_skipped=len(chunks) - chunks_materialized,
        peak_chunk_rows=peak_chunk_rows,
        frontier_peak=frontier_peak,
        mask_cache_hit=mask_cache_hit,
        pareto_row_index=pareto_rows,
        pareto=builder.build(pareto_rows, pareto_area),
        throughput_pruned_rows=throughput_pruned,
    )


class _PointBuilder:
    """Rebuilds :class:`DesignPoint`s for surviving global rows.

    The throughput columns are recomputed by ``estimate_batch`` on just the
    survivors' counts, batched per (window, split) group; every column is
    elementwise over the count axis, so the subset evaluation reproduces
    the full-table values bit for bit (the stored frontier areas are reused
    directly — they came from the same accumulation).  Group contexts are
    built lazily and shared with the fps probes of :func:`_plan_groups`
    and the chunk fold, which ask for them through :meth:`context`.
    """

    def __init__(self, space, characterizations, throughput_model,
                 frame_width, frame_height, usable_luts, splits) -> None:
        self.space = space
        self.characterizations = characterizations
        self.throughput_model = throughput_model
        self.frame_width = frame_width
        self.frame_height = frame_height
        self.usable_luts = usable_luts
        self.splits = splits
        self.n_counts = space.max_cones_per_depth
        self.contexts: Dict[Tuple[int, int], _GroupContext] = {}

    def context(self, group: Tuple[int, int]) -> _GroupContext:
        context = self.contexts.get(group)
        if context is None:
            window_index, split_index = group
            context = _group_context(self.space, self.characterizations,
                                     self.space.window_sides[window_index],
                                     self.splits[split_index])
            self.contexts[group] = context
        return context

    def build(self, rows: "np.ndarray",
              areas: "np.ndarray") -> List[DesignPoint]:
        if rows.size == 0:
            return []
        n_splits = len(self.splits)
        count_index = rows % self.n_counts
        split_index = (rows // self.n_counts) % n_splits
        window_index = rows // (self.n_counts * n_splits)
        points: List[Optional[DesignPoint]] = [None] * rows.size
        by_group: Dict[Tuple[int, int], List[int]] = {}
        for position in range(rows.size):
            group = (int(window_index[position]), int(split_index[position]))
            by_group.setdefault(group, []).append(position)
        for group, positions in by_group.items():
            context = self.context(group)
            counts = np.asarray([int(count_index[p]) + 1 for p in positions],
                                dtype=np.int64)
            columns = self.throughput_model.estimate_batch(
                context.representative, context.cone_performance,
                self.frame_width, self.frame_height, counts)
            for offset, position in enumerate(positions):
                architecture = self.space.materialize_row_parts(
                    context.window, context.split, int(counts[offset]))
                area = float(areas[position])
                points[position] = DesignPoint(
                    architecture=architecture,
                    area_luts=area,
                    area_estimated=context.area_estimated,
                    performance=performance_from_columns(columns, offset),
                    fits_device=bool(area <= self.usable_luts),
                    cone_area_by_depth=dict(context.area_by_depth),
                )
        return [point for point in points if point is not None]
