"""The columnar design-space engine.

Evaluates a candidate space as columns instead of one Python object per
candidate:

1. the full enumerated candidate set is materialized once as parallel NumPy
   arrays (:class:`repro.architecture.enumeration.ArchitectureTable` — window,
   split, instance count, primary depth), cached and *shared* across every
   device/format/frame scenario that explores the same shape knobs;
2. the calibrated Equation-1 areas and the frame-level throughput model are
   evaluated vectorized over whole (window, split) groups through the
   models' ``estimate_batch`` APIs — the same code the models' per-point
   ``evaluate`` delegates to, so batch and per-point figures are
   bit-identical;
3. :class:`~repro.dse.constraints.DseConstraints` are applied as array
   masks, with the area-only constraints (``device_only``,
   ``max_area_luts``) pushed down *before* throughput estimation so
   infeasible candidates are never costed;
4. the Pareto frontier is extracted directly from the admitted objective
   columns (:func:`repro.dse.pareto.pareto_indices`);
5. :class:`DesignPoint` objects are materialized for the admitted rows only.

:meth:`repro.dse.explorer.DesignSpaceExplorer.explore` runs this engine on
spaces below :data:`repro.dse.stream.STREAM_AUTO_THRESHOLD` candidates and
the chunked :func:`repro.dse.stream.explore_stream` at or above it.  Both
accept every throughput backend: one whose per-row hooks are overridden
(see :func:`supports_columnar`) is driven through :func:`batch_backend`, a
row-loop adapter that builds the batch columns from per-row ``evaluate()``
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.architecture.enumeration import (ArchitectureSpace,
                                            ArchitectureTable, space_table)
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_indices
# one accumulation formula and one group prelude shared with the streaming
# engine, so its binary-search pushdown probes are bit-identical to these
# columns by construction (stream imports nothing from this module at
# import time)
from repro.dse.stream import _GroupContext, _group_area, _group_context
from repro.estimation.throughput_model import (
    ThroughputModel,
    performance_from_columns,
)
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.explorer import ConeCharacterization


def shared_table_stats() -> Dict[str, Optional[int]]:
    """Counters of the process-wide :class:`ArchitectureTable` cache.

    The enumerated candidate table is keyed by shape knobs only and shared
    by every device/format/frame scenario over the same space (see
    :func:`repro.architecture.enumeration.space_table`); these counters
    make that reuse observable — the service tier reports them under
    ``stats()["shared_table"]``, where ``hits`` growing while ``entries``
    stays flat is the signature of a burst re-costing one cached table
    instead of re-enumerating per job.  The cache is a small bounded LRU
    (tables over huge spaces are tens of MB), so ``evictions`` counts how
    often a distinct shape-knob set pushed an old table out of RAM.
    """
    return obs_metrics.registry().values("repro_shared_table_")


def supports_columnar(throughput_model: object) -> bool:
    """Whether the engines may drive ``throughput_model``'s batch API directly.

    True iff the model's frame-level ``evaluate``, its per-tile
    ``compute_cycles_per_tile`` hook, and ``estimate_batch`` itself are the
    stock :class:`ThroughputModel` implementations, so the batch path
    cannot diverge from what per-point evaluation would produce.  A
    backend that overrides any of the three — or duck-types the protocol
    without subclassing — is wrapped by :func:`batch_backend` instead (its
    overrides are honored, just not vectorized), and the streaming engine
    skips its min-fps suffix pushdown.  The finer-grained public hooks
    (``transfer_cycles_per_tile``, ``tiles_per_frame``,
    ``execution_interval_cycles``) are invoked on the instance by both
    paths, so overriding those keeps the batch path usable *and*
    consistent — they are the supported extension points for
    columnar-capable customization.
    """
    model_type = type(throughput_model)
    return (getattr(model_type, "estimate_batch", None)
            is ThroughputModel.estimate_batch
            and getattr(model_type, "evaluate", None)
            is ThroughputModel.evaluate
            and getattr(model_type, "compute_cycles_per_tile", None)
            is ThroughputModel.compute_cycles_per_tile)


class _RowLoopBatch:
    """``estimate_batch`` over per-row ``evaluate()`` calls.

    Serves backends that override a per-row hook: each instance count of a
    (window, split) group is materialized and evaluated on its own, so the
    overrides are honored exactly.  The columns carry the per-row results
    under ``"performance"`` (which :func:`performance_from_columns` returns
    as-is) plus the two objective columns the engines mask and rank on.
    """

    def __init__(self, model: object, space: ArchitectureSpace) -> None:
        self.model = model
        self.space = space

    def estimate_batch(self, architecture, cone_performance, frame_width,
                       frame_height, primary_counts) -> Dict[str, object]:
        performance = [
            self.model.evaluate(
                self.space.materialize_row_parts(
                    architecture.window_side, architecture.level_depths,
                    count),
                cone_performance, frame_width, frame_height)
            for count in np.asarray(primary_counts).tolist()]
        return {
            "performance": performance,
            "seconds_per_frame": np.array(
                [row.seconds_per_frame for row in performance],
                dtype=np.float64),
            "frames_per_second": np.array(
                [row.frames_per_second for row in performance],
                dtype=np.float64),
        }


def batch_backend(throughput_model: object, space: ArchitectureSpace):
    """``throughput_model`` itself when :func:`supports_columnar`, else a
    row-loop adapter exposing the same ``estimate_batch`` signature."""
    if supports_columnar(throughput_model):
        return throughput_model
    return _RowLoopBatch(throughput_model, space)


@dataclass(frozen=True)
class _GroupEvaluation:
    """One (window, split) group's evaluated columns (admitted rows only)."""

    context: _GroupContext
    base_row: int
    count_index: np.ndarray        # admitted positions along the count axis
    area_luts: np.ndarray          # admitted areas (aligned with count_index)
    fits_device: np.ndarray
    performance_columns: Mapping[str, object]
    performance_index: np.ndarray  # admitted positions into the perf columns


@dataclass
class ColumnarExploration:
    """The engine's product: admitted objective columns plus design points.

    ``row_index``/``area_luts``/``seconds_per_frame``/``fits_device`` are
    parallel arrays over the admitted candidates, in enumeration (row)
    order.  ``design_points`` holds one :class:`DesignPoint` per admitted
    row in the same order; ``pareto`` is the frontier in increasing-area
    order (see :mod:`repro.dse.pareto` for the tie-breaking contract), as
    members of ``design_points``.
    """

    table: ArchitectureTable
    row_index: np.ndarray
    area_luts: np.ndarray
    seconds_per_frame: np.ndarray
    fits_device: np.ndarray
    pareto_index: np.ndarray
    design_points: List[DesignPoint]
    pareto: List[DesignPoint]
    #: Rows never costed thanks to constraint pushdown (area-infeasible
    #: only — a min-fps floor is filtered *after* costing here and is not
    #: counted; the streaming engine pushes it down too, so its
    #: ``pruned_rows`` additionally covers ``throughput_pruned_rows``).
    pruned_rows: int = 0

    @property
    def admitted_rows(self) -> int:
        return int(self.row_index.size)


def explore_columnar(space: ArchitectureSpace,
                     characterizations: Mapping[Tuple[int, int],
                                                "ConeCharacterization"],
                     throughput_model: ThroughputModel,
                     frame_width: int, frame_height: int,
                     constraints: Optional[DseConstraints] = None,
                     usable_luts: float = math.inf) -> ColumnarExploration:
    """Evaluate a whole architecture space with column arithmetic.

    Visits the candidates in enumeration order (a (window, split) group at
    a time, instance counts ascending) and materializes a
    :class:`DesignPoint` for every constraint-admitted row.  Groups whose
    cone shapes lack a characterization are skipped.
    """
    constraints = constraints or DseConstraints()
    throughput_model = batch_backend(throughput_model, space)
    table = space_table(space)
    n_counts = len(table.counts)

    groups: List[_GroupEvaluation] = []
    pruned = 0
    for window_index, window in enumerate(table.window_sides):
        for split_index, split in enumerate(table.splits):
            if any((window, depth) not in characterizations
                   for depth in split):
                continue
            context = _group_context(space, characterizations, window,
                                     split)
            rows = table.group_rows(window_index, split_index)
            # the group's slice of the table columns IS the count axis
            counts = table.primary_count[rows.start:rows.stop]

            # Per-row area: Σ_depth instances × cone area, accumulated in
            # sorted-depth order (only the primary depth's instance count
            # varies along the row axis of the group).
            area = _group_area(counts, context.depths, context.primary,
                               context.area_by_depth)
            fits = area <= usable_luts

            # Constraint pushdown: candidates that already fail the
            # area-side constraints are masked out *before* the throughput
            # model runs, so they are never costed.
            feasible = np.ones(n_counts, dtype=bool)
            if constraints.device_only:
                feasible &= fits
            if constraints.max_area_luts is not None:
                feasible &= area <= constraints.max_area_luts
            pruned += int(n_counts - np.count_nonzero(feasible))
            if not feasible.any():
                continue

            selected = np.flatnonzero(feasible)
            columns = throughput_model.estimate_batch(
                context.representative, context.cone_performance,
                frame_width, frame_height, counts[selected])
            performance_index = np.arange(selected.size)
            if constraints.min_frames_per_second is not None:
                admitted = (columns["frames_per_second"]
                            >= constraints.min_frames_per_second)
                selected = selected[admitted]
                performance_index = performance_index[admitted]
                if selected.size == 0:
                    continue
            groups.append(_GroupEvaluation(
                context=context,
                base_row=rows.start,
                count_index=selected,
                area_luts=area[selected],
                fits_device=fits[selected],
                performance_columns=columns,
                performance_index=performance_index,
            ))

    if groups:
        row_index = np.concatenate([g.base_row + g.count_index
                                    for g in groups])
        area_column = np.concatenate([g.area_luts for g in groups])
        time_column = np.concatenate(
            [np.asarray(g.performance_columns["seconds_per_frame"])
             [g.performance_index] for g in groups])
        fits_column = np.concatenate([g.fits_device for g in groups])
    else:
        row_index = np.empty(0, dtype=np.intp)
        area_column = np.empty(0, dtype=np.float64)
        time_column = np.empty(0, dtype=np.float64)
        fits_column = np.empty(0, dtype=bool)
    pareto_order = pareto_indices(area_column, time_column)

    design_points: List[DesignPoint] = []
    for group in groups:
        context = group.context
        for offset in range(group.count_index.size):
            design_points.append(DesignPoint(
                architecture=space.materialize_row_parts(
                    context.window, context.split,
                    table.counts[int(group.count_index[offset])]),
                area_luts=float(group.area_luts[offset]),
                area_estimated=context.area_estimated,
                performance=performance_from_columns(
                    group.performance_columns,
                    int(group.performance_index[offset])),
                fits_device=bool(group.fits_device[offset]),
                cone_area_by_depth=dict(context.area_by_depth),
            ))

    return ColumnarExploration(
        table=table,
        row_index=row_index,
        area_luts=area_column,
        seconds_per_frame=time_column,
        fits_device=fits_column,
        pareto_index=pareto_order,
        design_points=design_points,
        pareto=[design_points[index] for index in pareto_order],
        pruned_rows=pruned,
    )
