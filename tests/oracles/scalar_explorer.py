"""The per-point scalar exploration loop — the engines' differential oracle.

Evaluates a design space one :class:`ConeArchitecture` at a time: sum the
cone areas, run the throughput backend's frame-level ``evaluate``, wrap a
:class:`DesignPoint`, test the constraints, then extract the Pareto set
with :func:`repro.dse.pareto.pareto_front`.  Every engine result must
serialize byte-identically to this loop's (``json.dumps(result.to_dict(),
sort_keys=True)``).  The result is assembled by the explorer itself, so
only the evaluation differs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.explorer import (ConeCharacterization, DesignSpaceExplorer,
                                ExplorationResult)
from repro.dse.pareto import pareto_front
from repro.estimation.throughput_model import ConePerformance


def explore_scalar(explorer: DesignSpaceExplorer, total_iterations: int,
                   frame_width: int, frame_height: int,
                   constraints: Optional[DseConstraints] = None,
                   onchip_port_elements_per_cycle: Optional[int] = None
                   ) -> ExplorationResult:
    """:meth:`DesignSpaceExplorer.explore`, evaluated point by point."""
    characterizations, validations = explorer.characterize_cones(
        total_iterations)
    design_points = evaluate_scalar(
        explorer._space(total_iterations), characterizations,
        explorer._throughput_model_for(onchip_port_elements_per_cycle),
        frame_width, frame_height, constraints or DseConstraints(),
        explorer.device.usable_capacity.luts)
    return explorer._assemble_result(
        total_iterations, frame_width, frame_height, characterizations,
        validations, design_points, pareto_front(design_points))


def evaluate_scalar(space: ArchitectureSpace,
                    characterizations: Mapping[Tuple[int, int],
                                               ConeCharacterization],
                    throughput_model, frame_width: int, frame_height: int,
                    constraints: DseConstraints,
                    usable_luts: float) -> List[DesignPoint]:
    """Every constraint-admitted design point, in enumeration order."""
    design_points: List[DesignPoint] = []
    for window, split, group in space.architecture_groups():
        depths = sorted(set(split))
        if any((window, depth) not in characterizations for depth in depths):
            continue
        area_by_depth: Dict[int, float] = {
            depth: characterizations[(window, depth)].area_luts
            for depth in depths}
        estimated = any(not characterizations[(window, depth)].synthesized
                        for depth in depths)
        cone_performance = {
            depth: ConePerformance(
                depth=depth, window_side=window,
                latency_cycles=characterizations[(window,
                                                  depth)].latency_cycles,
                initiation_interval=1)
            for depth in depths}
        for architecture in group:
            total_area = sum(architecture.cone_counts[depth]
                             * area_by_depth[depth] for depth in depths)
            point = DesignPoint(
                architecture=architecture,
                area_luts=total_area,
                area_estimated=estimated,
                performance=throughput_model.evaluate(
                    architecture, cone_performance, frame_width,
                    frame_height),
                fits_device=total_area <= usable_luts,
                cone_area_by_depth=dict(area_by_depth),
            )
            if constraints.admits(point):
                design_points.append(point)
    return design_points
