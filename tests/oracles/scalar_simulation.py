"""Per-pixel and per-tile scalar walks — the simulators' differential oracles.

The golden executor and the tile-cascade cycle simulator each have one
production path in ``src/repro/simulation`` (whole-frame NumPy passes and a
one-representative-tile cycle count).  The functions here are their slow,
obviously-correct twins: they take the simulator instance and recompute the
same result one pixel or one tile at a time.  The vectorized paths must be
**bit-identical** to them, not merely close.

Identity holds by construction for the golden model: scalar IEEE float64
arithmetic and NumPy elementwise float64 arithmetic are both correctly
rounded, and :meth:`~repro.simulation.frame.Frame.clamped_read` selects the
same element as the edge-padded view for every coordinate (see
:meth:`~repro.simulation.frame.Frame.padded`).  For the cycle simulator,
the production ``np.cumsum`` fold reproduces this walk's ``+=`` rounding
sequence.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

import numpy as np

from repro.architecture.template import ConeArchitecture
from repro.estimation.throughput_model import ConePerformance
from repro.frontend.kernel_ir import (
    BinOpKind,
    BinaryOp,
    FieldRead,
    KernelExpr,
    Literal,
    ParamRef,
    Select,
    UnOpKind,
    UnaryOp,
)
from repro.simulation.cone_simulator import (
    CycleSimulationResult,
    TileCascadeCycleSimulator,
)
from repro.simulation.frame import FrameSet
from repro.simulation.golden import GoldenExecutor
from repro.simulation.memory import OffChipMemoryModel, OnChipBufferModel


def golden_run_scalar(executor: GoldenExecutor, frames: FrameSet,
                      iterations: int) -> FrameSet:
    """:meth:`GoldenExecutor.run`, evaluated pixel by pixel."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    current = frames.copy()
    for _ in range(iterations):
        current = golden_step_scalar(executor, current)
    return current


def golden_step_scalar(executor: GoldenExecutor,
                       frames: FrameSet) -> FrameSet:
    """:meth:`GoldenExecutor.step`, evaluated pixel by pixel.

    Walks every output element and evaluates the kernel expression with
    Python floats and ``clamped_read`` boundary handling.
    """
    height, width = frames.height, frames.width
    next_frames = frames.copy()
    new_data: Dict[str, np.ndarray] = {
        name: frames[name].data.copy() for name in frames.names()
    }
    for update in executor.kernel.updates:
        target = np.empty((height, width), dtype=np.float64)
        for y in range(height):
            for x in range(width):
                def read(field_name: str, component: int,
                         dy: int, dx: int) -> float:
                    return frames[field_name].clamped_read(
                        component, y + dy, x + dx)

                target[y, x] = evaluate_scalar(executor, update.expr, read)
        new_data[update.field_name][update.component] = target
    for name, data in new_data.items():
        next_frames.replace(name, data)
    return next_frames


def evaluate_scalar(executor: GoldenExecutor, expr: KernelExpr,
                    read) -> float:
    """Scalar twin of ``GoldenExecutor._evaluate``; ``read`` returns a float."""
    if isinstance(expr, Literal):
        return float(expr.value)
    if isinstance(expr, ParamRef):
        return float(executor.params[expr.name])
    if isinstance(expr, FieldRead):
        return read(expr.field_name, expr.component,
                    expr.offset.dy, expr.offset.dx)
    if isinstance(expr, BinaryOp):
        left = evaluate_scalar(executor, expr.left, read)
        right = evaluate_scalar(executor, expr.right, read)
        kind = expr.kind
        if kind is BinOpKind.ADD:
            return left + right
        if kind is BinOpKind.SUB:
            return left - right
        if kind is BinOpKind.MUL:
            return left * right
        if kind is BinOpKind.DIV:
            return left / right
        if kind is BinOpKind.MIN:
            return min(left, right)
        if kind is BinOpKind.MAX:
            return max(left, right)
        if kind is BinOpKind.LT:
            return 1.0 if left < right else 0.0
        if kind is BinOpKind.LE:
            return 1.0 if left <= right else 0.0
        if kind is BinOpKind.GT:
            return 1.0 if left > right else 0.0
        if kind is BinOpKind.GE:
            return 1.0 if left >= right else 0.0
        if kind is BinOpKind.EQ:
            return 1.0 if left == right else 0.0
        raise ValueError(f"unsupported binary operator {kind!r}")
    if isinstance(expr, UnaryOp):
        operand = evaluate_scalar(executor, expr.operand, read)
        if expr.kind is UnOpKind.NEG:
            return -operand
        if expr.kind is UnOpKind.ABS:
            return abs(operand)
        if expr.kind is UnOpKind.SQRT:
            return math.sqrt(operand)
        raise ValueError(f"unsupported unary operator {expr.kind!r}")
    if isinstance(expr, Select):
        # short-circuit: the not-taken branch is hardware don't-care and
        # must not fault (the vectorized step evaluates both and merges)
        if evaluate_scalar(executor, expr.cond, read) != 0.0:
            return evaluate_scalar(executor, expr.if_true, read)
        return evaluate_scalar(executor, expr.if_false, read)
    raise TypeError(f"unsupported kernel expression {type(expr).__name__}")


def simulate_frame_scalar(simulator: TileCascadeCycleSimulator,
                          architecture: ConeArchitecture,
                          cone_performance: Mapping[int, ConePerformance],
                          frame_width: int, frame_height: int
                          ) -> CycleSimulationResult:
    """:meth:`TileCascadeCycleSimulator.simulate_frame`, tile by tile."""
    offchip = OffChipMemoryModel(simulator.device,
                                 simulator.bytes_per_element)
    onchip = OnChipBufferModel(
        capacity_bytes=simulator.device.onchip_memory_bytes,
        elements_per_cycle=simulator.onchip_port_elements_per_cycle,
        bytes_per_element=simulator.bytes_per_element)

    window = architecture.window_side
    tiles_x = math.ceil(frame_width / window)
    tiles_y = math.ceil(frame_height / window)
    executions_per_level = architecture.executions_per_level()
    read_elements, written_elements = architecture.offchip_elements_per_tile(
        readonly_components=simulator.readonly_components)

    compute_cycles = 0.0
    transfer_cycles = 0.0
    total_cycles = 0.0
    onchip.occupy(architecture.onchip_elements())

    for _tile_index in range(tiles_x * tiles_y):
        load = offchip.transfer(read_elements, "tile input region")
        store = offchip.transfer(written_elements, "tile output window")
        tile_transfer = load.cycles + store.cycles

        tile_compute = 0.0
        for level_index, depth in enumerate(architecture.level_depths):
            perf = cone_performance[depth]
            instances = architecture.cone_counts.get(depth, 1)
            executions = executions_per_level[level_index]
            serialised = math.ceil(executions / max(1, instances))
            geometry = architecture.geometry(depth)
            feed_cycles = onchip.access_cycles(geometry.input_elements)
            tile_compute += perf.latency_cycles + serialised * max(
                feed_cycles, perf.initiation_interval)

        compute_cycles += tile_compute
        transfer_cycles += tile_transfer
        total_cycles += (max(tile_compute, tile_transfer)
                         + simulator.tile_overhead_cycles)

    clock = simulator.device.typical_clock_hz
    seconds = total_cycles / clock
    return CycleSimulationResult(
        architecture_label=architecture.label(),
        tiles=tiles_x * tiles_y,
        total_cycles=total_cycles,
        compute_cycles=compute_cycles,
        transfer_cycles=transfer_cycles,
        offchip_bytes=offchip.total_bytes,
        onchip_peak_bytes=onchip.peak_occupancy_bytes,
        seconds_per_frame=seconds,
        frames_per_second=1.0 / seconds if seconds > 0 else 0.0,
    )
