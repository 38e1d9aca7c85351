"""Simulation substrate: frames, memories, golden model, cone simulators.

The paper evaluates real hardware; this reproduction replaces the board with
(1) a functional simulator that executes the generated cone architecture tile
by tile on synthetic frames and checks it against a software golden model,
and (2) a transaction-level cycle simulator that counts compute and memory
cycles of the tile cascade and cross-checks the analytic throughput model.

Each simulator has one production path: whole-frame array passes, batched
multi-frame runs, and an array-reduced cycle count.  The per-pixel golden
walk and the per-tile cycle walk are test oracles
(``tests/oracles/scalar_simulation.py``) that the property suite pins
bit-identical to those paths.  The functional cone simulator keeps its
tile-by-tile walk (``run_scalar``) because validation cross-checks the
vectorized pass against it on a cropped frame.
:func:`~repro.simulation.validation.validate_workload` packages
simulated-vs-golden evidence as a :class:`ValidationResult` for the
``validate`` service job class.
"""

from repro.simulation.frame import Frame, FrameSet, make_test_frame
from repro.simulation.golden import GoldenExecutor
from repro.simulation.memory import OffChipMemoryModel, OnChipBufferModel, TransferRecord
from repro.simulation.cone_simulator import (
    FunctionalConeSimulator,
    TileCascadeCycleSimulator,
    CycleSimulationResult,
)
from repro.simulation.framebuffer_baseline import (
    FrameBufferArchitecture,
    FrameBufferPerformance,
)
from repro.simulation.validation import ValidationResult, validate_workload

__all__ = [
    "Frame",
    "FrameSet",
    "make_test_frame",
    "GoldenExecutor",
    "OffChipMemoryModel",
    "OnChipBufferModel",
    "TransferRecord",
    "FunctionalConeSimulator",
    "TileCascadeCycleSimulator",
    "CycleSimulationResult",
    "FrameBufferArchitecture",
    "FrameBufferPerformance",
    "ValidationResult",
    "validate_workload",
]
