"""Workload validation: simulated-vs-golden equivalence evidence.

The ``validate`` job class (``python -m repro validate blur --frames
640x480``, ``ReproClient.submit(..., job="validate")``) answers one
question: *does the cone architecture the flow would generate compute the
same frames as the reference algorithm?*  :func:`validate_workload` runs the
vectorized :class:`~repro.simulation.cone_simulator.FunctionalConeSimulator`
and the :class:`~repro.simulation.golden.GoldenExecutor` on the workload's
frame geometry and packages the evidence as a JSON-round-tripping
:class:`ValidationResult`:

* the max absolute simulated-vs-golden error on the interior (the region
  whose dependency cone never touches the frame border — the cone hardware
  has no boundary clamping, so only a border band of width
  ``radius * iterations`` may legitimately differ);
* per-field sha256 digests of both the simulated and the golden output
  frames (everything is seeded and deterministic, so a service-side
  validation is digest-identical to an in-process one);
* a vectorized-vs-scalar bit-identity check against the simulator's
  tile-by-tile ``run_scalar`` walk (performed on a cropped frame so validation stays at
  interactive latency — the full-frame identity is pinned separately by the
  Hypothesis differential suite);
* the frame-buffer baseline's cycle counts for the same scenario, for
  context alongside the functional evidence.

This module imports NumPy + stdlib only (enforced by the import-hygiene
guard in ``scripts/check.sh``); the workload argument is duck-typed so the
simulation layer stays independent of :mod:`repro.api`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.simulation.cone_simulator import FunctionalConeSimulator
from repro.simulation.frame import FrameSet
from repro.simulation.framebuffer_baseline import FrameBufferArchitecture
from repro.simulation.golden import GoldenExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.workload import Workload

#: Side cap of the cropped frame used for the scalar-oracle cross-check.
ORACLE_SIDE_LIMIT = 32


def _frame_digest(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(repr(array.shape).encode())
    digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ValidationResult:
    """Equivalence evidence for one validated workload (JSON round-trips)."""

    kernel_name: str
    kernel_fingerprint: str
    device_name: str
    data_format: str
    frame_width: int
    frame_height: int
    iterations: int
    window_side: int
    mode: str
    seed: int
    tiles: int
    interior_margin: int
    interior_pixels: int
    max_abs_error: float
    max_abs_error_full: float
    simulated_digests: Dict[str, str]
    golden_digests: Dict[str, str]
    oracle_width: int
    oracle_height: int
    vectorized_matches_scalar: bool
    baseline_compute_cycles: float
    baseline_transfer_cycles: float
    baseline_total_cycles: float

    @property
    def passed(self) -> bool:
        """Whether the evidence supports equivalence.

        The interior must match the golden model exactly and the vectorized
        path must be bit-identical to its scalar oracle.
        """
        return self.max_abs_error == 0.0 and self.vectorized_matches_scalar

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "kernel_name": self.kernel_name,
            "kernel_fingerprint": self.kernel_fingerprint,
            "device_name": self.device_name,
            "data_format": self.data_format,
            "frame_width": self.frame_width,
            "frame_height": self.frame_height,
            "iterations": self.iterations,
            "window_side": self.window_side,
            "mode": self.mode,
            "seed": self.seed,
            "tiles": self.tiles,
            "interior_margin": self.interior_margin,
            "interior_pixels": self.interior_pixels,
            "max_abs_error": self.max_abs_error,
            "max_abs_error_full": self.max_abs_error_full,
            "simulated_digests": dict(sorted(self.simulated_digests.items())),
            "golden_digests": dict(sorted(self.golden_digests.items())),
            "oracle_width": self.oracle_width,
            "oracle_height": self.oracle_height,
            "vectorized_matches_scalar": self.vectorized_matches_scalar,
            "baseline_compute_cycles": self.baseline_compute_cycles,
            "baseline_transfer_cycles": self.baseline_transfer_cycles,
            "baseline_total_cycles": self.baseline_total_cycles,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ValidationResult":
        return cls(
            kernel_name=str(payload["kernel_name"]),
            kernel_fingerprint=str(payload["kernel_fingerprint"]),
            device_name=str(payload["device_name"]),
            data_format=str(payload["data_format"]),
            frame_width=int(payload["frame_width"]),
            frame_height=int(payload["frame_height"]),
            iterations=int(payload["iterations"]),
            window_side=int(payload["window_side"]),
            mode=str(payload["mode"]),
            seed=int(payload.get("seed", 0)),
            tiles=int(payload["tiles"]),
            interior_margin=int(payload["interior_margin"]),
            interior_pixels=int(payload["interior_pixels"]),
            max_abs_error=float(payload["max_abs_error"]),
            max_abs_error_full=float(payload["max_abs_error_full"]),
            simulated_digests=dict(payload["simulated_digests"]),
            golden_digests=dict(payload["golden_digests"]),
            oracle_width=int(payload["oracle_width"]),
            oracle_height=int(payload["oracle_height"]),
            vectorized_matches_scalar=bool(
                payload["vectorized_matches_scalar"]),
            baseline_compute_cycles=float(payload["baseline_compute_cycles"]),
            baseline_transfer_cycles=float(payload["baseline_transfer_cycles"]),
            baseline_total_cycles=float(payload["baseline_total_cycles"]),
        )

    def summary(self) -> str:
        lines = [
            f"validate {self.kernel_name}: "
            f"{self.frame_width}x{self.frame_height}, "
            f"{self.iterations} iteration(s), window {self.window_side}, "
            f"mode {self.mode} -> {'PASS' if self.passed else 'FAIL'}",
            f"  interior max |simulated - golden|: {self.max_abs_error:.3e} "
            f"over {self.interior_pixels} pixel(s) "
            f"(border band of width {self.interior_margin} excluded; "
            f"full-frame max {self.max_abs_error_full:.3e})",
            f"  vectorized == scalar oracle on "
            f"{self.oracle_width}x{self.oracle_height}: "
            f"{self.vectorized_matches_scalar}",
            f"  tiles: {self.tiles}; frame-buffer baseline on "
            f"{self.device_name}: compute "
            f"{self.baseline_compute_cycles:.0f} / transfer "
            f"{self.baseline_transfer_cycles:.0f} cycles per frame",
        ]
        for name in sorted(self.simulated_digests):
            lines.append(f"  {name}: simulated "
                         f"{self.simulated_digests[name][:16]}… golden "
                         f"{self.golden_digests[name][:16]}…")
        return "\n".join(lines)


def validate_workload(workload: "Workload", *,
                      window_side: Optional[int] = None,
                      mode: str = "region",
                      seed: int = 0) -> ValidationResult:
    """Simulate ``workload`` and compare against the golden model.

    Pure and deterministic: the same workload (and ``seed``) always yields
    the same :class:`ValidationResult`, wherever it runs — which is what
    makes service-side validation digest-comparable to an in-process run
    and lets identical ``validate`` submissions coalesce.
    """
    if mode not in ("expression", "region"):
        raise ValueError("mode must be 'expression' or 'region'")
    kernel = workload.resolve_kernel()
    window = (max(workload.window_sides) if window_side is None
              else int(window_side))
    if window < 1:
        raise ValueError("window_side must be positive")
    height, width = workload.frame_height, workload.frame_width
    iterations = workload.iterations

    frames = FrameSet.for_kernel(kernel, height, width, seed=seed)
    simulator = FunctionalConeSimulator(kernel, workload.params_dict())
    simulated = simulator.run(frames, iterations, window, mode=mode)
    golden = GoldenExecutor(kernel, workload.params_dict()).run(
        frames, iterations)

    state_fields = kernel.state_field_names
    margin = kernel.radius * iterations
    interior_pixels = 0
    max_err = 0.0
    max_err_full = 0.0
    simulated_digests: Dict[str, str] = {}
    golden_digests: Dict[str, str] = {}
    for name in state_fields:
        sim_data = simulated[name].data
        gold_data = golden[name].data
        diff = np.abs(sim_data - gold_data)
        max_err_full = max(max_err_full, float(diff.max()))
        interior = diff[:, margin:height - margin, margin:width - margin]
        if interior.size:
            interior_pixels += int(interior[0].size)
            max_err = max(max_err, float(interior.max()))
        simulated_digests[name] = _frame_digest(sim_data)
        golden_digests[name] = _frame_digest(gold_data)

    # Bit-identity against the tile-by-tile walk, on a crop so
    # validation of large frames stays at interactive latency (full-frame
    # identity is property-tested separately).
    oracle_h = min(height, ORACLE_SIDE_LIMIT)
    oracle_w = min(width, ORACLE_SIDE_LIMIT)
    oracle_frames = FrameSet.for_kernel(kernel, oracle_h, oracle_w, seed=seed)
    vectorized = simulator.run(oracle_frames, iterations, window, mode=mode)
    scalar = simulator.run_scalar(oracle_frames, iterations, window, mode=mode)
    identical = all(
        np.array_equal(vectorized[name].data, scalar[name].data)
        for name in state_fields)

    baseline = FrameBufferArchitecture(
        kernel, device=workload.device,
        data_format=workload.data_format).evaluate(width, height, iterations)

    tiles_x = -(-width // window)
    tiles_y = -(-height // window)
    return ValidationResult(
        kernel_name=kernel.name,
        kernel_fingerprint=workload.kernel_fingerprint,
        device_name=workload.device.name,
        data_format=workload.data_format.value,
        frame_width=width,
        frame_height=height,
        iterations=iterations,
        window_side=window,
        mode=mode,
        seed=seed,
        tiles=tiles_x * tiles_y,
        interior_margin=margin,
        interior_pixels=interior_pixels,
        max_abs_error=max_err,
        max_abs_error_full=max_err_full,
        simulated_digests=simulated_digests,
        golden_digests=golden_digests,
        oracle_width=oracle_w,
        oracle_height=oracle_h,
        vectorized_matches_scalar=identical,
        baseline_compute_cycles=float(baseline.compute_cycles_per_frame),
        baseline_transfer_cycles=float(baseline.transfer_cycles_per_frame),
        baseline_total_cycles=float(
            max(baseline.compute_cycles_per_frame,
                baseline.transfer_cycles_per_frame)),
    )
