"""Throughput backends that override the stock model's hooks.

The engines must honor every override exactly as per-point evaluation
would; the differential tests run each of these against the scalar oracle.
"""

import dataclasses

from repro.estimation.throughput_model import ThroughputModel


class Halved(ThroughputModel):
    """Overrides ``evaluate``: every frame takes twice as long."""

    def evaluate(self, architecture, cone_performance, frame_width,
                 frame_height):
        performance = super().evaluate(
            architecture, cone_performance, frame_width, frame_height)
        return dataclasses.replace(
            performance,
            seconds_per_frame=performance.seconds_per_frame * 2.0,
            frames_per_second=performance.frames_per_second / 2.0)


class Congested(ThroughputModel):
    """Overrides the ``compute_cycles_per_tile`` hook ``evaluate`` calls."""

    def compute_cycles_per_tile(self, architecture, cone_performance):
        return 1.5 * super().compute_cycles_per_tile(architecture,
                                                     cone_performance)


class Padded(ThroughputModel):
    """Overrides ``estimate_batch`` alone, inconsistently with ``evaluate``."""

    def estimate_batch(self, architecture, cone_performance, frame_width,
                       frame_height, primary_counts):
        columns = dict(super().estimate_batch(
            architecture, cone_performance, frame_width, frame_height,
            primary_counts))
        columns["seconds_per_frame"] = columns["seconds_per_frame"] * 1.25
        return columns


class SlowPorts(ThroughputModel):
    """Overrides a fine-grained hook both paths call on the instance."""

    def execution_interval_cycles(self, architecture, depth, performance):
        return 2.0 * super().execution_interval_cycles(
            architecture, depth, performance)
