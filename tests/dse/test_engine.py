"""Tests for the columnar design-space engine.

The headline property: the engine and the per-point scalar oracle
(``tests/oracles/scalar_explorer.py``) produce *byte-identical* serialized
``ExplorationResult``s — for the stock throughput model and for backends
that override its per-row hooks, unconstrained and under every constraint
kind.  Vectorization is a performance concern, never a semantics concern.
"""

import json

import numpy as np
import pytest

from repro.architecture.enumeration import ArchitectureSpace, space_table
from repro.dse.constraints import DseConstraints
from repro.dse.engine import batch_backend, explore_columnar, supports_columnar
from repro.dse.explorer import DesignSpaceExplorer
from repro.estimation.throughput_model import ThroughputModel
from repro.ir.operators import DataFormat
from oracles.override_backends import Congested, Halved, Padded, SlowPorts
from oracles.scalar_explorer import explore_scalar


def small_explorer(kernel, **overrides):
    keywords = dict(data_format=DataFormat.FIXED16,
                    window_sides=(1, 2, 3, 4), max_depth=3,
                    max_cones_per_depth=4, synthesize_all=True)
    keywords.update(overrides)
    return DesignSpaceExplorer(kernel, **keywords)


def serialized(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def constraint_kinds(result):
    """One constraint set per kind, cut at the medians of ``result``."""
    areas = sorted(p.area_luts for p in result.design_points)
    rates = sorted(p.frames_per_second for p in result.design_points)
    median_area = areas[len(areas) // 2]
    median_rate = rates[len(rates) // 2]
    return {
        "unconstrained": None,
        "device_only": DseConstraints(device_only=True),
        "max_area_luts": DseConstraints(max_area_luts=median_area),
        "min_frames_per_second": DseConstraints(
            min_frames_per_second=median_rate),
        "all": DseConstraints(max_area_luts=median_area,
                              min_frames_per_second=median_rate,
                              device_only=True),
    }


class TestEngineEquivalence:
    """Engine output must be byte-identical to the scalar oracle's."""

    def test_unconstrained_exploration_is_byte_identical(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        engine = explorer.explore(6, 128, 96)
        scalar = explore_scalar(explorer, 6, 128, 96)
        assert engine.design_points  # non-trivial space
        assert serialized(engine) == serialized(scalar)

    def test_constrained_exploration_is_byte_identical(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        baseline = explorer.explore(6, 128, 96)
        areas = sorted(p.area_luts for p in baseline.design_points)
        rates = sorted(p.frames_per_second for p in baseline.design_points)
        # prune roughly half the space on each objective
        constraints = DseConstraints(
            max_area_luts=areas[len(areas) // 2],
            min_frames_per_second=rates[len(rates) // 2],
            device_only=True)
        engine = explorer.explore(6, 128, 96, constraints=constraints)
        scalar = explore_scalar(explorer, 6, 128, 96,
                                constraints=constraints)
        assert 0 < len(engine.design_points) < len(baseline.design_points)
        assert serialized(engine) == serialized(scalar)

    def test_multi_field_kernel_is_byte_identical(self, chambolle_kernel):
        explorer = small_explorer(chambolle_kernel, window_sides=(1, 2, 3),
                                  max_depth=2, synthesize_all=False)
        engine = explorer.explore(4, 64, 64)
        scalar = explore_scalar(explorer, 4, 64, 64)
        assert serialized(engine) == serialized(scalar)

    def test_pareto_entries_are_indices_into_design_points(self, igf_kernel):
        """The engine hands the *same objects* to the Pareto list, so the
        serialized Pareto set stays index-encoded (not parallel copies)."""
        result = small_explorer(igf_kernel).explore(6, 128, 96)
        payload = result.to_dict()
        assert payload["pareto"]
        assert all(isinstance(entry, int) for entry in payload["pareto"])


class TestConstraintPushdown:
    def test_area_infeasible_rows_are_never_costed(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        characterizations, _ = explorer.characterize_cones(6)
        space = explorer._space(6)
        baseline = explore_columnar(
            space, characterizations, explorer.throughput_model, 128, 96)
        assert baseline.pruned_rows == 0
        cutoff = float(np.median(baseline.area_luts))
        constrained = explore_columnar(
            space, characterizations, explorer.throughput_model, 128, 96,
            constraints=DseConstraints(max_area_luts=cutoff))
        assert constrained.pruned_rows > 0
        assert (constrained.admitted_rows + constrained.pruned_rows
                == baseline.admitted_rows)
        assert (constrained.area_luts <= cutoff).all()


class TestSharedTable:
    def test_row_order_matches_scalar_enumeration(self):
        space = ArchitectureSpace(kernel_name="blur", total_iterations=6,
                                  radius=1, window_sides=(1, 2, 3),
                                  max_depth=3, max_cones_per_depth=4)
        table = space.table()
        rows = [(architecture.window_side,
                 tuple(architecture.level_depths),
                 architecture.cone_counts[max(architecture.level_depths)])
                for architecture in space.architectures()]
        assert table.rows == space.size() == len(rows)
        for index, (window, split, count) in enumerate(rows):
            assert table.window[index] == window
            assert table.splits[table.split_index[index]] == split
            assert table.primary_count[index] == count
            assert table.primary_depth[index] == max(split)

    def test_table_is_shared_across_kernels_devices_and_formats(self):
        """The enumeration depends only on the shape knobs, so sweeps over
        devices/formats/kernels cost one table, not one per workload."""
        shape = dict(total_iterations=6, window_sides=(1, 2, 3),
                     max_depth=3, max_cones_per_depth=4)
        blur = ArchitectureSpace(kernel_name="blur", radius=1, **shape)
        chamb = ArchitectureSpace(kernel_name="chamb", radius=2,
                                  components=3, **shape)
        assert space_table(blur) is space_table(chamb)
        other = ArchitectureSpace(kernel_name="blur", radius=1,
                                  total_iterations=7, window_sides=(1, 2, 3),
                                  max_depth=3, max_cones_per_depth=4)
        assert space_table(blur) is not space_table(other)

    def test_table_arrays_are_read_only(self):
        space = ArchitectureSpace(kernel_name="blur", total_iterations=6,
                                  radius=1, window_sides=(1, 2),
                                  max_depth=2, max_cones_per_depth=2)
        table = space.table()
        with pytest.raises(ValueError):
            table.window[0] = 99


class TestBackendCompatibility:
    def test_builtin_model_is_columnar_capable(self):
        assert supports_columnar(ThroughputModel())
        assert supports_columnar(SlowPorts())
        model = ThroughputModel()
        assert batch_backend(model, None) is model

    @pytest.mark.parametrize("backend", [ThroughputModel, Halved, Congested,
                                         Padded, SlowPorts])
    def test_every_backend_matches_the_oracle_under_every_constraint(
            self, igf_kernel, backend):
        explorer = small_explorer(igf_kernel,
                                  throughput_model_factory=backend)
        baseline = explorer.explore(6, 128, 96)
        for kind, constraints in constraint_kinds(baseline).items():
            engine = explorer.explore(6, 128, 96, constraints=constraints)
            oracle = explore_scalar(explorer, 6, 128, 96,
                                    constraints=constraints)
            assert engine.design_points, kind
            assert serialized(engine) == serialized(oracle), kind

    def test_override_of_evaluate_is_honored(self, igf_kernel):
        """A backend that overrides ``evaluate`` is driven row by row
        through the adapter instead of the stock batch formula."""
        assert not supports_columnar(Halved())
        auto = small_explorer(igf_kernel,
                              throughput_model_factory=Halved).explore(
                                  6, 128, 96)
        stock = small_explorer(igf_kernel).explore(6, 128, 96)
        assert (auto.design_points[0].seconds_per_frame
                == 2.0 * stock.design_points[0].seconds_per_frame)

    def test_override_of_compute_cycles_hook_is_honored(self, igf_kernel):
        """``compute_cycles_per_tile`` is a public hook ``evaluate`` calls;
        a subclass override must be honored, never silently replaced by
        the stock batch accumulation."""
        assert not supports_columnar(Congested())
        auto = small_explorer(igf_kernel,
                              throughput_model_factory=Congested).explore(
                                  6, 128, 96)
        stock = small_explorer(igf_kernel).explore(6, 128, 96)
        assert (auto.design_points[0].performance.compute_cycles_per_tile
                == 1.5 * stock.design_points[0].performance
                .compute_cycles_per_tile)

    def test_override_of_estimate_batch_alone_is_never_consulted(
            self, igf_kernel):
        """A lone ``estimate_batch`` override cannot be proven consistent
        with per-point evaluation, so the adapter costs rows through
        ``evaluate`` and the override is simply never consulted."""
        assert not supports_columnar(Padded())
        auto = small_explorer(igf_kernel,
                              throughput_model_factory=Padded).explore(
                                  6, 128, 96)
        assert serialized(auto) == serialized(
            small_explorer(igf_kernel).explore(6, 128, 96))

    def test_interval_hook_override_keeps_the_batch_path(self, igf_kernel):
        """The fine-grained hooks are invoked on the instance by the batch
        formula too, so overriding them needs no adapter."""
        auto = small_explorer(igf_kernel,
                              throughput_model_factory=SlowPorts).explore(
                                  6, 128, 96)
        stock = small_explorer(igf_kernel).explore(6, 128, 96)
        assert (auto.design_points[0].seconds_per_frame
                > stock.design_points[0].seconds_per_frame)
