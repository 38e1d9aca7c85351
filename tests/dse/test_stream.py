"""Tests for the out-of-core chunked exploration engine and its
throughput-side pushdown.

The headline property: whatever the chunk size {1 row, group-sized, the
whole space} and whatever the chunk order, ``explore_stream`` produces the
identical Pareto frontier — same global rows, byte-identical serialized
design points — as the in-memory ``explore_columnar`` run (itself pinned
to the scalar oracle in ``test_engine.py``); its ``pruned_rows``
additionally counts the rows the min-fps suffix pushdown skipped before
costing.
"""

import json
import random

import numpy as np
import pytest

from repro.dse.constraints import DseConstraints
from repro.dse.engine import explore_columnar, shared_table_stats
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult
from repro.dse.stream import (
    DEFAULT_CHUNK_ROWS,
    SpaceChunk,
    StreamingFrontier,
    clear_stream_caches,
    explore_stream,
    plan_chunks,
    reset_stream_stats,
    stream_stats,
)
from repro.estimation.throughput_model import ThroughputModel
from repro.ir.operators import DataFormat
from oracles.override_backends import Congested, Halved
from oracles.scalar_explorer import explore_scalar


def small_explorer(kernel, **overrides):
    keywords = dict(data_format=DataFormat.FIXED16,
                    window_sides=(1, 2, 3, 4), max_depth=3,
                    max_cones_per_depth=6, synthesize_all=True)
    keywords.update(overrides)
    return DesignSpaceExplorer(kernel, **keywords)


def serialized_points(points):
    return json.dumps([p.to_dict() for p in points], sort_keys=True)


@pytest.fixture(autouse=True)
def fresh_mask_cache():
    clear_stream_caches()
    yield
    clear_stream_caches()


@pytest.fixture
def evaluation_inputs(igf_kernel):
    explorer = small_explorer(igf_kernel)
    characterizations, _ = explorer.characterize_cones(6)
    space = explorer._space(6)
    usable = explorer.device.usable_capacity.luts
    return explorer, space, characterizations, usable


def constraint_grid(baseline):
    areas = sorted(baseline.area_luts.tolist())
    return [
        None,
        DseConstraints(device_only=True),
        DseConstraints(max_area_luts=areas[len(areas) // 2],
                       min_frames_per_second=1.0, device_only=True),
    ]


class TestDigestIdentity:
    def test_identical_to_columnar_across_chunk_sizes_and_orders(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = explore_columnar(space, characterizations,
                                    explorer.throughput_model, 128, 96)
        group_rows = space.max_cones_per_depth
        for constraints in constraint_grid(baseline):
            oracle = explore_columnar(
                space, characterizations, explorer.throughput_model,
                128, 96, constraints, usable)
            oracle_rows = oracle.row_index[oracle.pareto_index]
            oracle_digest = serialized_points(oracle.pareto)
            for chunk_rows in (1, group_rows, space.size()):
                for seed in (None, 7, 23):
                    order = None
                    if seed is not None:
                        order = list(range(len(plan_chunks(space,
                                                           chunk_rows))))
                        random.Random(seed).shuffle(order)
                    streamed = explore_stream(
                        space, characterizations, explorer.throughput_model,
                        128, 96, constraints, usable,
                        chunk_rows=chunk_rows, chunk_order=order)
                    assert np.array_equal(streamed.pareto_row_index,
                                          oracle_rows)
                    assert (serialized_points(streamed.pareto)
                            == oracle_digest)
                    # the oracle never counts fps-filtered rows as pruned;
                    # the stream pushes the floor down and does
                    assert (streamed.pruned_rows
                            - streamed.throughput_pruned_rows
                            == oracle.pruned_rows)
                    assert streamed.admitted_rows == oracle.admitted_rows

    def test_peak_chunk_never_exceeds_the_bound(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  usable_luts=usable, chunk_rows=4)
        assert 0 < streamed.peak_chunk_rows <= 4
        assert streamed.chunks_total == len(plan_chunks(space, 4))


class TestConstraintPushdown:
    def test_pruned_rows_match_engine_and_skip_materialization(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = explore_columnar(space, characterizations,
                                    explorer.throughput_model, 128, 96)
        cutoff = float(np.median(baseline.area_luts))
        constraints = DseConstraints(max_area_luts=cutoff)
        oracle = explore_columnar(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  constraints, usable)
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  constraints, usable, chunk_rows=2)
        assert streamed.pruned_rows == oracle.pruned_rows > 0
        # whole chunks beyond the admitted prefix were never materialized
        assert streamed.chunks_skipped > 0
        assert (streamed.admitted_rows + streamed.pruned_rows
                == baseline.admitted_rows)

    def test_unreachable_fps_floor_prunes_everything_before_costing(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        constraints = DseConstraints(min_frames_per_second=1e12)
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  constraints, usable)
        assert streamed.pruned_rows == space.size()
        assert streamed.throughput_pruned_rows == space.size()
        assert streamed.admitted_rows == 0
        assert streamed.pareto == []
        # nothing survived the suffix probe, so no chunk was ever costed
        assert streamed.chunks_skipped == streamed.chunks_total
        assert streamed.peak_chunk_rows == 0


class TestThroughputPushdown:
    """The min-fps suffix probe admits exactly what post-cost filtering
    admits (satellite: differential on 3 constraint sets)."""

    def fps_floors(self, baseline):
        fps = np.sort(1.0 / baseline.seconds_per_frame)
        return [float(fps[fps.size // 4]), float(np.median(fps)),
                float(fps[(9 * fps.size) // 10])]

    def test_admits_exactly_the_post_cost_filter_rows(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = explore_columnar(space, characterizations,
                                    explorer.throughput_model, 128, 96)
        area_cap = float(np.median(baseline.area_luts))
        for floor in self.fps_floors(baseline):
            for extra in ({}, {"max_area_luts": area_cap,
                               "device_only": True}):
                constraints = DseConstraints(min_frames_per_second=floor,
                                             **extra)
                no_fps = explore_columnar(
                    space, characterizations, explorer.throughput_model,
                    128, 96, DseConstraints(**extra), usable)
                oracle = explore_columnar(
                    space, characterizations, explorer.throughput_model,
                    128, 96, constraints, usable)
                streamed = explore_stream(
                    space, characterizations, explorer.throughput_model,
                    128, 96, constraints, usable, chunk_rows=2)
                assert streamed.admitted_rows == oracle.admitted_rows
                assert np.array_equal(
                    streamed.pareto_row_index,
                    oracle.row_index[oracle.pareto_index])
                assert (serialized_points(streamed.pareto)
                        == serialized_points(oracle.pareto))
                # the pushdown pruned exactly the rows the oracle costed
                # and then dropped to the post-cost fps mask
                assert (streamed.throughput_pruned_rows
                        == no_fps.admitted_rows - oracle.admitted_rows)
                assert (streamed.admitted_rows + streamed.pruned_rows
                        == space.size())

    def test_fps_floor_raises_pruned_rows_over_the_oracle(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = explore_columnar(space, characterizations,
                                    explorer.throughput_model, 128, 96)
        constraints = DseConstraints(
            min_frames_per_second=self.fps_floors(baseline)[1])
        oracle = explore_columnar(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  constraints, usable)
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  constraints, usable)
        assert streamed.throughput_pruned_rows > 0
        assert streamed.pruned_rows > oracle.pruned_rows == 0
        assert stream_stats()["throughput_pruned_rows"] > 0

    def test_non_monotone_model_falls_back_to_post_cost_filter(
            self, evaluation_inputs):
        class NegativeInterval(ThroughputModel):
            """Columnar-capable, but the monotonicity argument is void."""

            def execution_interval_cycles(self, architecture, depth,
                                          performance):
                return -super().execution_interval_cycles(
                    architecture, depth, performance)

        explorer, space, characterizations, usable = evaluation_inputs
        model = NegativeInterval(device=explorer.device,
                                 data_format=explorer.data_format)
        constraints = DseConstraints(min_frames_per_second=1.0)
        oracle = explore_columnar(space, characterizations, model,
                                  128, 96, constraints, usable)
        streamed = explore_stream(space, characterizations, model,
                                  128, 96, constraints, usable,
                                  chunk_rows=3)
        assert streamed.throughput_pruned_rows == 0  # probe declined
        assert streamed.admitted_rows == oracle.admitted_rows
        assert (serialized_points(streamed.pareto)
                == serialized_points(oracle.pareto))

    def test_fps_floor_change_still_reuses_cached_masks(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = explore_columnar(space, characterizations,
                                    explorer.throughput_model, 128, 96)
        floors = self.fps_floors(baseline)
        first = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[0]), usable)
        second = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[2]), usable)
        assert not first.mask_cache_hit
        assert second.mask_cache_hit  # the floor is not in the mask key
        oracle = explore_columnar(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[2]), usable)
        assert (serialized_points(second.pareto)
                == serialized_points(oracle.pareto))


class TestChunkOrder:
    """The one in-process fold is bit-identical whatever order it visits
    the chunk schedule in."""

    def test_bit_identity_across_chunk_orders(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        constraints = DseConstraints(device_only=True)
        serial = explore_stream(space, characterizations,
                                explorer.throughput_model, 128, 96,
                                constraints, usable, chunk_rows=2)
        digest = serialized_points(serial.pareto)
        order = list(range(len(plan_chunks(space, 2))))
        for seed in (11, 29):
            random.Random(seed).shuffle(order)
            streamed = explore_stream(
                space, characterizations, explorer.throughput_model,
                128, 96, constraints, usable, chunk_rows=2,
                chunk_order=order)
            assert np.array_equal(streamed.pareto_row_index,
                                  serial.pareto_row_index)
            assert serialized_points(streamed.pareto) == digest
            assert streamed.admitted_rows == serial.admitted_rows
            assert streamed.pruned_rows == serial.pruned_rows
            assert streamed.chunks_skipped == serial.chunks_skipped

    def test_stream_never_touches_the_table_cache(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        reset_stream_stats()
        before = shared_table_stats()
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  usable_luts=usable, chunk_rows=2)
        after = shared_table_stats()
        assert (after["hits"], after["misses"]) == (before["hits"],
                                                    before["misses"])
        stats = stream_stats()
        assert stats["runs"] == 1
        assert (stats["chunks_materialized"]
                == streamed.chunks_total - streamed.chunks_skipped > 0)


class TestMaskCache:
    def test_frame_change_reuses_masks(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        constraints = DseConstraints(device_only=True)
        first = explore_stream(space, characterizations,
                               explorer.throughput_model, 128, 96,
                               constraints, usable)
        second = explore_stream(space, characterizations,
                                explorer.throughput_model, 640, 480,
                                constraints, usable)
        assert not first.mask_cache_hit
        assert second.mask_cache_hit
        stats = stream_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # the reused run is still digest-identical to its own oracle
        oracle = explore_columnar(space, characterizations,
                                  explorer.throughput_model, 640, 480,
                                  constraints, usable)
        assert (serialized_points(second.pareto)
                == serialized_points(oracle.pareto))

    def test_area_constraint_change_recomputes(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        explore_stream(space, characterizations, explorer.throughput_model,
                       128, 96, DseConstraints(device_only=True), usable)
        tightened = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(device_only=True, max_area_luts=50_000.0), usable)
        assert not tightened.mask_cache_hit

    def test_clearing_the_cache_forces_recompute(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        for _ in range(2):
            clear_stream_caches()
            streamed = explore_stream(space, characterizations,
                                      explorer.throughput_model, 128, 96,
                                      usable_luts=usable)
            assert not streamed.mask_cache_hit
        assert stream_stats()["entries"] == 1


class TestChunkPlanning:
    def test_chunks_cover_the_space_exactly_once(self, evaluation_inputs):
        _, space, _, _ = evaluation_inputs
        for chunk_rows in (1, 4, 1000):
            chunks = plan_chunks(space, chunk_rows)
            rows = sorted(row
                          for chunk in chunks
                          for row in range(chunk.base_row + chunk.count_start,
                                           chunk.base_row + chunk.count_stop))
            assert rows == list(range(space.size()))
            assert all(chunk.rows <= chunk_rows for chunk in chunks)

    def test_counts_are_dtype_tightened(self):
        chunk = SpaceChunk(window=1, window_index=0, split=(1,),
                           split_index=0, base_row=0, count_start=2,
                           count_stop=5)
        counts = chunk.counts()
        assert counts.dtype == np.int32
        assert counts.tolist() == [3, 4, 5]

    def test_invalid_arguments_rejected(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        with pytest.raises(ValueError, match="chunk_rows"):
            plan_chunks(space, 0)
        with pytest.raises(ValueError, match="permutation"):
            explore_stream(space, characterizations,
                           explorer.throughput_model, 128, 96,
                           usable_luts=usable, chunk_order=[0, 0, 1])


class TestExplorerIntegration:
    def test_stream_true_matches_columnar_pareto(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        streamed = explorer.explore(6, 128, 96, stream=True, chunk_rows=4)
        columnar = explorer.explore(6, 128, 96)
        assert (serialized_points(streamed.pareto)
                == serialized_points(columnar.pareto))
        assert streamed.streaming is not None
        assert streamed.streaming["chunk_rows"] == 4
        assert columnar.streaming is None
        # streamed results materialize only the frontier
        assert streamed.design_points == streamed.pareto
        payload = streamed.to_dict()
        assert all(isinstance(entry, int) for entry in payload["pareto"])

    def test_streaming_result_round_trips_through_json(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        streamed = explorer.explore(6, 128, 96, stream=True)
        restored = ExplorationResult.from_dict(
            json.loads(json.dumps(streamed.to_dict())))
        assert restored.streaming == streamed.streaming
        assert (serialized_points(restored.pareto)
                == serialized_points(streamed.pareto))

    def test_auto_select_streams_above_the_threshold(self, igf_kernel,
                                                     monkeypatch):
        import repro.dse.explorer as explorer_module
        explorer = small_explorer(igf_kernel)
        monkeypatch.setattr(explorer_module, "STREAM_AUTO_THRESHOLD", 10)
        auto = explorer.explore(6, 128, 96)
        assert auto.streaming is not None
        monkeypatch.setattr(explorer_module, "STREAM_AUTO_THRESHOLD",
                            10**9)
        in_memory = explorer.explore(6, 128, 96)
        assert in_memory.streaming is None
        assert (serialized_points(auto.pareto)
                == serialized_points(in_memory.pareto))

    def test_stream_on_override_backends_matches_the_oracle_pareto(
            self, igf_kernel):
        for backend in (Halved, Congested):
            explorer = small_explorer(igf_kernel,
                                      throughput_model_factory=backend)
            unconstrained = explore_scalar(explorer, 6, 128, 96)
            rates = sorted(p.frames_per_second
                           for p in unconstrained.design_points)
            for constraints in (None, DseConstraints(
                    min_frames_per_second=rates[len(rates) // 2],
                    device_only=True)):
                streamed = explorer.explore(6, 128, 96, constraints,
                                            stream=True, chunk_rows=4)
                oracle = explore_scalar(explorer, 6, 128, 96, constraints)
                assert oracle.pareto
                assert (serialized_points(streamed.pareto)
                        == serialized_points(oracle.pareto))
                # the adapter declines the min-fps suffix pushdown
                assert streamed.streaming["throughput_pruned_rows"] == 0

    def test_zero_chunk_rows_is_rejected_not_defaulted(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        with pytest.raises(ValueError, match="chunk_rows"):
            explorer.explore(6, 128, 96, stream=True, chunk_rows=0)
        default = explorer.explore(6, 128, 96, stream=True, chunk_rows=None)
        assert default.streaming["chunk_rows"] == DEFAULT_CHUNK_ROWS


class TestFrontierStateBound:
    def test_state_is_bounded_by_the_frontier_not_the_space(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  usable_luts=usable, chunk_rows=1)
        assert streamed.frontier_peak < space.size()
        assert streamed.frontier_peak >= len(streamed.pareto)

    def test_incremental_updates_accept_empty_chunks(self):
        frontier = StreamingFrontier()
        frontier.update(np.empty(0), np.empty(0),
                        np.empty(0, dtype=np.int64))
        assert len(frontier) == 0
