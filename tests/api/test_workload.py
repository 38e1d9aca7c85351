"""Unit tests for the declarative Workload spec."""

import pytest

from repro.api import FlowOptions, Workload
from repro.dse.constraints import DseConstraints
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import VIRTEX2P_XC2VP30


class TestConstruction:
    def test_from_algorithm_resolves_kernel_and_iterations(self):
        workload = Workload.from_algorithm("blur")
        assert workload.name == "blur"
        assert workload.iterations == 10  # the registry default
        assert workload.resolve_kernel().name == "blur"

    def test_from_c_source(self):
        from repro.algorithms.gaussian import IGF_C_SOURCE
        workload = Workload.from_c(IGF_C_SOURCE)
        assert workload.name == "blur"
        assert workload.iterations == 10  # generic default

    def test_from_kernel(self, igf_kernel):
        workload = Workload.from_kernel(igf_kernel, iterations=4)
        assert workload.iterations == 4
        assert workload.resolve_kernel() is igf_kernel

    def test_needs_exactly_one_source(self, igf_kernel):
        with pytest.raises(ValueError, match="exactly one"):
            Workload(algorithm="blur", kernel=igf_kernel)
        with pytest.raises(ValueError, match="exactly one"):
            Workload()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            Workload.from_algorithm("definitely-not-registered")

    def test_window_sides_normalized(self):
        workload = Workload.from_algorithm("blur", window_sides=[3, 1, 3, 2])
        assert workload.window_sides == (1, 2, 3)

    @pytest.mark.parametrize("value", [True, 2.5, 1.0, "4"])
    def test_chunk_rows_must_be_a_positive_int(self, value):
        with pytest.raises(ValueError, match="chunk_rows"):
            Workload.from_algorithm("blur", chunk_rows=value)

    @pytest.mark.parametrize("field", [
        "frame_width", "frame_height", "iterations", "max_depth",
        "max_cones_per_depth", "calibration_windows_per_depth",
        "onchip_port_elements_per_cycle"])
    @pytest.mark.parametrize("value", [True, 2.5, "4", 0, -3])
    def test_integer_knobs_must_be_positive_ints(self, field, value):
        with pytest.raises(ValueError, match=field):
            Workload.from_algorithm("blur", **{field: value})

    @pytest.mark.parametrize("sides", [(1.5,), (1, 0), (2, -1), (True,),
                                       ("3",)])
    def test_window_sides_entries_must_be_positive_ints(self, sides):
        with pytest.raises(ValueError, match="window_sides"):
            Workload.from_algorithm("blur", window_sides=sides)

    def test_iterations_none_keeps_the_algorithm_default(self):
        assert Workload.from_algorithm("blur", iterations=None).iterations \
            == Workload.from_algorithm("blur").iterations


class TestHashingAndEquality:
    def test_hashable_and_equal_across_instances(self):
        a = Workload.from_algorithm("blur", frame_width=640, frame_height=480)
        b = Workload.from_algorithm("blur", frame_width=640, frame_height=480)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_structurally_identical_kernels_share_fingerprint(self, igf_kernel):
        from_registry = Workload.from_algorithm("blur")
        from_object = Workload.from_kernel(igf_kernel)
        assert (from_registry.kernel_fingerprint
                == from_object.kernel_fingerprint)

    def test_params_normalized_regardless_of_input_shape(self, igf_kernel):
        """An unsorted/int-valued params tuple must match the dict form."""
        as_tuple = Workload.from_kernel(igf_kernel,
                                        params=(("b", 2), ("a", 1)))
        as_dict = Workload.from_kernel(igf_kernel,
                                       params={"a": 1.0, "b": 2.0})
        assert as_tuple == as_dict
        assert as_tuple.kernel_fingerprint == as_dict.kernel_fingerprint
        assert (as_tuple.characterization_key()
                == as_dict.characterization_key())

    def test_different_kernels_differ(self):
        blur = Workload.from_algorithm("blur")
        jacobi = Workload.from_algorithm("jacobi")
        assert blur != jacobi
        assert blur.kernel_fingerprint != jacobi.kernel_fingerprint

    def test_replace_recomputes_fingerprint(self):
        blur = Workload.from_algorithm("blur")
        other = blur.replace(algorithm="jacobi")
        assert other.name == "jacobi"
        assert other.kernel_fingerprint != blur.kernel_fingerprint

    def test_replace_can_switch_kernel_source(self, igf_kernel):
        from repro.algorithms.jacobi import JACOBI_C_SOURCE
        from_registry = Workload.from_algorithm("blur")
        from_c = from_registry.replace(c_source=JACOBI_C_SOURCE)
        assert from_c.algorithm is None and from_c.name == "jacobi"
        from_obj = from_c.replace(kernel=igf_kernel)
        assert from_obj.c_source is None and from_obj.name == "blur"

    def test_replace_algorithm_resets_iterations_to_new_default(self):
        blur = Workload.from_algorithm("blur")          # resolves to 10
        jacobi = blur.replace(algorithm="jacobi")
        assert jacobi.iterations == 16                  # jacobi's default
        pinned = blur.replace(algorithm="jacobi", iterations=7)
        assert pinned.iterations == 7


class TestCharacterizationKey:
    def test_frame_and_constraints_do_not_change_the_key(self):
        a = Workload.from_algorithm("blur", frame_width=640, frame_height=480)
        b = Workload.from_algorithm(
            "blur", frame_width=1024, frame_height=768,
            constraints=DseConstraints(device_only=True))
        assert a.characterization_key() == b.characterization_key()

    def test_same_named_device_variants_do_not_alias(self):
        """A what-if variant of a device (same part name, different clock)
        must get its own characterization-cache entry."""
        import dataclasses
        from repro.synth.fpga_device import VIRTEX6_XC6VLX760
        faster = dataclasses.replace(
            VIRTEX6_XC6VLX760,
            typical_clock_hz=2 * VIRTEX6_XC6VLX760.typical_clock_hz)
        stock = Workload.from_algorithm("blur")
        what_if = stock.replace(device=faster)
        assert stock.characterization_key() != what_if.characterization_key()

    def test_device_and_format_change_the_key(self):
        base = Workload.from_algorithm("blur")
        other_device = Workload.from_algorithm("blur",
                                               device=VIRTEX2P_XC2VP30)
        other_format = Workload.from_algorithm(
            "blur", data_format=DataFormat.FIXED32)
        assert base.characterization_key() != other_device.characterization_key()
        assert base.characterization_key() != other_format.characterization_key()


class TestOptionsBridge:
    def test_options_round_trip(self, igf_kernel):
        options = FlowOptions(frame_width=256, frame_height=128, iterations=6,
                              window_sides=(1, 2, 4), max_depth=3,
                              synthesize_all=True)
        workload = Workload.from_options(igf_kernel, options)
        assert workload.options() == options

    def test_workload_serialization_round_trip(self, igf_kernel):
        workload = Workload.from_kernel(
            igf_kernel, iterations=4, window_sides=(1, 2),
            constraints=DseConstraints(max_area_luts=1e5))
        restored = Workload.from_dict(workload.to_dict())
        assert restored == workload
        assert restored.characterization_key() == workload.characterization_key()


class TestStreamJobsKeyIsIgnored:
    def test_payload_with_stream_jobs_is_the_same_workload(self, tmp_path):
        """A streamed exploration is one fold, so a payload still carrying
        ``stream_jobs`` names the same workload as one without it: same
        identity, same serialized result and the same store key (the
        second session is served the first one's artifact)."""
        from repro.api import Session
        from repro.api.store import ArtifactStore

        workload = Workload.from_algorithm(
            "blur", iterations=4, window_sides=(1, 2, 3), max_depth=2,
            max_cones_per_depth=4, frame_width=128, frame_height=96,
            stream=True, chunk_rows=2)
        payload = workload.to_dict()
        payload["stream_jobs"] = 4
        tagged = Workload.from_dict(payload)
        assert tagged == workload and hash(tagged) == hash(workload)
        assert tagged.to_dict() == workload.to_dict()

        reference = Session(store=str(tmp_path)).run(workload).to_dict()
        warm = Session(store=str(tmp_path))
        assert warm.run(tagged).to_dict() == reference
        assert reference["options"]["stream_jobs"] is None
        assert warm.stats.store_disk_hits == 1
        assert warm.stats.store_writes == 0
        assert ArtifactStore(str(tmp_path)).describe()["kinds"]["result"][
            "artifacts"] == 1
