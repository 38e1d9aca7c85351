"""Unit tests for the FPGA device models."""

import dataclasses

import pytest

from repro.ir.operators import ResourceVector
from repro.synth.fpga_device import (
    DEVICE_CATALOG,
    FpgaDevice,
    VIRTEX2P_XC2VP30,
    VIRTEX6_XC6VLX760,
    device_by_name,
)


def test_catalog_contains_paper_devices():
    assert "XC6VLX760" in DEVICE_CATALOG
    assert "XC2VP30" in DEVICE_CATALOG


def test_device_lookup_case_insensitive():
    assert device_by_name("xc6vlx760") is VIRTEX6_XC6VLX760
    with pytest.raises(KeyError):
        device_by_name("XC7Z020")


def test_virtex6_is_much_larger_than_virtex2pro():
    assert VIRTEX6_XC6VLX760.slice_luts > 10 * VIRTEX2P_XC2VP30.slice_luts
    assert (VIRTEX6_XC6VLX760.onchip_memory_bytes
            > VIRTEX2P_XC2VP30.onchip_memory_bytes)


def test_capacity_vector_and_usable_fraction():
    device = VIRTEX6_XC6VLX760
    assert device.capacity.luts == device.slice_luts
    assert device.usable_capacity.luts == pytest.approx(
        device.slice_luts * device.usable_fraction)


def test_paper_clock_frequency():
    """The design-space tables of the paper run the Virtex-6 at 97.16 MHz."""
    assert VIRTEX6_XC6VLX760.typical_clock_hz == pytest.approx(97.16e6, rel=1e-3)


def test_max_instances():
    device = VIRTEX6_XC6VLX760
    unit = ResourceVector(luts=100_000, ffs=10_000)
    assert device.max_instances(unit) == 4
    tiny = ResourceVector(luts=1)
    assert device.max_instances(tiny) > 100_000
    assert device.max_instances(ResourceVector()) == 0


def test_onchip_memory_too_small_for_a_1024x768_frame():
    """The premise of the paper: whole frames do not fit in on-chip memory."""
    frame_bytes = 1024 * 768 * 4
    assert VIRTEX6_XC6VLX760.onchip_memory_bytes < 2 * frame_bytes
    assert VIRTEX2P_XC2VP30.onchip_memory_bytes < frame_bytes


#: One malformed value per checked field (service clients send full models).
MALFORMED_FIELDS = [
    ("typical_clock_hz", 0.0),
    ("typical_clock_hz", -97e6),
    ("typical_clock_hz", float("inf")),
    ("offchip_bandwidth_bytes_per_s", 0.0),
    ("offchip_bandwidth_bytes_per_s", float("nan")),
    ("slice_luts", -1),
    ("slice_ffs", -1),
    ("dsp_slices", -1),
    ("bram_kbits", -1),
    ("slice_luts", float("inf")),
    ("usable_fraction", -0.5),
    ("usable_fraction", 0.0),
    ("usable_fraction", 1.5),
    ("usable_fraction", float("nan")),
]


@pytest.mark.parametrize("field,value", MALFORMED_FIELDS)
def test_malformed_device_rejected_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(VIRTEX6_XC6VLX760, **{field: value})
    data = {**VIRTEX6_XC6VLX760.to_dict(), field: value}
    with pytest.raises(ValueError, match=field):
        FpgaDevice.from_dict(data)


@pytest.mark.parametrize("changes", [
    {"usable_fraction": 1.0},
    {"usable_fraction": 0.70},
    {"usable_fraction": 0.90},
    {"dsp_slices": 0, "bram_kbits": 0},
])
def test_boundary_devices_still_construct(changes):
    device = dataclasses.replace(VIRTEX6_XC6VLX760, **changes)
    assert FpgaDevice.from_dict(device.to_dict()) == device
