"""FPGA device models.

Capacities follow the public Xilinx datasheets for the devices the paper
uses: a Virtex-6 XC6VLX760 for the main experiments and a Virtex-II Pro for
the comparison against the literature design of Cope [16].  Only the
quantities the flow consumes are modelled: programmable-logic capacity,
on-chip memory, DSP count, a realistic system clock for synthesised stencil
datapaths, and the off-chip memory bandwidth of a typical board built around
the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.ir.operators import ResourceVector


@dataclass(frozen=True)
class FpgaDevice:
    """Resource and bandwidth budget of one FPGA device (plus its board)."""

    name: str
    family: str
    slice_luts: int
    slice_ffs: int
    dsp_slices: int
    bram_kbits: int
    #: Clock the synthesised cone datapaths close timing at (Hz).  The paper's
    #: design-space tables use 97.16 MHz on the Virtex-6.
    typical_clock_hz: float
    #: Sustained off-chip memory bandwidth of the reference board (bytes/s).
    offchip_bandwidth_bytes_per_s: float
    #: Fraction of the device the tools can actually fill with the cone
    #: datapath (routing, I/O and control overhead are kept out of reach).
    usable_fraction: float = 0.85

    def __post_init__(self) -> None:
        # a device can arrive from a service client as a full model, so a
        # bad one must fail here rather than deep inside the flow
        for name in ("typical_clock_hz", "offchip_bandwidth_bytes_per_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"device {self.name!r}: {name} must be "
                                 f"finite and > 0, got {value!r}")
        for name in ("slice_luts", "slice_ffs", "dsp_slices", "bram_kbits"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"device {self.name!r}: {name} must be "
                                 f"finite and >= 0, got {value!r}")
        if not 0 < self.usable_fraction <= 1:
            raise ValueError(f"device {self.name!r}: usable_fraction must be "
                             f"in (0, 1], got {self.usable_fraction!r}")

    @property
    def capacity(self) -> ResourceVector:
        return ResourceVector(
            luts=self.slice_luts,
            ffs=self.slice_ffs,
            dsps=self.dsp_slices,
            brams=self.bram_kbits / 18.0,
        )

    @property
    def usable_capacity(self) -> ResourceVector:
        return self.capacity.scale(self.usable_fraction)

    @property
    def onchip_memory_bytes(self) -> int:
        return int(self.bram_kbits * 1024 // 8)

    def max_instances(self, unit: ResourceVector) -> int:
        """How many copies of ``unit`` fit in the usable device capacity."""
        budget = self.usable_capacity
        limits = []
        for used, avail in ((unit.luts, budget.luts), (unit.ffs, budget.ffs),
                            (unit.dsps, budget.dsps), (unit.brams, budget.brams)):
            if used > 0:
                limits.append(int(avail // used))
        return min(limits) if limits else 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (full model, so custom devices survive)."""
        return {
            "name": self.name,
            "family": self.family,
            "slice_luts": self.slice_luts,
            "slice_ffs": self.slice_ffs,
            "dsp_slices": self.dsp_slices,
            "bram_kbits": self.bram_kbits,
            "typical_clock_hz": self.typical_clock_hz,
            "offchip_bandwidth_bytes_per_s": self.offchip_bandwidth_bytes_per_s,
            "usable_fraction": self.usable_fraction,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FpgaDevice":
        return cls(
            name=data["name"],
            family=data["family"],
            slice_luts=data["slice_luts"],
            slice_ffs=data["slice_ffs"],
            dsp_slices=data["dsp_slices"],
            bram_kbits=data["bram_kbits"],
            typical_clock_hz=data["typical_clock_hz"],
            offchip_bandwidth_bytes_per_s=data["offchip_bandwidth_bytes_per_s"],
            usable_fraction=data.get("usable_fraction", 0.85),
        )


VIRTEX6_XC6VLX760 = FpgaDevice(
    name="XC6VLX760",
    family="Virtex-6",
    slice_luts=474_240,
    slice_ffs=948_480,
    dsp_slices=864,
    bram_kbits=25_920,
    typical_clock_hz=97_162_845.0,
    offchip_bandwidth_bytes_per_s=3.2e9,
)

VIRTEX6_XC6VLX240T = FpgaDevice(
    name="XC6VLX240T",
    family="Virtex-6",
    slice_luts=150_720,
    slice_ffs=301_440,
    dsp_slices=768,
    bram_kbits=14_976,
    typical_clock_hz=97_162_845.0,
    offchip_bandwidth_bytes_per_s=3.2e9,
)

VIRTEX2P_XC2VP30 = FpgaDevice(
    name="XC2VP30",
    family="Virtex-II Pro",
    slice_luts=27_392,
    slice_ffs=27_392,
    dsp_slices=136,
    bram_kbits=2_448,
    typical_clock_hz=66_000_000.0,
    offchip_bandwidth_bytes_per_s=1.0e9,
)

SPARTAN6_XC6SLX45 = FpgaDevice(
    name="XC6SLX45",
    family="Spartan-6",
    slice_luts=27_288,
    slice_ffs=54_576,
    dsp_slices=58,
    bram_kbits=2_088,
    typical_clock_hz=75_000_000.0,
    offchip_bandwidth_bytes_per_s=1.2e9,
)

DEVICE_CATALOG: Dict[str, FpgaDevice] = {
    device.name: device
    for device in (VIRTEX6_XC6VLX760, VIRTEX6_XC6VLX240T, VIRTEX2P_XC2VP30,
                   SPARTAN6_XC6SLX45)
}


def device_by_name(name: str) -> FpgaDevice:
    """Look up a device model by part name (case-insensitive)."""
    key = name.upper()
    if key not in DEVICE_CATALOG:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(DEVICE_CATALOG)}"
        )
    return DEVICE_CATALOG[key]
