"""Workload definitions: sizes, seeded request streams and output checks.

Everything a run sends to the program is generated here from the workload
seed; the program only ever sees the generated :class:`repro.Workload`
objects.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from common import digest
from repro import Workload
from repro.api.registry import resolve_device
from repro.dse.constraints import DseConstraints
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import FpgaDevice

#: Seed used when none is given, and the seed kept back for confirming a
#: gain that was developed against the default one.
DEFAULT_SEED = 2013
HELD_OUT_SEED = 7919

#: The Section 4 explorer of ``benchmarks/_support.make_explorer``.
PAPER_KNOBS = dict(data_format=DataFormat.FIXED16, device="XC6VLX760",
                   window_sides=tuple(range(1, 10)), max_depth=5,
                   max_cones_per_depth=16, synthesize_all=True,
                   frame_width=1024, frame_height=768)
PAPER_ITERATIONS = {"blur": 10, "chamb": 11}

#: ``--seconds`` per round: a run does ``round(seconds / ROUND_SECONDS)``
#: rounds, at least one, so the same seed and ``--seconds`` always give the
#: same inputs, in number too.  (A paper_cold round takes about 30 s, a
#: design_sweep round about 0.8 s and a service_mix round about 4 s on a
#: 2-core x86 host; service_mix gets more rounds than its share because its
#: rounds vary most.)
ROUND_SECONDS = {"paper_cold": 30.0, "design_sweep": 0.8, "service_mix": 2.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


#: Equation-1 area-error bounds of the Figure 5/8 benches (percent).
MAX_AREA_ERROR_PCT = 12.0
MEAN_AREA_ERROR_PCT = 5.0

#: The C-source kernel of service_mix; each round draws its ``RATE``, so
#: each round's source is a first-time key of the C frontend's parse cache.
C_KERNEL = """
#define RATE %.4ff
void diffuse(float out[H][W], const float u[H][W]) {
    for (int y = 1; y < H - 1; y++) {
        for (int x = 1; x < W - 1; x++) {
            out[y][x] = u[y][x] + RATE * (u[y][x + 1] + u[y][x - 1]
                        + u[y + 1][x] + u[y - 1][x] - 4.0f * u[y][x]);
        }
    }
}
"""


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark scale."""

    name: str
    paper_knobs: Dict[str, Any]
    paper_iterations: Dict[str, int]
    sweep_wide_cones: int
    mix_warm_shape: Dict[str, Any]
    mix_cold_shape: Dict[str, Any]
    #: ``(width range, height range)`` of the small and large validate
    #: strata.
    mix_frames: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...]


PAPER = Scale(
    name="paper",
    paper_knobs=PAPER_KNOBS,
    paper_iterations=PAPER_ITERATIONS,
    sweep_wide_cones=23_000,
    mix_warm_shape=dict(window_sides=(1, 2, 3, 4), max_depth=3,
                        max_cones_per_depth=8),
    mix_cold_shape=dict(window_sides=(1, 2, 3), max_depth=2,
                        max_cones_per_depth=3),
    mix_frames=(((160, 232), (120, 176)), ((248, 320), (184, 240))),
)

#: Seconds-scale sizes for the benchmark's own tests.
TINY = Scale(
    name="tiny",
    paper_knobs=dict(PAPER_KNOBS, window_sides=(1, 2, 3), max_depth=2,
                     max_cones_per_depth=3, frame_width=128,
                     frame_height=96),
    paper_iterations={"blur": 4, "chamb": 4},
    sweep_wide_cones=400,
    mix_warm_shape=dict(window_sides=(1, 2), max_depth=2,
                        max_cones_per_depth=3),
    mix_cold_shape=dict(window_sides=(1, 2), max_depth=1,
                        max_cones_per_depth=3),
    mix_frames=(((40, 64), (32, 48)), ((72, 96), (56, 72))),
)

SCALES = {scale.name: scale for scale in (PAPER, TINY)}


# ---------------------------------------------------------------------- #
# paper_cold


def paper_workload(scale: Scale, kernel: str) -> Workload:
    return Workload.from_algorithm(
        kernel, iterations=scale.paper_iterations[kernel], **scale.paper_knobs)


def paper_order(seed: int) -> List[str]:
    """The seed only orders the two fixed experiments of Section 4."""
    kernels = sorted(PAPER_ITERATIONS)
    random.Random(seed).shuffle(kernels)
    return kernels


def characterization_digest(exploration) -> str:
    return digest([exploration.characterizations[key].to_dict()
                   for key in sorted(exploration.characterizations)])


def pareto_digest(points) -> str:
    return digest([point.to_dict() for point in points])


def area_errors(exploration) -> Dict[str, float]:
    errors = [error for validation in exploration.area_validations.values()
              for error in validation.errors_percent]
    return {"max_pct": max(errors), "mean_pct": sum(errors) / len(errors)}


# ---------------------------------------------------------------------- #
# design_sweep


def sweep_base(scale: Scale) -> Workload:
    return paper_workload(scale, "blur")


def sweep_wide(scale: Scale) -> Workload:
    return sweep_base(scale).replace(
        max_cones_per_depth=scale.sweep_wide_cones, stream=True)


def _frame(rng: random.Random, widths: Tuple[int, int],
           heights: Tuple[int, int]) -> Tuple[int, int]:
    return (rng.randrange(widths[0], widths[1] + 1, 8),
            rng.randrange(heights[0], heights[1] + 1, 8))


#: Constraint kinds of the re-explorations, dealt out evenly per round.
CONSTRAINT_KINDS = ("none", "none", "none", "area", "fps", "device")


def _constraint_deck(rng: random.Random, count: int) -> List[DseConstraints]:
    """``count`` constraints whose kinds follow :data:`CONSTRAINT_KINDS`
    (in seeded order); the seed draws each bound."""
    kinds = [CONSTRAINT_KINDS[i % len(CONSTRAINT_KINDS)] for i in range(count)]
    rng.shuffle(kinds)
    deck = []
    for kind in kinds:
        if kind == "area":
            deck.append(DseConstraints(max_area_luts=rng.uniform(5e4, 5e5)))
        elif kind == "fps":
            deck.append(DseConstraints(
                min_frames_per_second=rng.uniform(10, 200)))
        else:
            deck.append(DseConstraints(device_only=kind == "device"))
    return deck


#: Frame-size ranges of re-explorations (cost does not depend on them).
EXPLORE_FRAMES = ((320, 1920), (240, 1080))
#: Iteration counts of the warm re-explorations, each twice per round.
SWEEP_ITERATIONS = (6, 7, 8, 9, 10, 11, 12)
#: fps-floor bands of the streamed explorations, one each per round.
SWEEP_FPS_BANDS = ((20, 40), (40, 60), (60, 80), (80, 100), (100, 125),
                   (125, 150))
#: Area bands of the device-fitting Pareto points a VHDL request picks
#: from, one each per round (codegen cost grows with the point's window).
SWEEP_VHDL_BANDS = 4


def sweep_round(scale: Scale, rng: random.Random,
                points: int) -> List[Tuple[str, Any]]:
    """One round of designer requests in seeded order: ``("explore",
    workload)``, ``("stream", workload)`` or ``("vhdl", index)`` into the
    ``points`` device-fitting Pareto points of the primed exploration.

    Every round has the same composition (stratified over the parameters
    the cost depends on), so rounds and seeds are comparable; the seed
    draws frames, constraints and points within each stratum.
    """
    base, wide = sweep_base(scale), sweep_wide(scale)
    requests: List[Tuple[str, Any]] = []
    iterations = SWEEP_ITERATIONS * 2
    for count, constraints in zip(iterations,
                                  _constraint_deck(rng, len(iterations))):
        width, height = _frame(rng, *EXPLORE_FRAMES)
        requests.append(("explore", base.replace(
            frame_width=width, frame_height=height, iterations=count,
            constraints=constraints)))
    for low, high in SWEEP_FPS_BANDS:
        width, height = _frame(rng, *EXPLORE_FRAMES)
        requests.append(("stream", wide.replace(
            frame_width=width, frame_height=height,
            constraints=DseConstraints(
                min_frames_per_second=rng.uniform(low, high)))))
    for band in range(SWEEP_VHDL_BANDS):
        low = band * points // SWEEP_VHDL_BANDS
        high = max(low + 1, (band + 1) * points // SWEEP_VHDL_BANDS)
        requests.append(("vhdl", rng.randrange(low, high)))
    rng.shuffle(requests)
    return requests


def pareto_problems(points: Sequence, constraints: DseConstraints) -> List[str]:
    """Non-dominance and constraint violations of a reported Pareto set,
    checked independently of the program's own extraction.  Only an fps
    floor may leave the set empty: it can exceed the fastest design."""
    problems = []
    if not points and constraints.min_frames_per_second is None:
        problems.append("empty Pareto set")
    for point in points:
        if not constraints.admits(point):
            problems.append(f"{point.architecture.label()} violates the "
                            f"constraints")
        for other in points:
            if other is point:
                continue
            no_worse = (other.area_luts <= point.area_luts
                        and other.seconds_per_frame <= point.seconds_per_frame)
            better = (other.area_luts < point.area_luts
                      or other.seconds_per_frame < point.seconds_per_frame)
            if no_worse and better:
                problems.append(f"{point.architecture.label()} is dominated")
                break
    return problems


def has_monotone_constraint(constraints: DseConstraints) -> bool:
    """Whether the constraints are only an area cap and/or an fps floor."""
    return not constraints.device_only and (
        constraints.max_area_luts is not None
        or constraints.min_frames_per_second is not None)


def filtered_reference_problems(points: Sequence, unconstrained: Sequence,
                                constraints: DseConstraints) -> List[str]:
    """Under an area cap or an fps floor, a Pareto set must equal the
    unconstrained Pareto set of the same request with the inadmissible
    points dropped (a point that dominates an admitted one is admitted
    too), so points lost by constraint pushdown show up here."""
    expected = [point for point in unconstrained if constraints.admits(point)]
    if pareto_digest(points) == pareto_digest(expected):
        return []
    return [f"constrained Pareto set has {len(points)} points, the filtered "
            f"unconstrained one {len(expected)}"]


def vhdl_problems(files: Dict[str, str]) -> List[str]:
    problems = []
    if not files:
        problems.append("no VHDL files")
    for name, text in files.items():
        lowered = text.lower()
        if "end" not in lowered or ("entity" not in lowered
                                    and "package" not in lowered):
            problems.append(f"{name} is not a VHDL design unit")
    return problems


# ---------------------------------------------------------------------- #
# service_mix


#: Registered kernels of the cold explorations (plus :data:`C_KERNEL`).
MIX_COLD_KERNELS = ("blur", "jacobi", "heat", "dilate")
MIX_DEVICES = ("XC6VLX760", "XC2VP30")
MIX_FORMATS = (DataFormat.FIXED16, DataFormat.FIXED32)
#: Duplicated cold submissions per round (each kept in flight twice).
MIX_DUPLICATES = 5
MIX_VALIDATE_KERNELS = ("blur", "jacobi", "heat")
MIX_WARM_ITERATIONS = (4, 6, 8)


def mix_warm_keys(scale: Scale) -> List[Workload]:
    return [Workload.from_algorithm(kernel, iterations=6,
                                    **scale.mix_warm_shape)
            for kernel in ("blur", "jacobi")]


def _what_if(device: str, rng: random.Random) -> FpgaDevice:
    """A what-if variant of a catalog board: the share of the device the
    tools can fill.  The full device model is part of the characterization
    key, so each variant is a first-time (cold) key."""
    return dataclasses.replace(resolve_device(device),
                               usable_fraction=rng.uniform(0.70, 0.90))


def mix_round(scale: Scale, rng: random.Random) -> List[Dict[str, Any]]:
    """One round of service submissions in seeded order.

    Per round: one cold small-shape explore for each of 4 kernels x 2
    devices x 2 formats plus the C-source kernel (with a new ``RATE``),
    :data:`MIX_DUPLICATES`
    of them submitted twice back to back (the second copy arrives while
    the first is in flight); two warm explores per warm key and iteration
    count; one small-frame and one large-frame validate per kernel.
    """
    items: List[Dict[str, Any]] = []
    cold = [Workload.from_algorithm(kernel, device=_what_if(device, rng),
                                    data_format=data_format, iterations=4,
                                    **scale.mix_cold_shape)
            for kernel in MIX_COLD_KERNELS
            for device in MIX_DEVICES
            for data_format in MIX_FORMATS]
    cold.append(Workload.from_c(C_KERNEL % rng.uniform(0.10, 0.24),
                                device=_what_if(MIX_DEVICES[0], rng),
                                iterations=4, **scale.mix_cold_shape))
    duplicated = set(rng.sample(range(len(cold)), MIX_DUPLICATES))
    for index, workload in enumerate(cold):
        width, height = _frame(rng, (320, 1280), (240, 720))
        items.append({"job": "explore", "copies": 1 + (index in duplicated),
                      "workload": workload.replace(frame_width=width,
                                                   frame_height=height)})
    iterations = MIX_WARM_ITERATIONS * 2
    for workload in mix_warm_keys(scale):
        for count, constraints in zip(iterations, _constraint_deck(
                rng, len(iterations))):
            width, height = _frame(rng, *EXPLORE_FRAMES)
            items.append({"job": "explore", "copies": 1,
                          "workload": workload.replace(
                              frame_width=width, frame_height=height,
                              iterations=count, constraints=constraints)})
    for kernel in MIX_VALIDATE_KERNELS:
        for widths, heights in scale.mix_frames:
            width, height = _frame(rng, widths, heights)
            items.append({"job": "validate", "copies": 1,
                          "workload": Workload.from_algorithm(
                              kernel, iterations=4, frame_width=width,
                              frame_height=height,
                              **scale.mix_cold_shape)})
    rng.shuffle(items)
    return items


def validation_problems(result) -> List[str]:
    problems = []
    if result.max_abs_error != 0:
        problems.append(f"interior max_abs_error {result.max_abs_error}")
    if not result.vectorized_matches_scalar:
        problems.append("vectorized simulator differs from the scalar oracle")
    return problems
