"""Digest identity of the characterization, synthesis and VHDL outputs.

The sha256 values below were frozen before the scheduler was reduced to one
walk of the graph; a refactor of scheduling, timing or lowering must leave
every one of them unchanged.  For each registered algorithm the test hashes

* ``characterize_cones(2)`` over windows (1, 2, 3) with ``max_depth=2`` and
  ``synthesize_all=True``, as ``ConeCharacterization.to_dict()`` documents;
* every field of the ``SynthesisReport`` of the (2, 2) cone;
* the ``VhdlWriter.generate`` text of the same cone.

Floats are hashed through ``json.dumps``, which writes their shortest
round-trip ``repr``, so any change in the last bit changes the digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.algorithms import ALGORITHMS
from repro.codegen.vhdl_writer import VhdlWriter
from repro.dse.explorer import DesignSpaceExplorer
from repro.ir.dfg import build_dfg_from_cone
from repro.ir.operators import DataFormat, default_library
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.synth.fpga_device import VIRTEX6_XC6VLX760
from repro.synth.synthesizer import Synthesizer

#: algorithm -> (characterization, synthesis report, VHDL text) sha256
EXPECTED = {
    "blur": (
        "631d6366bfd68ebe66e61303e0f8888ab147831f65eca6c2595af03d17c8d639",
        "b99aed391d3e23d6e9010897cebae979d3778f366aa204720ebe3d5e47d2fe12",
        "a82339ba169429a3c19abdc2afbc9fc5e05e22f27c9ef9ce575daec7a2094fbe"),
    "chamb": (
        "d7abad4a51c11b1dc6c0579fc71054310b52d275e890073b128e0f8d3ece888a",
        "0b404f8041b4b090eadfd2f2092ab652f6433ca7563b9f949aa4b66de76e6b71",
        "bed06daf14be476706d9f0b971036190af8d72c06c7b6246ed4c642c8e02a166"),
    "conv3x3": (
        "ecdba0c3d7ccdb080cdc8b8f932c6028f9ff0ca77741b7cecf62494633ba93a4",
        "238e1ec130d69dff695ac8d74cf49a0756c848c620807a9f8b677946d57c511c",
        "c5a765f0b0354d44f0f1f638c152cc0ea616a9b8609cf54674a639146426ab6c"),
    "dilate": (
        "5a2eef8dc56eeccdd48732f59921a249e15a1a6b4a9bb2c5c2f06866d116de1f",
        "cbb1ad04a00fb12802e01234b36bd494d6320fa4bf8984eafe09148071c8d221",
        "6d0d52ab72aa80b24e695a02deac48c13ce3b925e5f92e93f336bf2f7ef4a764"),
    "erode": (
        "c9bbaee09bbd9ce67284fb5ffb31145d55bd0b32c727019b28fabf168da66745",
        "3d23ee99c02b8e49765d301111f0cb3d9de48db76a40eb1e7515e82bce74c571",
        "3244b9fe9457d5276fd801a92ca63ed0ff0bc5cd797214c6ccc5313318914afe"),
    "heat": (
        "0513f2cfd785dd695bdee2adfe10d136cae9bedaf54938d70b56bed81973a33b",
        "1f5a0611ce063fcfb9f51a47b70747def70f07cec0e7e1b2830c38b914fad278",
        "531090ba0dd26c713860e79af2960ff2d6a463927363640e33daab468bd26803"),
    "jacobi": (
        "5e4b20e4b1539171dafc647781f93a02b4baec760ce454b66cd19f4ee2d35fa8",
        "f94532cff80dba3f8dfd3773886eca4acd80f7f41d5f94d2a33969b742492fbc",
        "f2c8d9296188ffca4c2502f7ff002f0ecfab0dbba6da90f98768630eccdbc0ed"),
}


def _sha256(document: object) -> str:
    text = document if isinstance(document, str) else json.dumps(
        document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def characterization_digest(name: str) -> str:
    explorer = DesignSpaceExplorer(ALGORITHMS[name].kernel(),
                                   window_sides=(1, 2, 3), max_depth=2,
                                   synthesize_all=True)
    characterizations, _ = explorer.characterize_cones(2)
    return _sha256([characterizations[key].to_dict()
                    for key in sorted(characterizations)])


def cone_digests(name: str) -> tuple:
    cone = ConeExpressionBuilder(ALGORITHMS[name].kernel()).build(2, 2)
    graph = build_dfg_from_cone(cone)
    report = Synthesizer(VIRTEX6_XC6VLX760,
                         default_library(DataFormat.FIXED16)).synthesize(graph)
    fields = {
        "design_name": report.design_name,
        "device_name": report.device_name,
        "area": dataclasses.asdict(report.area),
        "raw_area": dataclasses.asdict(report.raw_area),
        "register_count": report.register_count,
        "operation_count": report.operation_count,
        "timing": dataclasses.asdict(report.timing),
        "estimated_tool_runtime_s": report.estimated_tool_runtime_s,
        "fits": report.fits,
    }
    return _sha256(fields), _sha256(VhdlWriter().generate(graph).code)


def test_every_registered_algorithm_is_frozen():
    assert sorted(EXPECTED) == sorted(ALGORITHMS)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_characterization_digest(name):
    assert characterization_digest(name) == EXPECTED[name][0]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_synthesis_report_and_vhdl_digests(name):
    assert cone_digests(name) == EXPECTED[name][1:]
