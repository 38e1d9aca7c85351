"""Property tests: the one-walk ``pipeline_schedule`` ≡ the two-walk oracle.

Production schedules in the graph's construction order and computes the
critical path in the same walk; ``oracles.schedule.two_walk_schedule`` sorts
with Kahn's algorithm and walks twice.  Random graphs built through the
``add_*`` methods mix every operator kind, DIV and SQRT included, against
clock periods short enough that one operator can span several stages.
Equality is exact (``==`` on the whole ``Schedule``, floats included).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.schedule import two_walk_schedule
from repro.algorithms import ALGORITHMS
from repro.ir.dfg import DataflowGraph, build_dfg_from_cone
from repro.ir.operators import DataFormat, default_library
from repro.ir.scheduling import pipeline_schedule
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.expression import OpKind


@st.composite
def dataflow_graphs(draw):
    graph = DataflowGraph("random")
    values = [graph.add_input(f"x{i}")
              for i in range(draw(st.integers(1, 4)))]
    values += [graph.add_const(draw(st.floats(-4.0, 4.0)))
               for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(list(OpKind)))
        operands = [draw(st.sampled_from(values)) for _ in range(kind.arity)]
        values.append(graph.add_op(kind, operands))
    for index, source in enumerate(draw(st.lists(st.sampled_from(values),
                                                 min_size=1, max_size=4))):
        graph.add_output(source, f"y{index}")
    return graph


@settings(max_examples=200, deadline=None)
@given(graph=dataflow_graphs(),
       data_format=st.sampled_from(list(DataFormat)),
       clock_period_ns=st.floats(0.3, 25.0))
def test_one_walk_schedule_matches_two_walk_oracle(graph, data_format,
                                                   clock_period_ns):
    library = default_library(data_format)
    graph.validate()
    assert (pipeline_schedule(graph, clock_period_ns, library)
            == two_walk_schedule(graph, clock_period_ns, library))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_cone_schedules_match_two_walk_oracle(name):
    builder = ConeExpressionBuilder(ALGORITHMS[name].kernel())
    library = default_library(DataFormat.FIXED16)
    for window, depth in ((1, 1), (2, 1), (2, 2)):
        graph = build_dfg_from_cone(builder.build(window, depth))
        for period in (2.0, 10.3):
            assert (pipeline_schedule(graph, period, library)
                    == two_walk_schedule(graph, period, library))
