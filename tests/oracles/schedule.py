"""Two-walk pipeline scheduler — the differential oracle of ``pipeline_schedule``.

Production schedules a cone datapath in one walk of the graph's construction
order, computing stages and the ASAP critical path together.  This is the
earlier form of the same algorithm: it sorts the graph with Kahn's algorithm
(:meth:`~repro.ir.dfg.DataflowGraph.topological_order`), assigns stages in
that order, then walks the sorted graph again for the ASAP finish times whose
maximum is the critical path.  Both forms must agree exactly, floats
included: every operand is scheduled before its user in either order, and
each node's start time is the ``max`` of the same operand finish times.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.ir.dfg import DataflowGraph, DfgNode, NodeKind
from repro.ir.operators import OperatorLibrary, default_library
from repro.ir.scheduling import Schedule


def node_delay(node: DfgNode, graph: DataflowGraph,
               library: OperatorLibrary) -> float:
    if node.kind is not NodeKind.OP:
        return 0.0
    constant = node.has_constant_operand(graph)
    return library.spec_for(node.op_kind, constant_operand=constant).delay_ns


def asap_finish_times(graph: DataflowGraph,
                      library: OperatorLibrary) -> Dict[int, float]:
    """Earliest finish time (ns) of every node assuming unlimited resources."""
    finish: Dict[int, float] = {}
    for node in graph.topological_order():
        start = max((finish[i] for i in node.operands), default=0.0)
        finish[node.node_id] = start + node_delay(node, graph, library)
    return finish


def two_walk_schedule(graph: DataflowGraph, clock_period_ns: float,
                      library: Optional[OperatorLibrary] = None) -> Schedule:
    """Stages in Kahn order, then a second walk for the critical path."""
    library = library or default_library()
    stage_of: Dict[int, int] = {}
    slack_in_stage: Dict[int, float] = {}

    for node in graph.topological_order():
        delay = node_delay(node, graph, library)
        if not node.operands:
            stage_of[node.node_id] = 0
            slack_in_stage[node.node_id] = delay
            continue
        operand_stage = max(stage_of[i] for i in node.operands)
        accumulated = max(
            (slack_in_stage[i] for i in node.operands
             if stage_of[i] == operand_stage),
            default=0.0,
        )
        if delay > clock_period_ns:
            extra = math.ceil(delay / clock_period_ns)
            stage = operand_stage + extra
            accumulated = delay - (extra - 1) * clock_period_ns
        elif accumulated + delay <= clock_period_ns:
            stage = operand_stage
            accumulated = accumulated + delay
        else:
            stage = operand_stage + 1
            accumulated = delay
        stage_of[node.node_id] = stage
        slack_in_stage[node.node_id] = accumulated

    pipeline_registers = 0
    for node in graph.nodes():
        for operand in node.operands:
            crossing = stage_of[node.node_id] - stage_of[operand]
            if crossing > 0:
                pipeline_registers += crossing

    stages = max(stage_of.values(), default=0) + 1
    critical_path = max(asap_finish_times(graph, library).values(),
                        default=0.0)
    return Schedule(
        graph_name=graph.name,
        clock_period_ns=clock_period_ns,
        critical_path_ns=critical_path,
        pipeline_stages=stages,
        latency_cycles=stages,
        initiation_interval=1,
        stage_of_node=stage_of,
        pipeline_register_count=pipeline_registers,
    )
