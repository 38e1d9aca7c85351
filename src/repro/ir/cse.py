"""Common-subexpression elimination and dead-code elimination on DFGs.

DFGs lowered from the symbolic layer are already maximally shared (the
expression builder hash-conses every node), so the flow itself never runs
these passes.  They are the test reference for that claim: rewriting a
lowered cone must eliminate nothing, which shows the register counts used by
Equation 1 really are the post-reuse counts.  Both passes rebuild the graph
in :meth:`~repro.ir.dfg.DataflowGraph.topological_order`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ir.dfg import DataflowGraph, DfgNode, NodeKind


def _structural_key(node: DfgNode, remap: Dict[int, int]) -> Tuple:
    operands = tuple(remap[i] for i in node.operands)
    if node.kind is NodeKind.OP:
        assert node.op_kind is not None
        if node.op_kind.is_commutative:
            operands = tuple(sorted(operands))
        return ("op", node.op_kind.value, operands)
    if node.kind is NodeKind.CONST:
        return ("const", node.value)
    if node.kind is NodeKind.INPUT:
        return ("input", node.name)
    return ("output", node.name, operands)


def eliminate_common_subexpressions(graph: DataflowGraph) -> Tuple[DataflowGraph, int]:
    """Return a new graph with structurally identical nodes merged.

    Returns the rewritten graph and the number of nodes eliminated.
    """
    new_graph = DataflowGraph(graph.name + "_cse")
    remap: Dict[int, int] = {}
    canonical: Dict[Tuple, int] = {}
    eliminated = 0

    for node in graph.topological_order():
        key = _structural_key(node, remap)
        if node.kind is not NodeKind.OUTPUT and key in canonical:
            remap[node.node_id] = canonical[key]
            eliminated += 1
            continue
        if node.kind is NodeKind.INPUT:
            new_id = new_graph.add_input(node.name, port=node.port)
        elif node.kind is NodeKind.CONST:
            new_id = new_graph.add_const(node.value or 0.0, name=node.name)
        elif node.kind is NodeKind.OP:
            assert node.op_kind is not None
            new_id = new_graph.add_op(node.op_kind,
                                      [remap[i] for i in node.operands],
                                      name=node.name)
        else:
            new_id = new_graph.add_output(remap[node.operands[0]], node.name,
                                          port=node.port)
        remap[node.node_id] = new_id
        if node.kind is not NodeKind.OUTPUT:
            canonical[key] = new_id

    return new_graph, eliminated


def dead_code_elimination(graph: DataflowGraph) -> Tuple[DataflowGraph, int]:
    """Remove nodes not reachable from any output."""
    live: set = set()
    stack = list(graph.output_ids)
    while stack:
        node_id = stack.pop()
        if node_id in live:
            continue
        live.add(node_id)
        stack.extend(graph.node(node_id).operands)

    new_graph = DataflowGraph(graph.name + "_dce")
    remap: Dict[int, int] = {}
    removed = 0
    for node in graph.topological_order():
        if node.node_id not in live:
            removed += 1
            continue
        if node.kind is NodeKind.INPUT:
            remap[node.node_id] = new_graph.add_input(node.name, port=node.port)
        elif node.kind is NodeKind.CONST:
            remap[node.node_id] = new_graph.add_const(node.value or 0.0, name=node.name)
        elif node.kind is NodeKind.OP:
            assert node.op_kind is not None
            remap[node.node_id] = new_graph.add_op(
                node.op_kind, [remap[i] for i in node.operands], name=node.name)
        else:
            remap[node.node_id] = new_graph.add_output(
                remap[node.operands[0]], node.name, port=node.port)
    return new_graph, removed
