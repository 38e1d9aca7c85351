"""Dataflow intermediate representation of cone hardware.

The symbolic expression DAG of a cone is lowered to an explicit dataflow
graph whose nodes carry hardware operator information (delay and resource
cost per data format).  The DFG is what the VHDL generator emits and what the
synthesis simulator maps onto the FPGA fabric.
"""

from repro.ir.operators import (
    DataFormat,
    OperatorSpec,
    OperatorLibrary,
    ResourceVector,
    default_library,
)
from repro.ir.dfg import DfgNode, NodeKind, DataflowGraph, build_dfg_from_cone
from repro.ir.cse import eliminate_common_subexpressions, dead_code_elimination
from repro.ir.scheduling import Schedule, pipeline_schedule

__all__ = [
    "DataFormat",
    "OperatorSpec",
    "OperatorLibrary",
    "ResourceVector",
    "default_library",
    "DfgNode",
    "NodeKind",
    "DataflowGraph",
    "build_dfg_from_cone",
    "eliminate_common_subexpressions",
    "dead_code_elimination",
    "Schedule",
    "pipeline_schedule",
]
