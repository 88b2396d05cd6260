"""Normalized intermediate representation for pointer analysis."""

from .builder import FunctionBuilder, ProgramBuilder
from .callgraph import CallGraph, function_sentinel, resolve_indirect_calls
from .cfg import CFG, Loc, Span, location_labels, straight_line
from .dot import (
    andersen_dot,
    callgraph_dot,
    cfg_dot,
    cutshortcut_dot,
    steensgaard_dot,
)
from .printer import format_cfg, format_program
from .serialize import (
    SymbolTable,
    cluster_from_wire,
    cluster_to_wire,
    decode_symbols,
    load_program,
    program_from_dict,
    program_from_wire,
    program_to_dict,
    program_to_wire,
    save_program,
    slice_from_wire,
    slice_to_wire,
)
from .program import Function, Program, param_var, retval_var
from .statements import (
    AddrOf,
    AllocSite,
    Assume,
    CallStmt,
    Copy,
    ExternCall,
    Load,
    MemObject,
    NullAssign,
    ReturnStmt,
    Skip,
    Statement,
    Store,
    Var,
    is_canonical,
)

__all__ = [
    "AddrOf", "AllocSite", "Assume", "CFG", "CallGraph", "CallStmt",
    "Copy", "ExternCall", "Function", "FunctionBuilder", "Load", "Loc", "MemObject",
    "NullAssign", "Program", "ProgramBuilder", "ReturnStmt", "Skip",
    "Span", "Statement", "Store", "Var", "andersen_dot", "callgraph_dot", "cfg_dot", "cutshortcut_dot", "format_cfg", "format_program", "steensgaard_dot",
    "SymbolTable", "cluster_from_wire", "cluster_to_wire",
    "decode_symbols",
    "function_sentinel", "is_canonical", "location_labels", "param_var",
    "load_program", "program_from_dict", "program_from_wire",
    "program_to_dict", "program_to_wire", "resolve_indirect_calls",
    "retval_var", "save_program",
    "slice_from_wire", "slice_to_wire",
    "straight_line",
]
