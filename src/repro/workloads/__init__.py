"""Workloads: an affine loop-nest IR and the PolyBench kernel subset.

The paper drives gem5 with compiled PolyBench C kernels.  Our substrate
replaces the compiler+ISA layer with a small affine intermediate
representation (:mod:`repro.workloads.ir`) whose interpreter
(:mod:`repro.workloads.interp`) emits the same *architectural event
stream* a compiled kernel would: loads/stores with exact addresses,
arithmetic operations, loop branches, and (after the transformation
passes of :mod:`repro.transforms`) vector accesses and software
prefetches.

Kernels live in :mod:`repro.workloads.polybench`; each module builds a
:class:`~repro.workloads.ir.Program` for a requested problem size.
"""

from .affine import Affine, Var
from .ir import Array, Loop, Program, Ref, Statement, loop, stmt
from .trace import Branch, Compute, Load, Prefetch, Store, TraceEvent, trace_summary
from .interp import TraceConfig
from .encode import EncodedTrace, encode_events, encode_trace, materialize_trace
from .datasets import DatasetSize, scale_for
from .bounds import assert_in_bounds, check_bounds
from .polybench import EXTRA_KERNELS, KERNELS, build_kernel, kernel_names
from .reuse import ReuseProfile, profile_reuse
from .tracefile import load_trace, save_trace

__all__ = [
    "Affine",
    "Var",
    "Array",
    "Loop",
    "Program",
    "Ref",
    "Statement",
    "loop",
    "stmt",
    "Branch",
    "Compute",
    "Load",
    "Prefetch",
    "Store",
    "TraceEvent",
    "trace_summary",
    "TraceConfig",
    "materialize_trace",
    "EncodedTrace",
    "encode_events",
    "encode_trace",
    "DatasetSize",
    "scale_for",
    "KERNELS",
    "EXTRA_KERNELS",
    "build_kernel",
    "kernel_names",
    "load_trace",
    "save_trace",
    "assert_in_bounds",
    "check_bounds",
    "ReuseProfile",
    "profile_reuse",
]
