"""Virtual-time execution engine.

Threads execute small programs of timed operations (copies, memory
accesses, flag writes and polls); the engine advances per-thread virtual
clocks in global time order, resolving flag dependencies and applying the
machine's contention model when several threads pull the same line.
"""

from repro.sim.program import (
    Op,
    Delay,
    LocalCopy,
    CopyFrom,
    MemRead,
    MemWrite,
    WriteFlag,
    PollFlag,
    Compute,
    Program,
)
from repro.sim.engine import CompiledRun, Engine, RunResult
from repro.sim.kernels import bandwidth_grid, contention_makespans
from repro.sim.trace import Trace, TraceEvent
from repro.sim.dataflow import (
    DataflowResult,
    verify_dataflow,
    assert_broadcast_delivers,
    assert_reduce_gathers,
    assert_allreduce_complete,
)

__all__ = [
    "Op",
    "Delay",
    "LocalCopy",
    "CopyFrom",
    "MemRead",
    "MemWrite",
    "WriteFlag",
    "PollFlag",
    "Compute",
    "Program",
    "Engine",
    "CompiledRun",
    "RunResult",
    "bandwidth_grid",
    "contention_makespans",
    "Trace",
    "TraceEvent",
    "DataflowResult",
    "verify_dataflow",
    "assert_broadcast_delivers",
    "assert_reduce_gathers",
    "assert_allreduce_complete",
]
