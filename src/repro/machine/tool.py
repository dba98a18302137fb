"""Pin-style dynamic-instrumentation interface.

A :class:`Tool` attached to a :class:`~repro.machine.machine.Machine`
receives callbacks as the program executes — the analog of writing a
Pintool.  The PinPlay logger, the BBV profiler used by SimPoint, and the
Sniper front-end are all implemented as tools.

What a tool asks for decides how fast the machine can run under it.
Only ``on_instruction`` (``wants_instructions``) keeps the machine on
the per-instruction slow tier, which is the reproduction's analog of
Pin's dynamic-instrumentation overhead (Table I's ~15x/~40x rows are
measured, not asserted).  Every other hook fires on the block and
compiled tiers too, at the exact retire boundary the slow tier would
report:

- block, memory and syscall hooks (``wants_blocks``/``wants_memory``;
  block tools turn off chaining, memory tools the compiled tier);
- breakpoints (:meth:`Machine.add_breakpoint`) and marker events
  (``wants_markers``): "a thread is about to retire the instruction at
  pc X" and "... a MARKER";
- the machine-wide trigger (:meth:`Machine.set_trigger`): "N
  instructions have retired, summed over all threads".

A tool that only needs to know when one of those happens should use
them rather than watch every instruction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.isa.instructions import Instruction
    from repro.machine.machine import Machine, Thread


class Tool:
    """Base class for instrumentation tools.

    Subclasses override only the hooks they need.  All hooks default to
    no-ops; the machine checks ``wants_*`` class attributes to skip
    invoking unused hook categories on the hot path.
    """

    #: Set true to receive ``on_instruction`` before every instruction
    #: (forces the per-instruction slow tier).
    wants_instructions: bool = False
    #: Set true to receive memory-operand callbacks.
    wants_memory: bool = False
    #: Set true to receive basic-block callbacks.
    wants_blocks: bool = False
    #: Set true to receive ``on_marker`` before each MARKER retires.
    wants_markers: bool = False

    def on_attach(self, machine: "Machine") -> None:
        """Called when the tool is attached to a machine."""

    def on_thread_start(self, machine: "Machine", thread: "Thread") -> None:
        """A thread became runnable (includes the initial thread)."""

    def on_thread_exit(self, machine: "Machine", thread: "Thread") -> None:
        """A thread exited."""

    def on_instruction(self, machine: "Machine", thread: "Thread",
                       pc: int, insn: "Instruction") -> None:
        """Called before each instruction executes."""

    def on_breakpoint(self, machine: "Machine", thread: "Thread",
                      pc: int) -> None:
        """*thread* is about to retire the instruction at *pc*, a
        breakpoint this tool set with :meth:`Machine.add_breakpoint`.

        Sees the state before the instruction (its ``icount`` and
        ``cycles``).  A stop requested here lands once the instruction
        has retired.
        """

    def on_marker(self, machine: "Machine", thread: "Thread", pc: int,
                  tag: int) -> None:
        """*thread* is about to retire a MARKER with operand *tag*
        (``wants_markers``); same timing as :meth:`on_breakpoint`."""

    def on_trigger(self, machine: "Machine", thread: "Thread") -> None:
        """The machine-wide retired count reached this tool's trigger
        (:meth:`Machine.set_trigger`), which is cleared before the call.

        Fires before the next instruction retires, after the scheduler
        has picked *thread* to run it.  A stop requested here lands once
        that instruction has retired.
        """

    def on_basic_block(self, machine: "Machine", thread: "Thread",
                       pc: int) -> None:
        """Called at each basic-block entry (after any taken branch and
        at thread start)."""

    def on_memory_read(self, machine: "Machine", thread: "Thread",
                       address: int, size: int) -> None:
        """Called before a data-memory read."""

    def on_memory_write(self, machine: "Machine", thread: "Thread",
                        address: int, size: int) -> None:
        """Called before a data-memory write."""

    def on_syscall_before(self, machine: "Machine", thread: "Thread",
                          number: int) -> Optional[bool]:
        """Called before a syscall executes.

        Returning True suppresses the actual syscall (the tool is
        expected to have injected results itself) — this is how the
        PinPlay replayer skips and injects system calls.
        """
        return None

    def on_syscall_after(self, machine: "Machine", thread: "Thread",
                         number: int, result: int) -> None:
        """Called after a (non-suppressed) syscall executes."""

    def on_region_limit(self, machine: "Machine", thread: "Thread") -> None:
        """A thread retired exactly ``thread.icount_limit`` instructions.

        Fires at the precise retire boundary on both dispatch paths
        (the fast path spills mid-block, mirroring PMU-trap slicing).
        The hook may raise/clear the limit, block the thread, or request
        a stop; doing none of those stops the machine.
        """
