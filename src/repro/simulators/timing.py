"""The timing core the three simulators share (paper §III-C).

Every case study drives its simulator with the same ELFie through the
same steps: arm the ROI at the marker (skipping startup code), account
each ROI instruction on its thread's core (``tid % cores``), resolve
conditional branches against the thread's next retired pc, and stop at
an instruction-count end condition.  :class:`TimingCore` is that
skeleton as one Pin-style tool; a simulator subclasses it and supplies
only its own model.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.elfie import prepare_elfie_machine
from repro.isa.instructions import COND_BRANCH_OPS, Op, instruction_size
from repro.machine.machine import ExitStatus, Machine
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.simulators.branch import BranchPredictor
from repro.simulators.cachesim import CacheHierarchy

#: Encoded size of each conditional-branch opcode; 0 for other opcodes.
_COND_BRANCH_SIZE = [0] * 256
for _op in COND_BRANCH_OPS:
    _COND_BRANCH_SIZE[_op] = instruction_size(_op)

#: An instruction count no ROI reaches.
_NEVER = 1 << 62


class TimingCore(Tool):
    """ROI tracking, branch resolution, stop checks and the ELFie driver.

    The model is per-core cache *hierarchies* (whose :attr:`fetch` and
    :attr:`data` costs a model may replace), the per-opcode cost as
    data (``1 / width`` plus *long_ops*), the mispredict penalty, and
    any further tool hooks.  The ROI begins at the first ``MARKER`` (at
    once if *roi_armed*); its first *warmup_budget* instructions only
    warm the model (:attr:`warmup_cycles` snapshots the cycles at their
    end).  The run stops after *roi_budget* more ROI instructions or at
    the *end_count*-th execution of *end_pc*.  :meth:`on_interval` runs
    every *interval* ROI instructions.
    """

    wants_instructions = True
    wants_memory = True
    wants_blocks = True

    #: Prefix of stop details, trace spans and instants.
    name = "timing"
    #: How the instruction-budget stop is described ("<name> <reason>").
    budget_reason = "budget"

    def __init__(self, hierarchies: List[CacheHierarchy], width: int,
                 mispredict_penalty: int,
                 long_ops: Optional[Dict[Op, float]] = None,
                 roi_armed: bool = False,
                 roi_budget: Optional[int] = None,
                 warmup_budget: int = 0,
                 end_pc: Optional[int] = None,
                 end_count: int = 0,
                 interval: Optional[int] = None) -> None:
        self.llc = hierarchies[0].llc
        self.predictors = [BranchPredictor(
            mispredict_penalty=mispredict_penalty) for _ in hierarchies]
        #: Per-core cost of one basic-block fetch / one data access.
        self.fetch = [h.fetch_access for h in hierarchies]
        self.data = [h.data_access for h in hierarchies]
        self.cycles = [0.0] * len(hierarchies)
        self.core_instructions = [0] * len(hierarchies)
        #: ROI instructions retired, all cores together.
        self.instructions = 0
        self.roi_active = roi_armed
        self.warmup_budget = warmup_budget
        self.warmup_cycles: Optional[float] = None if warmup_budget else 0.0
        self.interval = interval
        self._stop_at = (_NEVER if roi_budget is None
                         else roi_budget + warmup_budget)
        self._next_check = 0
        # pcs are non-negative, so -1 never matches
        self._end_pc = -1 if end_pc is None else end_pc
        self._end_count = end_count
        self._end_seen = 0
        self._ncores = len(hierarchies)
        self._op_cost = [1.0 / width] * 256
        for op, cost in (long_ops or {}).items():
            self._op_cost[op] += cost
        #: tid -> (pc, fallthrough) of its unresolved conditional branch.
        self._pending: Dict[int, Tuple[int, int]] = {}

    def on_interval(self) -> None:
        """The model's periodic event (every *interval* ROI instructions)."""

    @property
    def mispredict_rate(self) -> float:
        lookups = sum(p.lookups for p in self.predictors)
        mispredicts = sum(p.mispredicts for p in self.predictors)
        return mispredicts / lookups if lookups else 0.0

    def _check(self, machine: Machine, pc: int) -> None:
        """Run the interval, warmup and budget checks due at this ROI
        count, then schedule the next one."""
        n = self.instructions
        if self.interval and n % self.interval == 0:
            self.on_interval()
        if self.warmup_cycles is None and n >= self.warmup_budget:
            self.warmup_cycles = sum(self.cycles)
        if n >= self._stop_at:
            self._stop(machine, self.budget_reason, pc)
        self._next_check = min(
            max(self._stop_at, n + 1),
            _NEVER if self.warmup_cycles is not None else self.warmup_budget,
            n - n % self.interval + self.interval if self.interval else _NEVER)

    def _stop(self, machine: Machine, reason: str, pc: int) -> None:
        hooks.OBS.instant(self.name + ".roi_exit", self.name,
                          reason=reason, pc=pc)
        machine.request_stop("%s %s" % (self.name, reason))

    def on_instruction(self, machine, thread, pc, insn) -> None:
        pending = self._pending
        if pending:
            branch = pending.pop(thread.tid, None)
            if branch is not None:
                core = thread.tid % self._ncores
                self.cycles[core] += self.predictors[
                    core].predict_and_update(branch[0], pc != branch[1])
        if not self.roi_active:
            if insn.op is Op.MARKER:
                self.roi_active = True
                hooks.OBS.instant(self.name + ".roi_enter", self.name,
                                  tid=thread.tid, pc=pc)
            return
        core = thread.tid % self._ncores
        op = insn.op
        self.cycles[core] += self._op_cost[op]
        self.core_instructions[core] += 1
        self.instructions += 1
        size = _COND_BRANCH_SIZE[op]
        if size:
            pending[thread.tid] = (pc, pc + size)
        if pc == self._end_pc:
            self._end_seen += 1
            if self._end_seen >= self._end_count:
                self._stop(machine, "end condition", pc)
                return
        if self.instructions >= self._next_check:
            self._check(machine, pc)

    def on_basic_block(self, machine, thread, pc) -> None:
        if self.roi_active:
            core = thread.tid % self._ncores
            self.cycles[core] += self.fetch[core](pc)

    def on_memory_read(self, machine, thread, addr, size) -> None:
        if self.roi_active:
            core = thread.tid % self._ncores
            self.cycles[core] += self.data[core](addr)

    on_memory_write = on_memory_read

    def simulate(self, machine: Machine, run: Callable[[], ExitStatus],
                 span: str, **args) -> ExitStatus:
        """Attach to *machine* and call *run* inside a ``<name>.<span>``
        trace span."""
        machine.attach(self)
        with hooks.OBS.span("%s.%s" % (self.name, span), self.name, **args):
            status = run()
        machine.detach(self)
        return status

    def simulate_elfie(self, image: bytes, seed: int,
                       fs: Optional[FileSystem], workdir: str,
                       max_instructions: int) -> ExitStatus:
        """Load an ELFie into a fresh machine and simulate it."""
        machine, _ = prepare_elfie_machine(image, seed=seed, fs=fs,
                                           workdir=workdir)
        return self.simulate(machine, partial(
            machine.run, max_instructions=max_instructions), "simulate_elfie")
