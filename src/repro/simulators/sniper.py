"""A Sniper-like multi-core simulator (paper §III-C1, §IV-B).

Sniper is a Pin-based x86 multi-core simulator; this model is likewise
built as an instrumentation tool over the platform's Pin-style hooks.
It simulates:

- **ELFies** without any simulator modification: load the binary, wait
  for the ROI marker, simulate until an end condition — either a
  ``(PC, count)`` pair (the paper's choice for multi-threaded regions,
  with the count determined by a separate profiling run) or an
  aggregate instruction budget;
- **pinballs** in constrained-replay mode (Sniper + PinPlay library):
  system-call injection and the recorded thread order are enforced
  while the same timing model runs, so thread interleaving is
  pre-determined — which is what makes constrained simulation able to
  introduce artificial stalls (the Fig. 11 contrast).

The core model is interval-flavoured: a dispatch-width base cost plus
penalties from private L1/L2, a shared LLC, and a bimodal branch
predictor.  Threads map to cores round-robin.  ROI tracking, branch
resolution and the stop checks are the shared
:class:`~repro.simulators.timing.TimingCore`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Op
from repro.machine.machine import ExitStatus
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.pinplay.pinball import Pinball
from repro.machine.scheduler import Scheduler, ScheduleSlice
from repro.pinplay.replayer import ReplaySession
from repro.simulators.cachesim import Cache, CacheHierarchy
from repro.simulators.timing import TimingCore


class _TimingDrivenScheduler(Scheduler):
    """Advance the thread whose simulated core time is furthest behind.

    Real Sniper interleaves threads by simulated cycles, not retired
    instructions.  Under this policy a thread spinning at a barrier
    (high IPC, few misses) retires many more instructions per simulated
    cycle than a thread doing cache-missing work — which is exactly why
    unconstrained multi-threaded ELFie simulations retire *more*
    instructions than their constrained pinball replays (Fig. 11).
    """

    def __init__(self, tool: "_SniperTool", quantum: int = 64) -> None:
        super().__init__(seed=0, base_quantum=quantum, jitter=0.0)
        self._tool = tool

    def pick(self, runnable_tids):
        tids = sorted(runnable_tids)
        if not tids:
            raise RuntimeError("no runnable threads (deadlock)")
        cycles = self._tool.cycles
        cores = len(cycles)
        tid = min(tids, key=lambda t: (cycles[t % cores], t))
        return ScheduleSlice(tid=tid, quantum=self.base_quantum)


@dataclass
class SniperConfig:
    """Machine configuration (default: Gainestown-like 8-core OOO)."""

    name: str = "gainestown-8"
    cores: int = 8
    dispatch_width: int = 4
    l1_kb: int = 32
    l2_kb: int = 128
    llc_kb: int = 2048  # shared, scaled with workloads (DESIGN.md §4)
    llc_assoc: int = 16
    mispredict_penalty: int = 12


class _SniperTool(TimingCore):
    """The interval model: one private L1/L2 per core under a shared
    LLC, optionally with Sniper's timing-driven thread scheduler."""

    name = "sniper"
    budget_reason = "instruction budget"

    def __init__(self, config: SniperConfig, timing_driven: bool,
                 **roi) -> None:
        self.config = config
        llc = Cache("LLC", config.llc_kb, config.llc_assoc, 30)
        super().__init__(
            [CacheHierarchy.build(llc, l1_kb=config.l1_kb,
                                  l2_kb=config.l2_kb)
             for _ in range(config.cores)],
            width=config.dispatch_width,
            mispredict_penalty=config.mispredict_penalty, **roi)
        self.timing_driven = timing_driven

    def on_attach(self, machine) -> None:
        if self.timing_driven:
            machine.scheduler = _TimingDrivenScheduler(self)


@dataclass
class SniperResult:
    """Simulation outcome."""

    config_name: str
    constrained: bool
    instructions: int
    core_instructions: List[int]
    core_cycles: List[float]
    status: ExitStatus
    llc_misses: int = 0
    branch_mispredict_rate: float = 0.0

    @property
    def runtime_cycles(self) -> float:
        """Predicted runtime: the busiest core's cycle count."""
        return max(self.core_cycles) if self.core_cycles else 0.0

    @property
    def ipc(self) -> float:
        runtime = self.runtime_cycles
        return self.instructions / runtime if runtime else 0.0

    @property
    def cpi(self) -> float:
        return 1.0 / self.ipc if self.ipc else 0.0


class SniperSim:
    """Front-end entry points for ELFie and pinball simulation."""

    def __init__(self, config: Optional[SniperConfig] = None) -> None:
        self.config = config or SniperConfig()

    def _finish(self, tool: _SniperTool, status: ExitStatus,
                constrained: bool) -> SniperResult:
        return SniperResult(
            config_name=self.config.name,
            constrained=constrained,
            instructions=tool.instructions,
            core_instructions=tool.core_instructions,
            core_cycles=tool.cycles,
            status=status,
            llc_misses=tool.llc.misses,
            branch_mispredict_rate=tool.mispredict_rate,
        )

    def simulate_elfie(self, image: bytes,
                       end_pc: Optional[int] = None,
                       end_count: int = 1,
                       roi_budget: Optional[int] = None,
                       seed: int = 0,
                       fs: Optional[FileSystem] = None,
                       workdir: str = "/",
                       timing_driven: bool = True,
                       max_instructions: int = 50_000_000) -> SniperResult:
        """Simulate an ELFie, skipping startup via the ROI marker.

        Simulation ends at the (end_pc, end_count) condition, at the
        aggregate ROI instruction budget, or when the ELFie exits.
        With ``timing_driven`` (the default, matching real Sniper)
        threads progress in simulated time rather than round-robin by
        retired instructions.
        """
        tool = _SniperTool(self.config, timing_driven, end_pc=end_pc,
                           end_count=end_count, roi_budget=roi_budget)
        status = tool.simulate_elfie(image, seed, fs, workdir,
                                     max_instructions)
        return self._finish(tool, status, constrained=False)

    def simulate_pinball(self, pinball: Pinball, seed: int = 0,
                         fs: Optional[FileSystem] = None) -> SniperResult:
        """Constrained simulation: replay the pinball under the timing
        model (Sniper modified to include the PinPlay library)."""
        session = ReplaySession(pinball, injection=True, seed=seed, fs=fs,
                                instrument=False)
        tool = _SniperTool(self.config, timing_driven=False, roi_armed=True)
        status = tool.simulate(session.machine, session.run,
                               "simulate_pinball", pinball=pinball.name)
        session.result()
        return self._finish(tool, status, constrained=True)


class _PcHistogram(Tool):
    """Per-PC execution counts, the most recent PCs, and PAUSE PCs."""

    wants_instructions = True

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.recent: Deque[int] = deque(maxlen=512)
        self.pauses: Set[int] = set()

    def on_instruction(self, machine, thread, pc, insn) -> None:
        self.counts[pc] = self.counts.get(pc, 0) + 1
        self.recent.append(pc)
        if insn.op is Op.PAUSE:
            self.pauses.add(pc)


def _profile_pcs(pinball: Pinball, seed: int) -> _PcHistogram:
    """The separate profiling run: a constrained replay of *pinball*."""
    session = ReplaySession(pinball, injection=True, seed=seed, fs=None,
                            instrument=False)
    histogram = _PcHistogram()
    session.machine.attach(histogram)
    session.run()
    return histogram


def find_end_condition(pinball: Pinball, seed: int = 0,
                       spin_radius: int = 64) -> Tuple[int, int]:
    """Choose a ``(PC, count)`` end condition for ELFie simulation.

    Per the paper, the PC must be "a specific instruction at the end of
    the code region outside any spin-loops or synchronization code" and
    the count its global execution count, "determined using a separate
    profiling run".  The profiling run here is a constrained replay:
    we histogram every PC, mark PCs within *spin_radius* bytes of a
    PAUSE as spin code, and return the most recently executed non-spin
    PC together with its accumulated count at region end.
    """
    histogram = _profile_pcs(pinball, seed)
    spin = {pause + delta for pause in histogram.pauses
            for delta in range(-spin_radius, spin_radius + 1)}
    for pc in reversed(histogram.recent):
        if pc not in spin:
            return pc, histogram.counts[pc]
    # everything near the end was spin code; fall back to the busiest PC
    counts = histogram.counts
    pc = max(counts, key=counts.get)
    return pc, counts[pc]


def profile_end_condition(pinball: Pinball, end_pc: int,
                          seed: int = 0) -> Tuple[int, int]:
    """Determine the global execution count of *end_pc* in the region.

    The paper picks a PC at the end of the code region outside any
    spin loop and counts its executions in a separate profiling run;
    here the profiling run is a constrained replay of the pinball.
    Returns ``(end_pc, count)`` ready for :meth:`SniperSim.simulate_elfie`.
    """
    return end_pc, _profile_pcs(pinball, seed).counts.get(end_pc, 0)
