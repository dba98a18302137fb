"""A CoreSim-like detailed x86 simulator (paper §III-C2, §IV-C).

CoreSim is an execution-driven, cycle-accurate many-core simulator with
two front-ends: SDE (user-space instructions only) and Simics (full
system).  This model keeps that split:

- ``frontend="sde"``: only ring-3 (application) instructions reach the
  timing model; system calls are charged a fixed trap latency,
- ``frontend="simics"``: each system call additionally injects a
  synthetic ring-0 service stream, and a timer interrupt fires
  periodically (see :mod:`repro.simulators.kernelmodel`); kernel
  fetches and data accesses go through the same caches and TLBs as
  application traffic.

The timing model is a width-limited core with L1I/L1D, a private L2, a
shared LLC, I/D TLBs, a next-line prefetcher, and a bimodal branch
predictor — enough microarchitectural surface for the Table IV
comparison (instruction counts, runtime, TLB/cache pressure, data
footprint, prefetcher traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.isa.instructions import Op
from repro.machine.machine import ExitStatus
from repro.machine.vfs import FileSystem
from repro.simulators.cachesim import Cache, CacheHierarchy
from repro.simulators.kernelmodel import (
    TIMER_INTERVAL,
    syscall_stream,
    timer_stream,
)
from repro.simulators.timing import TimingCore


@dataclass
class CoreSimConfig:
    """Detailed-model configuration (default: Skylake-like)."""

    name: str = "skylake"
    dispatch_width: int = 4
    l1_kb: int = 32
    l2_kb: int = 128
    #: LLC scaled with the workload scaling (DESIGN.md §4): regions are
    #: ~1000x shorter than the paper's, so a full-size LLC would keep
    #: transients longer than whole regions.
    llc_kb: int = 512
    llc_assoc: int = 16
    tlb_entries: int = 64
    tlb_penalty: int = 30
    mispredict_penalty: int = 14
    syscall_trap_cycles: int = 150
    #: "sde" (user-only) or "simics" (full-system).
    frontend: str = "sde"
    prefetch_next_line: bool = True


class _CoreSimTool(TimingCore):
    """Single-core detailed model: TLBs, a next-line prefetcher, a
    syscall trap and, in full-system mode, ring-0 kernel streams."""

    name = "coresim"

    def __init__(self, config: CoreSimConfig, **roi) -> None:
        self.config = config
        self.hierarchy = CacheHierarchy.build(
            Cache("LLC", config.llc_kb, config.llc_assoc, 30),
            l1_kb=config.l1_kb, l2_kb=config.l2_kb,
            with_tlbs=True, tlb_entries=config.tlb_entries,
            tlb_penalty=config.tlb_penalty,
        )
        super().__init__(
            [self.hierarchy], width=config.dispatch_width,
            mispredict_penalty=config.mispredict_penalty,
            # long-latency execution costs (partially hidden by the window)
            long_ops={Op.DIV_RR: 18.0, Op.MOD_RR: 18.0, Op.FDIV: 11.0,
                      Op.IMUL_RR: 2.0, Op.IMUL_RI: 2.0, Op.FMUL: 2.5,
                      Op.FADD: 2.0, Op.FSUB: 2.0},
            interval=(TIMER_INTERVAL if config.frontend == "simics"
                      else None),
            **roi)
        if config.prefetch_next_line:
            self.data = [self._prefetching_data]
        self.ring0_instructions = 0
        self.prefetch_lines = 0
        self._kernel_episodes = 0

    def _run_kernel_stream(self, stream) -> None:
        self.ring0_instructions += stream.instructions
        self.cycles[0] += (stream.instructions
                           * (1.0 / self.config.dispatch_width))
        for kind, addr in stream.accesses():
            if kind == "fetch":
                self.cycles[0] += self.hierarchy.fetch_access(addr)
            else:
                self.cycles[0] += self.hierarchy.data_access(addr)

    def on_interval(self) -> None:
        self._kernel_episodes += 1
        self._run_kernel_stream(timer_stream(self._kernel_episodes))

    def _prefetching_data(self, addr: int) -> float:
        before = self.hierarchy.l1d.misses
        cycles = self.hierarchy.data_access(addr)
        if self.hierarchy.l1d.misses > before:
            # next-line prefetch into the LLC
            self.llc.access(addr + 64)
            self.prefetch_lines += 1
        return cycles

    def on_syscall_after(self, machine, thread, number, result) -> None:
        if not self.roi_active:
            return
        self.cycles[0] += self.config.syscall_trap_cycles
        if self.config.frontend == "simics":
            self._kernel_episodes += 1
            self._run_kernel_stream(
                syscall_stream(number, self._kernel_episodes))


@dataclass
class CoreSimResult:
    """Detailed-simulation statistics (the Table IV columns)."""

    config_name: str
    frontend: str
    status: ExitStatus
    instructions_ring3: int
    instructions_ring0: int
    runtime_cycles: float
    llc_misses: int
    dtlb_misses: int
    itlb_misses: int
    data_footprint_bytes: int
    prefetch_lines: int
    branch_mispredict_rate: float

    @property
    def instructions_total(self) -> int:
        return self.instructions_ring3 + self.instructions_ring0

    @property
    def ipc(self) -> float:
        if self.runtime_cycles == 0:
            return 0.0
        return self.instructions_total / self.runtime_cycles

    @property
    def cpi(self) -> float:
        ipc = self.ipc
        return 1.0 / ipc if ipc else 0.0

    @property
    def user_cpi(self) -> float:
        """Cycles per ring-3 instruction (for CPI-based validation)."""
        if self.instructions_ring3 == 0:
            return 0.0
        return self.runtime_cycles / self.instructions_ring3

    #: Post-warmup measurement window (filled by simulate_elfie when a
    #: warmup budget was given).
    measured_instructions: int = 0
    measured_cycles: float = 0.0

    @property
    def measured_cpi(self) -> float:
        """CPI of the post-warmup measured window (user instructions)."""
        if self.measured_instructions == 0:
            return self.user_cpi
        return self.measured_cycles / self.measured_instructions


class CoreSim:
    """CoreSim front-end: simulate ELFies or plain program binaries."""

    def __init__(self, config: Optional[CoreSimConfig] = None) -> None:
        self.config = config or CoreSimConfig()

    def _finish(self, tool: _CoreSimTool, status: ExitStatus) -> CoreSimResult:
        hierarchy = tool.hierarchy
        return CoreSimResult(
            config_name=self.config.name,
            frontend=self.config.frontend,
            status=status,
            instructions_ring3=tool.instructions,
            instructions_ring0=tool.ring0_instructions,
            runtime_cycles=tool.cycles[0],
            llc_misses=tool.llc.misses,
            dtlb_misses=hierarchy.dtlb.misses,
            itlb_misses=hierarchy.itlb.misses,
            data_footprint_bytes=tool.llc.footprint_bytes(),
            prefetch_lines=tool.prefetch_lines,
            branch_mispredict_rate=tool.mispredict_rate,
        )

    def simulate_elfie(self, image: bytes,
                       roi_budget: Optional[int] = None,
                       warmup_budget: int = 0,
                       seed: int = 0,
                       fs: Optional[FileSystem] = None,
                       workdir: str = "/",
                       max_instructions: int = 50_000_000) -> CoreSimResult:
        """Simulate an ELFie (startup skipped via the ROI marker).

        *warmup_budget* ROI instructions warm caches/TLBs before the
        measured window of *roi_budget* instructions begins, matching
        the PinPoints warmup methodology.
        """
        tool = _CoreSimTool(self.config, roi_budget=roi_budget,
                            warmup_budget=warmup_budget)
        status = tool.simulate_elfie(image, seed, fs, workdir,
                                     max_instructions)
        result = self._finish(tool, status)
        if tool.warmup_cycles is not None:
            result.measured_instructions = (tool.instructions
                                            - tool.warmup_budget)
            result.measured_cycles = tool.cycles[0] - tool.warmup_cycles
        return result

    def simulate_program(self, image: bytes,
                         max_instructions: Optional[int] = None,
                         seed: int = 0,
                         fs: Optional[FileSystem] = None) -> CoreSimResult:
        """Whole-program detailed simulation (the weeks-long baseline of
        the traditional validation flow).  The ROI is the entire run."""
        from repro.machine.loader import load_elf
        from repro.machine.machine import Machine

        machine = Machine(seed=seed, fs=fs)
        load_elf(machine, image)
        tool = _CoreSimTool(self.config, roi_armed=True)
        status = tool.simulate(machine, partial(
            machine.run, max_instructions=max_instructions),
            "simulate_program")
        return self._finish(tool, status)
