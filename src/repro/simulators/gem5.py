"""A gem5-like binary-driven simulator, SE mode (paper §III-C3, §IV-D).

gem5 is not Pin-based: it loads the binary itself and provides system
services directly (Syscall Emulation mode).  This model does the same —
it loads an ELFie (or any PX ELF executable) with its own copy of the
loader and emulates execution, feeding an out-of-order analytical core
model.

The core model is interval-style: instructions dispatch at the
configured width; long-latency (off-chip) misses stall the ROB for the
portion of the miss latency the window cannot hide, divided by the
memory-level parallelism the LSQ supports; branch mispredicts cost a
pipeline refill.  Two configurations reproduce Table V's comparison of
critical-resource scaling (Nehalem-like vs Haswell-like).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.instructions import Op
from repro.machine.machine import ExitStatus
from repro.machine.vfs import FileSystem
from repro.simulators.cachesim import Cache, CacheHierarchy, MEMORY_LATENCY
from repro.simulators.timing import TimingCore


@dataclass(frozen=True)
class Gem5Config:
    """An out-of-order machine configuration."""

    name: str
    width: int
    rob: int
    lsq: int
    regfile: int
    pipeline_depth: int
    l1_kb: int = 32
    l2_kb: int = 128
    llc_kb: int = 1024  # scaled with workloads (DESIGN.md §4)

    @property
    def mlp(self) -> float:
        """Memory-level parallelism the LSQ can sustain."""
        return max(1.0, self.lsq / 12.0)

    @property
    def effective_window(self) -> float:
        """The instruction window the machine can actually keep in
        flight: the ROB, unless the physical register file runs out
        first (about 40 registers are pinned to architectural state)."""
        return min(self.rob, max(self.regfile - 40, 16) * 1.6)

    @property
    def hidden_latency(self) -> float:
        """Miss cycles the window hides under continued dispatch."""
        return self.effective_window / self.width


#: The two Table V processor configurations.  Both are 4-wide: the case
#: study scales the *critical resources* (register file, ROB, load/store
#: queues), which is where the IPC difference comes from.
NEHALEM_LIKE = Gem5Config(name="nehalem-like", width=4, rob=128, lsq=48,
                          regfile=128, pipeline_depth=14)
HASWELL_LIKE = Gem5Config(name="haswell-like", width=4, rob=192, lsq=72,
                          regfile=168, pipeline_depth=14)


class _Gem5Tool(TimingCore):
    """The window/MLP stall model: off-chip misses stall for the latency
    the window cannot hide, divided by the memory-level parallelism."""

    name = "gem5"

    def __init__(self, config: Gem5Config, **roi) -> None:
        self.config = config
        self.hierarchy = CacheHierarchy.build(
            Cache("LLC", config.llc_kb, 16, 30),
            l1_kb=config.l1_kb, l2_kb=config.l2_kb)
        width = config.width
        super().__init__(
            [self.hierarchy], width=width,
            mispredict_penalty=config.pipeline_depth,
            # serialization cost of long-latency ALU ops shrinks with width
            long_ops={Op.DIV_RR: 20.0 / width, Op.MOD_RR: 20.0 / width,
                      Op.FDIV: 12.0 / width, Op.IMUL_RR: 2.0 / width,
                      Op.IMUL_RI: 2.0 / width, Op.FMUL: 2.0 / width},
            **roi)
        self.fetch = [self._fetch_stall]
        self.data = [self._data_stall]
        self._miss_stall = max(
            0.0, MEMORY_LATENCY - config.hidden_latency) / config.mlp
        # L2 hits are partially hidden by the window
        self._l2_hit_stall = max(0.0, 10.0 - config.hidden_latency / 8.0)

    def _fetch_stall(self, pc: int) -> float:
        before = self.llc.misses
        self.hierarchy.fetch_access(pc)
        return self._miss_stall if self.llc.misses > before else 0.0

    def _data_stall(self, addr: int) -> float:
        l2_before = self.hierarchy.l2.misses
        l1_before = self.hierarchy.l1d.misses
        self.hierarchy.data_access(addr)
        if self.hierarchy.l2.misses > l2_before:
            return self._miss_stall
        if self.hierarchy.l1d.misses > l1_before:
            return self._l2_hit_stall
        return 0.0


@dataclass
class Gem5Result:
    """SE-mode simulation outcome."""

    config_name: str
    status: ExitStatus
    instructions: int
    cycles: float
    llc_misses: int
    branch_mispredict_rate: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        ipc = self.ipc
        return 1.0 / ipc if ipc else 0.0


class Gem5Sim:
    """gem5 SE-mode front-end."""

    def __init__(self, config: Gem5Config = NEHALEM_LIKE) -> None:
        self.config = config

    def simulate_elfie(self, image: bytes,
                       roi_budget: Optional[int] = None,
                       warmup_budget: int = 0,
                       seed: int = 0,
                       fs: Optional[FileSystem] = None,
                       workdir: str = "/",
                       max_instructions: int = 50_000_000) -> Gem5Result:
        """Load and simulate an ELFie in SE mode.

        gem5 needs no modification for ELFies: the binary is loaded by
        the simulator's own loader and the ROI begins at the marker.
        With a *warmup_budget*, that many leading ROI instructions warm
        the microarchitectural state but are excluded from the reported
        instruction/cycle counts.
        """
        tool = _Gem5Tool(self.config, roi_budget=roi_budget,
                         warmup_budget=warmup_budget)
        status = tool.simulate_elfie(image, seed, fs, workdir,
                                     max_instructions)
        cycles = tool.cycles[0]
        instructions = tool.instructions
        if tool.warmup_cycles is not None:
            cycles -= tool.warmup_cycles
            instructions -= tool.warmup_budget
        return Gem5Result(
            config_name=self.config.name,
            status=status,
            instructions=instructions,
            cycles=cycles,
            llc_misses=tool.llc.misses,
            branch_mispredict_rate=tool.mispredict_rate,
        )
