"""The three x86 simulators the paper drives with ELFies (§III-C, §IV).

- :mod:`repro.simulators.timing` -- the timing core all three share, a
  Pin tool on the machine's hooks: marker-armed ROI, branch resolution,
  thread-to-core mapping, warmup and stop checks, the ELFie driver,
- :mod:`repro.simulators.sniper` -- a Sniper-like multi-core interval
  model with a timing-driven thread scheduler; simulates ELFies
  unmodified and replays pinballs in constrained mode (Fig. 11),
- :mod:`repro.simulators.coresim` -- a CoreSim-like detailed model
  with two front-ends: SDE-style user-only and Simics-style full-system
  (ring-0 kernel instruction streams, TLBs — Table IV),
- :mod:`repro.simulators.gem5` -- a gem5-like binary-driven SE-mode
  simulator with an out-of-order window/MLP stall model and two machine
  configurations (Nehalem-like, Haswell-like — Table V),
- :mod:`repro.simulators.cachesim` / :mod:`repro.simulators.branch` --
  the shared cache/TLB and branch-predictor component models,
- :mod:`repro.simulators.kernelmodel` -- synthetic ring-0 instruction
  streams standing in for OS execution in full-system mode.
"""

from repro.simulators.cachesim import Cache, CacheHierarchy, Tlb
from repro.simulators.branch import BranchPredictor
from repro.simulators.sniper import SniperConfig, SniperResult, SniperSim
from repro.simulators.coresim import (
    CoreSimConfig,
    CoreSimResult,
    CoreSim,
)
from repro.simulators.gem5 import (
    Gem5Config,
    Gem5Result,
    Gem5Sim,
    NEHALEM_LIKE,
    HASWELL_LIKE,
)

__all__ = [
    "Cache",
    "CacheHierarchy",
    "Tlb",
    "BranchPredictor",
    "SniperConfig",
    "SniperResult",
    "SniperSim",
    "CoreSimConfig",
    "CoreSimResult",
    "CoreSim",
    "Gem5Config",
    "Gem5Result",
    "Gem5Sim",
    "NEHALEM_LIKE",
    "HASWELL_LIKE",
]
