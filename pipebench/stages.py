"""The pipeline stages a pass is made of, each call timed from outside.

- checkpoint: profile, select, capture fat pinballs, convert to ELFies
  (:func:`checkpoint_pinpoints`, :func:`checkpoint_looppoint`);
- study: replay, bounded native ELFie run, entry-state verification,
  ELFie-based validation and simulation (:func:`study`).

Only the packages' public names are used.  Counts a pass reports are
accumulated in a :class:`StudyCounts`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core import MarkerSpec, Pinball2Elf, Pinball2ElfOptions, run_elfie
from repro.looppoint import (
    LoopPointsResult,
    collect_looppoint,
    select_loop_regions,
    validate_looppoint,
)
from repro.looppoint.driver import PERF_EXIT_SLACK
from repro.pinplay import RegionSpec, log_regions, replay
from repro.simpoint import (
    PinPointsResult,
    collect_bbv,
    select_simpoints,
    validate_with_elfies,
)
from repro.simulators import CoreSim, Gem5Sim, SniperSim
from repro.verify import verify_elfie_entry

from pipebench.probe import Probe, Tally

#: ROI marker tags the two drivers stamp into their ELFies.
PINPOINTS_MARKER = MarkerSpec("sniper", 0xE1F)
LOOPPOINT_MARKER = MarkerSpec("sniper", 0x100)


def elfie_budget(region: RegionSpec) -> int:
    """Instruction budget of a stand-alone ELFie run of *region*.

    The formula of ``repro.simpoint.validation.measure_elfie_region``:
    startup (stack copy) + warmup + region, with headroom.  An ELFie
    that never exits gracefully stops here instead of hanging the run.
    """
    return 6 * (region.warmup + region.length) + 2_000_000


def capture_groups(regions: Sequence[RegionSpec],
                   total_icount: int) -> List[List[RegionSpec]]:
    """Regions grouped into logger passes whose windows do not overlap.

    Regions that end past the program's end cannot be captured.
    """
    groups: List[List[RegionSpec]] = []
    for region in sorted(regions, key=lambda r: r.warmup_start):
        if region.end > total_icount:
            continue
        for group in groups:
            if group[-1].end <= region.warmup_start:
                group.append(region)
                break
        else:
            groups.append([region])
    return groups


def _capture(probe: Probe, image: bytes, result, total_icount: int,
             seed: int, options: Pinball2ElfOptions) -> None:
    for group in capture_groups(result.regions, total_icount):
        with probe.time("pinplay.log_regions"):
            pinballs = log_regions(image, group, seed=seed)
        for name, pinball in pinballs.items():
            pinball.program_icount = total_icount
            result.pinballs[name] = pinball
            with probe.time("core.pinball2elf"):
                result.elfies[name] = Pinball2Elf(pinball, options).convert()


def checkpoint_pinpoints(probe: Probe, image: bytes, app: str, seed: int,
                         slice_size: int, warmup: int, max_k: int,
                         alternates: int) -> PinPointsResult:
    """PinPoints: BBV profile, SimPoint selection, capture, convert."""
    with probe.time("simpoint.collect_bbv"):
        profile = collect_bbv(image, slice_size=slice_size, seed=seed)
    with probe.time("simpoint.select_simpoints"):
        simpoints = select_simpoints(profile, max_k=max_k, seed=seed)
    regions = simpoints.regions(warmup=warmup, name_prefix="%s.r" % app,
                                max_alternates=alternates)
    result = PinPointsResult(app_name=app, profile=profile,
                             simpoints=simpoints, regions=regions)
    _capture(probe, image, result, profile.total_icount, seed,
             Pinball2ElfOptions(perf_exit=True, marker=PINPOINTS_MARKER))
    return result


def checkpoint_looppoint(probe: Probe, image: bytes, app: str, seed: int,
                         slice_markers: int, max_k: int,
                         alternates: int) -> LoopPointsResult:
    """LoopPoint: marker profile, marker-window selection, capture, convert."""
    with probe.time("looppoint.collect_looppoint"):
        profile = collect_looppoint(image, slice_markers=slice_markers,
                                    seed=seed)
    with probe.time("looppoint.select_loop_regions"):
        selection = select_loop_regions(profile, max_k=max_k, seed=seed)
    regions = selection.regions(warmup_slices=1, name_prefix="%s.L" % app,
                                max_alternates=alternates)
    windows = {}
    for region in regions:
        start, end = selection.marker_window(region.name)
        skip, measure = selection.measure_crossings(region.name)
        windows[region.name] = {
            "start": start.to_json() if start else None,
            "end": end.to_json() if end else None,
            "skip": skip,
            "measure": measure,
        }
    result = LoopPointsResult(app_name=app, profile=profile,
                              selection=selection, regions=regions,
                              marker_windows=windows)
    _capture(probe, image, result, profile.total_icount, seed,
             Pinball2ElfOptions(perf_exit=True,
                                perf_exit_slack=PERF_EXIT_SLACK,
                                marker=LOOPPOINT_MARKER))
    return result


@dataclass
class StudyCounts:
    """What the study stages of one pass counted."""

    profiled_instructions: int = 0
    replay_instructions: int = 0
    elfie_instructions: int = 0
    startup_instructions: int = 0
    app_instructions: int = 0
    ungraceful_exits: int = 0
    entry_failures: int = 0
    #: simulator -> ROI instructions simulated / simulated cycles.
    sim_instructions: Dict[str, int] = field(default_factory=dict)
    sim_cycles: Dict[str, float] = field(default_factory=dict)
    #: |CPI prediction error| in percent, one per validated app.
    cpi_errors: List[float] = field(default_factory=list)


def _simulate(probe: Probe, simulator: str, image: bytes, region: RegionSpec,
              seed: int, counts: StudyCounts, tally: Tally) -> None:
    # The ELFie's ROI marker sits at the captured window start, so the
    # ROI is the effective warmup followed by the region.
    warmup = region.start - region.warmup_start
    with probe.time("simulators." + simulator):
        if simulator == "sniper":
            result = SniperSim().simulate_elfie(
                image, roi_budget=warmup + region.length, seed=seed)
            roi, expected, cycles = (result.instructions,
                                     warmup + region.length,
                                     result.runtime_cycles)
            measured = roi
        elif simulator == "coresim":
            result = CoreSim().simulate_elfie(
                image, roi_budget=region.length, warmup_budget=warmup,
                seed=seed)
            roi, measured, expected, cycles = (
                result.instructions_ring3, result.measured_instructions,
                region.length, result.runtime_cycles)
        else:
            result = Gem5Sim().simulate_elfie(
                image, roi_budget=region.length, warmup_budget=warmup,
                seed=seed)
            roi, measured, expected, cycles = (
                result.instructions + warmup, result.instructions,
                region.length, result.cycles)
    counts.sim_instructions[simulator] = (
        counts.sim_instructions.get(simulator, 0) + roi)
    counts.sim_cycles[simulator] = (
        counts.sim_cycles.get(simulator, 0.0) + cycles)
    tally.op(measured == expected, "%s-roi: %s simulated %d of %d"
             % (simulator, region.name, measured, expected))


def study(probe: Probe, result, regions: Sequence[RegionSpec],
          simulators: Sequence[str], seed: int, counts: StudyCounts,
          tally: Tally, trials: int = 1) -> None:
    """Replay, run, verify and simulate *regions* of *result*; validate it.

    Validation measures the primary regions of *result* (alternates
    stand in for a primary whose ELFie fails), *trials* times each.
    """
    studied = [region for region in regions if region.name in result.elfies]
    with probe.time("bench.replay"):
        for region in studied:
            with probe.time("pinplay.replay"):
                replayed = replay(result.pinballs[region.name], seed=seed)
            counts.replay_instructions += replayed.total_icount
            tally.op(replayed.matches_recording,
                     "replay: %s diverged: %s" % (region.name,
                                                  replayed.diverged))
    with probe.time("bench.run_elfie"):
        for region in studied:
            with probe.time("core.run_elfie"):
                run = run_elfie(result.elfies[region.name].image, seed=seed,
                                max_instructions=elfie_budget(region))
            counts.elfie_instructions += run.machine.total_icount()
            counts.startup_instructions += sum(run.startup_icounts.values())
            counts.app_instructions += run.total_app_icount
            if not run.graceful:
                counts.ungraceful_exits += 1
            tally.op(run.graceful, "elfie: %s ended %s (%s)"
                     % (region.name, run.status.kind, run.status.detail),
                     check=False)
    with probe.time("bench.verify"):
        for region in studied:
            with probe.time("verify.verify_elfie_entry"):
                report = verify_elfie_entry(
                    result.elfies[region.name].image,
                    result.pinballs[region.name], seed=seed)
            if not report.ok:
                counts.entry_failures += 1
            tally.op(report.ok, "entry: %s: %s" % (region.name, report))
    with probe.time("bench.validate"):
        if isinstance(result, LoopPointsResult):
            with probe.time("looppoint.validate_looppoint"):
                validation = validate_looppoint(result, seed=seed,
                                                trials=trials)
        else:
            with probe.time("simpoint.validate_with_elfies"):
                validation = validate_with_elfies(result, seed=seed,
                                                  trials=trials)
        counts.cpi_errors.append(validation.abs_error_percent)
    with probe.time("bench.simulate"):
        for region in studied:
            for simulator in simulators:
                _simulate(probe, simulator, result.elfies[region.name].image,
                          region, seed, counts, tally)


def elfie_digests(result) -> Dict[str, str]:
    """Region name -> sha256 of its ELFie image."""
    return {name: hashlib.sha256(artifact.image).hexdigest()
            for name, artifact in sorted(result.elfies.items())}


def outcome_digest(result) -> str:
    """One digest over a pipeline result's regions, pinballs and ELFies."""
    digest = hashlib.sha256()
    for region in result.regions:
        digest.update(repr((region.name, region.start, region.length,
                            region.warmup, region.weight)).encode())
    for name, pinball in sorted(result.pinballs.items()):
        digest.update(name.encode())
        digest.update(pinball.save_bytes())
    for name, elfie in sorted(elfie_digests(result).items()):
        digest.update((name + elfie).encode())
    return digest.hexdigest()
