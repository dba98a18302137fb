"""The LoopPoint selector: harvest, profile, cluster, capture, convert.

This module is the loop-marker :class:`~repro.farm.pipeline.RegionSelector`
(:data:`LOOPPOINT`) behind the one selection pipeline of
:mod:`repro.farm.pipeline` — the same graph, drivers and capture/convert
tail as :mod:`repro.simpoint.pinpoints` — but the selection stage is
marker-based and the produced ELFies' boundaries are *marker pairs*:
each captured region's manifest records the (module+offset,
crossing-count) pair delimiting it, with the realized icount window
used only to drive the deterministic logger.  The marker windows go
into each region's convert key and the result.

Farm memo keys carry :data:`REGION_SELECTOR`, so LoopPoint artifacts
and BBV-SimPoint artifacts for the same workload can never collide in
the store (the SimPoint pipeline stamps its own selector identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.markers import MarkerSpec
from repro.core.pinball2elf import ElfieArtifact, Pinball2ElfOptions
from repro.farm.jobs import JobGraph
from repro.farm.pipeline import (
    FarmAppOutcome,
    FarmValidation,
    RegionSelector,
    SelectionResult,
    add_selection_jobs,
    run_campaign,
    run_selection,
)
from repro.farm.runner import FarmRunner
from repro.farm.store import ArtifactStore
from repro.looppoint.markers import MarkerPoint
from repro.looppoint.profile import (
    DEFAULT_SLICE_MARKERS,
    LoopPointProfile,
    collect_looppoint,
)
from repro.looppoint.select import LoopPointResult, select_loop_regions
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec

#: Selector identity/version stamped into farm memo keys and manifests.
#: No key carries ``MARKER_MAP_VERSION``: keys digest the image the
#: marker map is harvested from, so bump this version when the harvest
#: or the selection algorithm changes.
REGION_SELECTOR = "looppoint/v1"

#: Graceful-exit budget multiplier for marker-bounded ELFies.  The
#: per-thread counters are armed at 2x the captured counts: a replay
#: under a shifted schedule redistributes spin between threads, so a
#: thread can legitimately need more instructions than it retired at
#: capture time before the region's work-marker crossings complete.
PERF_EXIT_SLACK = 2.0

#: JSON-able marker window: region name -> {"start": ..., "end": ...,
#: "skip": warmup crossings, "measure": region crossings}.  start/end
#: are MarkerPoint JSON (or None at program edges); skip/measure are
#: the replay recipe — skip that many work-marker crossings after the
#: ROI marker, then measure over the next ``measure`` crossings.
MarkerWindows = Dict[str, Dict[str, Any]]


@dataclass
class LoopPointsResult(SelectionResult):
    """Everything the LoopPoint pipeline produced for one program.

    Duck-type compatible with :class:`PinPointsResult` where it
    matters: ``repro.simpoint.validation.validate_with_elfies`` (and
    the farm validation passes built on it) accept either.
    """

    app_name: str
    profile: LoopPointProfile
    selection: LoopPointResult
    #: Primary + alternate regions (realized icount windows).
    regions: List[RegionSpec]
    #: region name -> marker-pair boundary (JSON form).
    marker_windows: MarkerWindows = field(default_factory=dict)
    #: region name -> captured fat pinball.
    pinballs: Dict[str, Pinball] = field(default_factory=dict)
    #: region name -> generated ELFie artifact.
    elfies: Dict[str, ElfieArtifact] = field(default_factory=dict)

    def marker_window(self, name: str) -> Tuple[Optional[MarkerPoint],
                                                Optional[MarkerPoint]]:
        window = self.marker_windows.get(name, {})

        def load(side: str) -> Optional[MarkerPoint]:
            data = window.get(side)
            return MarkerPoint.from_json(data) if data else None

        return load("start"), load("end")


def _result(app_name: str, profile: LoopPointProfile,
            selection: LoopPointResult,
            regions: List[RegionSpec]) -> LoopPointsResult:
    """The result before capture, with every region's marker window."""
    windows: MarkerWindows = {}
    for region in regions:
        start, end = selection.marker_window(region.name)
        skip, measure = selection.measure_crossings(region.name)
        windows[region.name] = {
            "start": start.to_json() if start else None,
            "end": end.to_json() if end else None,
            "skip": skip,
            "measure": measure,
        }
    return LoopPointsResult(app_name, profile, selection, regions,
                            marker_windows=windows)


LOOPPOINT = RegionSelector(
    name=REGION_SELECTOR, tag="", infix=".L",
    slice_param="slice_markers", warmup_param="warmup_slices",
    options=Pinball2ElfOptions(perf_exit=True,
                               marker=MarkerSpec("sniper", 0x100),
                               perf_exit_slack=PERF_EXIT_SLACK),
    profile=collect_looppoint, select=select_loop_regions, result=_result)


def run_looppoint(image: bytes, app_name: str,
                  slice_markers: int = DEFAULT_SLICE_MARKERS,
                  warmup_slices: int = 1,
                  max_k: int = 50,
                  seed: int = 0,
                  max_alternates: int = 2,
                  cluster_seed: int = 42) -> LoopPointsResult:
    """Run the full LoopPoint pipeline on *image* (direct path)."""
    return run_selection(LOOPPOINT, image, app_name, slice_len=slice_markers,
                         warmup=warmup_slices, max_k=max_k, seed=seed,
                         max_alternates=max_alternates,
                         cluster_seed=cluster_seed)


def add_looppoint_jobs(graph: JobGraph, image: bytes, app_name: str,
                       slice_markers: int = DEFAULT_SLICE_MARKERS,
                       warmup_slices: int = 1,
                       max_k: int = 50,
                       seed: int = 0,
                       max_alternates: int = 2,
                       cluster_seed: int = 42,
                       validations: Sequence[FarmValidation] = ()) -> str:
    """Add one app's LoopPoint pipeline to a campaign graph.

    See :func:`repro.farm.pipeline.add_selection_jobs` for the graph
    and its memo keys.  Returns the name of the app's assemble job
    (whose result is the :class:`LoopPointsResult`).
    """
    return add_selection_jobs(graph, LOOPPOINT, image, app_name,
                              slice_markers, warmup_slices, max_k, seed,
                              max_alternates, cluster_seed, validations)


def run_looppoint_campaign(images: Dict[str, bytes],
                           store: ArtifactStore,
                           jobs: Optional[int] = None,
                           manifest_path: Optional[str] = None,
                           runner: Optional[FarmRunner] = None,
                           slice_markers: int = DEFAULT_SLICE_MARKERS,
                           warmup_slices: int = 1,
                           max_k: int = 50,
                           seed: int = 0,
                           max_alternates: int = 2,
                           cluster_seed: int = 42,
                           validations: Sequence[FarmValidation] = (),
                           preemptible: bool = False,
                           ) -> Dict[str, FarmAppOutcome]:
    """Run the LoopPoint pipeline for several apps through the farm."""
    if runner is None:
        runner = FarmRunner(store, jobs=jobs, manifest_path=manifest_path,
                            preemptible=preemptible)
    return run_campaign(LOOPPOINT, images, runner, validations,
                        slice_len=slice_markers, warmup=warmup_slices,
                        max_k=max_k, seed=seed,
                        max_alternates=max_alternates,
                        cluster_seed=cluster_seed)
