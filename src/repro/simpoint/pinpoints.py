"""The PinPoints selector: profile, cluster, capture, convert (paper §IV-A).

PinPoints automates "profiling an x86 application, finding phases, and
creating a checkpoint called a pinball for each representative region".
This module is the BBV-SimPoint :class:`~repro.farm.pipeline.RegionSelector`
(:data:`PINPOINTS`) behind the one selection pipeline of
:mod:`repro.farm.pipeline`, plus its public drivers:

- :func:`run_pinpoints` — the direct path: the pipeline's job graph run
  inline in one process, with no store;
- :func:`run_pinpoints_campaign` / :func:`run_pinpoints_farm` — the
  same graph (profile → cluster → log regions → pinball2elf → validate)
  fanned across a worker pool and memoized through a content-addressed
  artifact store, so a re-run with unchanged inputs is a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

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
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec
from repro.simpoint.bbv import BBVProfile, collect_bbv
from repro.simpoint.simpoint import SimPointResult, select_simpoints

#: Region-selector identity/version for this pipeline.  Farm memo keys
#: lead with it (and manifests record it), so BBV-SimPoint artifacts
#: and LoopPoint artifacts for the same workload never collide in the
#: store.  Bump the version when the selection algorithm changes.
REGION_SELECTOR = "bbv-simpoint/v1"


@dataclass
class PinPointsResult(SelectionResult):
    """Everything the PinPoints pipeline produced for one program."""

    app_name: str
    profile: BBVProfile
    simpoints: SimPointResult
    #: Primary + alternate regions (rank encoded in the region name).
    regions: List[RegionSpec]
    #: region name -> captured fat pinball.
    pinballs: Dict[str, Pinball] = field(default_factory=dict)
    #: region name -> generated ELFie artifact.
    elfies: Dict[str, ElfieArtifact] = field(default_factory=dict)


def _job_profile(image: bytes, slice_size: int, seed: int) -> BBVProfile:
    # Always preemptible: the poll is one Event check per slice, and a
    # preemption is only ever requested by a draining worker's SIGTERM
    # handler (or a --preemptible campaign runner).
    return collect_bbv(image, slice_size=slice_size, seed=seed,
                       preemptible=True)


PINPOINTS = RegionSelector(
    name=REGION_SELECTOR, tag="pinpoints.", infix=".r",
    slice_param="slice_size", warmup_param="warmup",
    options=Pinball2ElfOptions(perf_exit=True,
                               marker=MarkerSpec("sniper", 0xE1F)),
    profile=_job_profile, select=select_simpoints, result=PinPointsResult)


def run_pinpoints(image: bytes, app_name: str,
                  slice_size: int = 20_000,
                  warmup: int = 80_000,
                  max_k: int = 50,
                  seed: int = 0,
                  max_alternates: int = 2,
                  cluster_seed: int = 42) -> PinPointsResult:
    """Run the full PinPoints pipeline on *image*.

    A fat pinball is logged per region (primaries and up to
    *max_alternates* alternates) and converted to an ELFie with a ROI
    marker and graceful-exit counters.
    """
    return run_selection(PINPOINTS, image, app_name, slice_len=slice_size,
                         warmup=warmup, max_k=max_k, seed=seed,
                         max_alternates=max_alternates,
                         cluster_seed=cluster_seed)


def add_pinpoints_jobs(graph: JobGraph, image: bytes, app_name: str,
                       slice_size: int = 20_000,
                       warmup: int = 80_000,
                       max_k: int = 50,
                       seed: int = 0,
                       max_alternates: int = 2,
                       cluster_seed: int = 42,
                       validations: Sequence[FarmValidation] = ()) -> str:
    """Add one app's PinPoints pipeline to a campaign graph.

    See :func:`repro.farm.pipeline.add_selection_jobs` for the graph
    and its memo keys.  Returns the name of the app's assemble job
    (whose result is the :class:`PinPointsResult`).
    """
    return add_selection_jobs(graph, PINPOINTS, image, app_name, slice_size,
                              warmup, max_k, seed, max_alternates,
                              cluster_seed, validations)


def run_pinpoints_campaign(images: Dict[str, bytes],
                           store: ArtifactStore,
                           jobs: Optional[int] = None,
                           manifest_path: Optional[str] = None,
                           runner: Optional[FarmRunner] = None,
                           slice_size: int = 20_000,
                           warmup: int = 80_000,
                           max_k: int = 50,
                           seed: int = 0,
                           max_alternates: int = 2,
                           cluster_seed: int = 42,
                           validations: Sequence[FarmValidation] = (),
                           preemptible: bool = False,
                           ) -> Dict[str, FarmAppOutcome]:
    """Run the PinPoints pipeline for several apps through the farm.

    Independent per-app jobs fan out across the runner's worker pool;
    every completed job is memoized in *store*, so re-running the same
    campaign is a warm, logger/converter-free pass.  Produces exactly
    what :func:`run_pinpoints` + the validation functions produce for
    each app, plus the run manifest for observability.

    With *preemptible*, a requested preemption (SIGTERM under
    ``farm run --preemptible``) checkpoints the in-flight profile job
    into the store, defers the rest of the graph, and returns the apps
    that did finish; re-running the identical campaign resumes from
    the memoized results plus the checkpoint.
    """
    if runner is None:
        runner = FarmRunner(store, jobs=jobs, manifest_path=manifest_path,
                            preemptible=preemptible)
    return run_campaign(PINPOINTS, images, runner, validations,
                        slice_len=slice_size, warmup=warmup, max_k=max_k,
                        seed=seed, max_alternates=max_alternates,
                        cluster_seed=cluster_seed)


def run_pinpoints_farm(image: bytes, app_name: str,
                       store: ArtifactStore,
                       **kwargs: Any) -> FarmAppOutcome:
    """Single-app convenience wrapper over the campaign runner."""
    return run_pinpoints_campaign({app_name: image}, store,
                                  **kwargs)[app_name]


# ---------------------------------------------------------------------------
# Validation passes.
# ---------------------------------------------------------------------------

def _validate_elfies_job(result: "PinPointsResult", image: bytes,
                         **kwargs) -> Any:
    # imported lazily: validation.py imports this module
    from repro.simpoint.validation import validate_with_elfies
    return validate_with_elfies(result, **kwargs)


def elfie_validation(label: str, seed: int = 0, trials: int = 3,
                     use_alternates: bool = True) -> FarmValidation:
    """The standard ELFie-based validation pass as a farm job spec."""
    return FarmValidation(label, _validate_elfies_job,
                          {"seed": seed, "trials": trials,
                           "use_alternates": use_alternates})


def _verify_fidelity_job(result: "PinPointsResult", image: bytes,
                         **kwargs: Any) -> Dict[str, Any]:
    from repro.verify import verify_pinball

    names = sorted(result.pinballs)
    max_regions = kwargs.get("max_regions")
    skipped = 0
    if max_regions is not None and len(names) > max_regions:
        skipped = len(names) - max_regions
        names = names[:max_regions]
    reports = {
        name: verify_pinball(image, result.pinballs[name],
                             seed=kwargs.get("seed", 0),
                             epochs=kwargs.get("epochs", 8),
                             bisect=kwargs.get("bisect", True)).to_json()
        for name in names
    }
    return {
        "ok": all(report["ok"] for report in reports.values()),
        "checked": len(reports),
        "skipped": skipped,
        "regions": reports,
    }


def fidelity_validation(label: str, seed: int = 0, epochs: int = 8,
                        bisect: bool = True,
                        max_regions: Optional[int] = None) -> FarmValidation:
    """Differential replay-fidelity check as a farm validation pass.

    Runs :func:`repro.verify.verify_pinball` (native vs replay in
    digest-checkpointed epochs) over every captured region; the job
    result is memoized in the store like any other validation, so a
    re-run of an unchanged campaign is free.
    """
    params: Dict[str, Any] = {"seed": seed, "epochs": epochs,
                              "bisect": bisect}
    if max_regions is not None:
        params["max_regions"] = max_regions
    return FarmValidation(label, _verify_fidelity_job, params)
