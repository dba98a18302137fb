"""The region-selection pipeline as one job graph (the paper's Fig. 1).

profile → select → log fat pinballs → ``pinball2elf`` → assemble →
validate.  PinPoints (:mod:`repro.simpoint.pinpoints`) and LoopPoint
(:mod:`repro.looppoint.driver`) are two :class:`RegionSelector` values
that supply only what differs between them.  Every driver runs this
graph: the direct drivers inline with no store (:func:`run_selection`),
campaigns on a :class:`~repro.farm.runner.FarmRunner` or a
:class:`~repro.service.campaign.ServiceCampaignRunner`
(:func:`run_campaign`) — so all paths agree by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.pinball2elf import ElfieArtifact, Pinball2Elf, Pinball2ElfOptions
from repro.farm.codec import stable_digest
from repro.farm.jobs import Job, JobGraph, Ref
from repro.farm.runner import DagRunner, FarmRunner
from repro.observe import hooks
from repro.pinplay.logger import log_regions
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec

#: Logger options of every capture (fat pinballs); part of the keys.
_LOG = {"fat": True}


@dataclass(frozen=True)
class RegionSelector:
    """What one region-selection method contributes to the pipeline."""

    #: Identity/version stamped into every memo key and manifest
    #: record, so two selectors' artifacts never collide in a store.
    name: str
    #: Prefix of the memo-key stage tags (``tag + "profile"``, ...).
    tag: str
    #: Region names are ``<app><infix><n>[.altN]``.
    infix: str
    #: Names of the slice and warmup parameters in the pipeline spec.
    slice_param: str
    warmup_param: str
    #: Converter options: the ROI marker, graceful-exit counters, and
    #: their budget multiplier (kept out of the keys at the default 1.0).
    options: Pinball2ElfOptions
    #: ``profile(image, slice_len, seed)``; a picklable job body.
    profile: Callable[[bytes, int, int], Any]
    #: ``select(profile, max_k, cluster_seed)``; a picklable job body.
    select: Callable[[Any, int, int], Any]
    #: ``result(app_name, profile, selection, regions)``: the result
    #: before capture.  A ``marker_windows`` attribute on it, if any,
    #: also goes into each region's convert key.
    result: Callable[..., Any]

    def key(self, stage: str, *parts: Any) -> str:
        return stable_digest([self.name, self.tag + stage, *parts])


class SelectionResult:
    """Primary and alternate views of a selector result's ``regions``."""

    regions: List[RegionSpec]

    @property
    def primary_regions(self) -> List[RegionSpec]:
        return [r for r in self.regions if ".alt" not in r.name]

    def alternates_for(self, region: RegionSpec) -> List[RegionSpec]:
        """Alternate regions of the same cluster, best first."""
        base = region.name.split(".alt")[0]
        return sorted(
            (r for r in self.regions if r.name.startswith(base + ".alt")),
            key=lambda r: r.name,
        )


@dataclass(frozen=True)
class FarmValidation:
    """A post-pipeline measurement pass: ``fn(result, image, **params)``
    must be a picklable module-level callable returning any picklable
    value (typically a ``ValidationResult``).  Its module and
    ``__qualname__`` are part of the pass's memo key."""

    label: str
    fn: Callable[..., Any]
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class FarmAppOutcome:
    """What the farm campaign produced for one app."""

    result: Any
    validations: Dict[str, Any] = field(default_factory=dict)


def _capture_passes(regions: Sequence[RegionSpec],
                    total_icount: int) -> List[List[RegionSpec]]:
    """Group capturable regions into non-overlapping logger passes.

    Windows of different regions may overlap (a big warmup around
    adjacent slices); overlapping ones are captured in separate passes.
    """
    capturable = [region for region in regions
                  if region.end <= total_icount]
    passes: List[List[RegionSpec]] = []
    for region in sorted(capturable, key=lambda r: r.warmup_start):
        for group in passes:
            if group and group[-1].end <= region.warmup_start:
                group.append(region)
                break
        else:
            passes.append([region])
    return passes


def _region_spec_tuple(region: RegionSpec) -> List[Any]:
    return [region.start, region.length, region.warmup, region.name,
            region.weight]


def _job_log_group(image: bytes, regions: Sequence[RegionSpec], seed: int,
                   program_icount: int) -> Dict[str, Pinball]:
    pinballs = log_regions(image, regions, seed=seed)
    for pinball in pinballs.values():
        pinball.program_icount = program_icount
    return pinballs


def _job_convert(pinball: Optional[Pinball],
                 options: Pinball2ElfOptions) -> Optional[ElfieArtifact]:
    if pinball is None:
        # the logger skipped this region (program ended early): there
        # is no ELFie for it
        return None
    return Pinball2Elf(pinball, options).convert()


def _job_assemble(result: Any, groups: List[Dict[str, Pinball]],
                  elfies: Dict[str, Optional[ElfieArtifact]]) -> Any:
    pinballs: Dict[str, Pinball] = {}
    for group in groups:
        pinballs.update(group)
    return dataclasses.replace(
        result, pinballs=pinballs,
        elfies={name: artifact for name, artifact in elfies.items()
                if artifact is not None})


def add_selection_jobs(graph: JobGraph, selector: RegionSelector,
                       image: bytes, app_name: str, slice_len: int,
                       warmup: int, max_k: int, seed: int,
                       max_alternates: int, cluster_seed: int,
                       validations: Sequence[FarmValidation] = ()) -> str:
    """Add one app's selection pipeline to a campaign graph.

    Each memo key digests a list that leads with the selector's ``name``
    and a stage tag (``selector.tag`` + ``profile``, ``select``, ``log``,
    ``elfie`` or ``validate``).  The rest is, for profile and select, the
    workload digest (image bytes, app, selector), the slice length and
    seed (plus ``max_k`` and the cluster seed); for log, the workload
    digest, seed, logger options and the pass's regions; for convert,
    the workload digest, the region, its marker window (LoopPoint only),
    seed, logger and converter options; for validate, the whole pipeline
    spec, the pass's label, its function's module and ``__qualname__``,
    and its params.  The log/convert/validate tail depends on the
    selection, so the select job's ``expand`` callback adds it.

    Returns the name of the app's assemble job (whose result is the
    selector's result object); validation jobs are named
    ``<app>/validate/<label>``.
    """
    workload = stable_digest({"image": image, "app": app_name,
                              "selector": selector.name})
    profile_name = "%s/profile" % app_name
    select_name = "%s/select" % app_name
    assemble_name = "%s/assemble" % app_name
    options = selector.options
    marker = [options.marker.marker_type, options.marker.tag]
    spec = {
        "selector": selector.name,
        "workload": workload,
        selector.slice_param: slice_len, selector.warmup_param: warmup,
        "max_k": max_k, "seed": seed, "cluster_seed": cluster_seed,
        "max_alternates": max_alternates,
        "marker": marker,
        "perf_exit": options.perf_exit,
        "log": _LOG,
    }
    convert_spec = {"perf_exit": options.perf_exit, "marker": marker}
    if options.perf_exit_slack != 1.0:
        convert_spec["slack"] = options.perf_exit_slack

    def add(name: str, fn: Callable[..., Any], args: tuple, stage: str,
            **extra: Any) -> None:
        graph.add(Job(name=name, fn=fn, args=args, stage=stage,
                      selector=selector.name, **extra))

    def expand_selection(selection: Any, graph: JobGraph,
                         results: Dict[str, Any]) -> None:
        profile = results[profile_name]
        result = selector.result(
            app_name, profile, selection,
            selection.regions(warmup, app_name + selector.infix,
                              max_alternates))
        windows = getattr(result, "marker_windows", {})
        group_refs: List[Ref] = []
        convert_refs: Dict[str, Ref] = {}
        for index, group in enumerate(_capture_passes(result.regions,
                                                      profile.total_icount)):
            group_name = "%s/log%d" % (app_name, index)
            add(group_name, _job_log_group,
                (image, list(group), seed, profile.total_icount), "log",
                key=selector.key("log", workload, seed, _LOG,
                                 [_region_spec_tuple(r) for r in group]),
                kind="pinballs", deps=(select_name,))
            group_refs.append(Ref(group_name))
            for region in group:
                convert_name = "%s/convert/%s" % (app_name, region.name)
                window = ([windows[region.name]] if region.name in windows
                          else [])
                add(convert_name, _job_convert,
                    (Ref(group_name,
                         select=lambda pbs, n=region.name: pbs.get(n)),
                     options), "convert",
                    key=selector.key("elfie", workload,
                                     _region_spec_tuple(region), *window,
                                     seed, _LOG, convert_spec))
                convert_refs[region.name] = Ref(convert_name)
        add(assemble_name, _job_assemble, (result, group_refs, convert_refs),
            "assemble", local=True)
        for validation in validations:
            fn = validation.fn
            add("%s/validate/%s" % (app_name, validation.label), fn,
                (Ref(assemble_name), image), "validate",
                kwargs=dict(validation.params),
                key=selector.key("validate", spec, validation.label,
                                 "%s.%s" % (fn.__module__, fn.__qualname__),
                                 validation.params))

    add(profile_name, selector.profile, (image, slice_len, seed), "profile",
        key=selector.key("profile", workload, slice_len, seed))
    add(select_name, selector.select, (Ref(profile_name), max_k, cluster_seed),
        "cluster", key=selector.key("select", workload, slice_len, seed,
                                    max_k, cluster_seed),
        expand=expand_selection)
    return assemble_name


def run_campaign(selector: RegionSelector, images: Dict[str, bytes],
                 runner: DagRunner,
                 validations: Sequence[FarmValidation] = (),
                 **params: Any) -> Dict[str, FarmAppOutcome]:
    """Run the pipeline for several apps on *runner*.

    *params* are :func:`add_selection_jobs`' pipeline parameters.  Apps
    whose assemble job did not finish (a preempted, non-strict run) are
    left out of the returned ``{app: FarmAppOutcome}``.
    """
    obs = hooks.OBS
    with obs.span("campaign.build", runner.category, apps=sorted(images),
                  selector=selector.name):
        graph = JobGraph()
        for app_name, image in images.items():
            add_selection_jobs(graph, selector, image, app_name,
                               validations=validations, **params)
    with obs.span("campaign.run", runner.category, apps=sorted(images),
                  workers=runner.jobs, selector=selector.name):
        results = runner.run(graph, strict=not runner.preemptible)
    outcomes: Dict[str, FarmAppOutcome] = {}
    for app_name in images:
        assembled = results.get("%s/assemble" % app_name)
        if assembled is None:
            continue  # preempted/deferred before this app finished
        prefix = "%s/validate/" % app_name
        outcomes[app_name] = FarmAppOutcome(assembled, {
            validation.label: results[prefix + validation.label]
            for validation in validations
            if prefix + validation.label in results})
    return outcomes


def run_selection(selector: RegionSelector, image: bytes, app_name: str,
                  **params: Any) -> Any:
    """The direct driver: run one app's graph inline, with no store.

    Job failures raise :class:`~repro.farm.runner.CampaignError` at
    once (no retries).
    """
    graph = JobGraph()
    assemble_name = add_selection_jobs(graph, selector, image, app_name,
                                       **params)
    return FarmRunner(None, jobs=1, retries=0).run(graph)[assemble_name]
