"""Validation of simulation-region selection (paper §IV-A).

The quality metric is the *prediction error*::

    error = (whole_program_CPI - region_predicted_CPI) / whole_program_CPI

where the predicted CPI is the region-weight-weighted mean of per-region
CPIs.  The paper computes the true value two ways:

- **traditionally**, by simulating the entire program (weeks of
  simulation time), and
- **with ELFies**, by running the whole program and each region ELFie
  natively with hardware counters (an hour).

Both are implemented here.  Failed ELFies (signal exits, short runs)
are replaced by their cluster's alternate representatives, reproducing
the paper's coverage-recovery strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, List, Optional

from repro.core.elfie import prepare_elfie_machine
from repro.core.pinball2elf import ElfieArtifact
from repro.machine.loader import LoaderError
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.pinplay.regions import RegionSpec
from repro.simpoint.pinpoints import PinPointsResult


def prediction_error(true_value: float, predicted: float) -> float:
    """The paper's error definition: (true - predicted) / true."""
    if true_value == 0:
        return 0.0
    return (true_value - predicted) / true_value


class _RegionMeter(Tool):
    """Measures cycles over the captured region, skipping the warmup.

    Watches the ROI marker; once ``warmup`` post-marker instructions
    have retired *machine-wide* the meter starts, and after ``length``
    more it stops the machine.  Progress is global (summed over all
    threads) because region windows are defined in global instruction
    counts: for a multi-threaded ELFie each thread retires only a
    fraction of the window, and the ELFie's perf-counter exit fires on
    the global count — a per-thread meter would never finish.  For a
    single-threaded ELFie global and per-thread progress coincide, so
    the measurement is unchanged.  Cycle counts come from the simulated
    hardware timing model, so attaching this tool does not perturb the
    measurement (unlike a real Pintool).

    Both boundaries are machine triggers.  The marker itself counts as
    progress 1, so with no warmup the meter starts one instruction after
    it; the window then ends ``warmup + length`` past the marker, and at
    least one instruction after the start.
    """

    wants_markers = True
    #: Appended to the detail of an incomplete measurement.
    progress = ""

    def __init__(self, warmup: int, length: int) -> None:
        self.warmup = warmup
        self.length = length
        self.start_cycles: Optional[int] = None
        self.end_cycles: Optional[int] = None
        self._end_at: Optional[int] = None

    def on_marker(self, machine, thread, pc, tag) -> None:
        if self._end_at is not None:
            return
        base = machine.total_icount()
        self._end_at = base + self.warmup + self.length
        machine.set_trigger(self, base + max(self.warmup, 1))

    def on_trigger(self, machine, thread) -> None:
        if self.start_cycles is None:
            self.start_cycles = machine.total_cycles()
            machine.set_trigger(self, max(self._end_at,
                                          machine.total_icount() + 1))
            return
        self.end_cycles = machine.total_cycles()
        machine.request_stop("region measured")

    @property
    def cpi(self) -> Optional[float]:
        if self.start_cycles is None or self.end_cycles is None:
            return None
        return (self.end_cycles - self.start_cycles) / self.length


@dataclass
class RegionMeasurement:
    """Native measurement of one region ELFie."""

    region: RegionSpec
    cpi: Optional[float]
    ok: bool
    detail: str = ""
    used_alternate: Optional[str] = None
    #: Work-denominated rates (LoopPoint marker metering only): cycles
    #: and retired instructions per work-marker crossing over the
    #: measured window.  None for icount-metered measurements.
    cycles_per_work: Optional[float] = None
    icount_per_work: Optional[float] = None


@dataclass
class ValidationResult:
    """Outcome of validating one program's region selection."""

    app_name: str
    whole_program_cpi: float
    measurements: List[RegionMeasurement] = field(default_factory=list)

    @property
    def covered_weight(self) -> float:
        """Coverage: the summed weight of correctly-executing regions."""
        return sum(m.region.weight for m in self.measurements if m.ok)

    @property
    def predicted_cpi(self) -> float:
        """Weight-normalized predicted CPI over covered regions."""
        covered = self.covered_weight
        if covered == 0:
            return 0.0
        return sum(
            m.region.weight * m.cpi for m in self.measurements if m.ok
        ) / covered

    @property
    def error(self) -> float:
        return prediction_error(self.whole_program_cpi, self.predicted_cpi)

    @property
    def abs_error_percent(self) -> float:
        return abs(self.error) * 100.0


def measure_elfie_region(artifact: ElfieArtifact, region: RegionSpec,
                         seed: int = 0,
                         fs: Optional[FileSystem] = None,
                         workdir: str = "/",
                         budget_factor: int = 6) -> RegionMeasurement:
    """Run a region ELFie natively and measure its post-warmup CPI."""
    # The marker sits at the captured window start (warmup_start); the
    # instructions to skip are those actually captured before the
    # region, which is less than the nominal warmup when the region
    # starts early in the program.
    meter = _RegionMeter(warmup=region.start - region.warmup_start,
                         length=region.length)
    return run_region_meter(artifact, region, meter, seed=seed, fs=fs,
                            workdir=workdir, budget_factor=budget_factor)


def run_region_meter(artifact: ElfieArtifact, region: RegionSpec, meter,
                     seed: int, fs: Optional[FileSystem], workdir: str,
                     budget_factor: int) -> RegionMeasurement:
    """Run a region ELFie under *meter* and report the meter's ``cpi``.

    A loader failure (stack collision), a fatal signal, or a run that
    ends before the meter has a CPI is a failed measurement.
    """
    try:
        machine, _loaded = prepare_elfie_machine(
            artifact.image, seed=seed, fs=fs, workdir=workdir)
    except LoaderError as exc:
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail="loader: %s" % exc)
    machine.attach(meter)
    # Budget: startup (stack copy) + warmup + region, with headroom.
    budget = budget_factor * (region.warmup + region.length) + 2_000_000
    status = machine.run(max_instructions=budget)
    machine.detach(meter)
    cpi = meter.cpi
    if cpi is None:
        detail = ("died: %s" % status.detail if status.kind == "signal"
                  else "incomplete: %s%s" % (status.detail, meter.progress))
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail=detail)
    return RegionMeasurement(region=region, cpi=cpi, ok=True)


def validate_with_elfies(result: PinPointsResult,
                         seed: int = 0,
                         trials: int = 3,
                         fs: Optional[FileSystem] = None,
                         use_alternates: bool = True) -> ValidationResult:
    """ELFie-based validation: native runs instead of simulation.

    Each region is measured ``trials`` times (different scheduler
    seeds) and averaged, as the paper does (ten trials per
    measurement).  When a primary region's ELFie fails, the cluster's
    alternates are tried in order.
    """
    return validate_regions(ValidationResult, result,
                            partial(measure_elfie_region, fs=fs), seed=seed,
                            trials=trials, use_alternates=use_alternates)


def validate_regions(validation_type: Callable[..., ValidationResult],
                     result, measure: Callable[..., Any], seed: int,
                     trials: int, use_alternates: bool) -> ValidationResult:
    """Measure every primary region of a selector *result*.

    ``measure(artifact, region, seed)`` runs one trial of one region's
    ELFie, or returns ``None`` when that region cannot be measured at
    all.  Each region is measured ``trials`` times under seeds
    ``seed``, ``seed + 101``, ... and the rates are averaged; when a
    trial fails, the cluster's alternates are tried in order.  Shared by
    the PinPoints and LoopPoint validations, which differ in ``measure``.
    """
    validation = validation_type(
        app_name=result.app_name,
        whole_program_cpi=result.profile.whole_program_cpi,
    )
    for region in result.primary_regions:
        validation.measurements.append(_measure_with_alternates(
            result, region, measure, seed, trials, use_alternates))
    return validation


def _measure_with_alternates(result, region: RegionSpec,
                             measure: Callable[..., Any],
                             seed: int, trials: int,
                             use_alternates: bool) -> RegionMeasurement:
    candidates = [region]
    if use_alternates:
        candidates += result.alternates_for(region)
    last: Optional[RegionMeasurement] = None
    for candidate in candidates:
        artifact = result.elfies.get(candidate.name)
        if artifact is None:
            continue
        runs: List[RegionMeasurement] = []
        failure: Optional[RegionMeasurement] = None
        for trial in range(trials):
            measurement = measure(artifact, candidate, seed + trial * 101)
            if measurement is None:
                break  # not measurable: try the next candidate
            if not measurement.ok:
                failure = measurement
                break
            runs.append(measurement)
        if runs and failure is None:

            def mean(rate: str) -> Optional[float]:
                values = [getattr(run, rate) for run in runs]
                return None if None in values else sum(values) / len(values)

            return RegionMeasurement(
                region=RegionSpec(
                    start=candidate.start, length=candidate.length,
                    warmup=candidate.warmup, name=candidate.name,
                    weight=region.weight,
                ),
                cpi=mean("cpi"),
                ok=True,
                used_alternate=(candidate.name
                                if candidate.name != region.name else None),
                cycles_per_work=mean("cycles_per_work"),
                icount_per_work=mean("icount_per_work"),
            )
        last = failure or last
    if last is not None:
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail=last.detail)
    return RegionMeasurement(region=region, cpi=None, ok=False,
                             detail="no ELFie available")


def validate_with_simulator(
        result: PinPointsResult,
        whole_cpi_fn: Callable[[], float],
        region_cpi_fn: Callable[[ElfieArtifact, RegionSpec], Optional[float]],
) -> ValidationResult:
    """Traditional, simulation-based validation.

    ``whole_cpi_fn`` simulates the entire program (the expensive step
    the paper replaces); ``region_cpi_fn`` simulates one region ELFie.
    """
    validation = ValidationResult(
        app_name=result.app_name,
        whole_program_cpi=whole_cpi_fn(),
    )
    for region in result.primary_regions:
        artifact = result.elfies.get(region.name)
        cpi = region_cpi_fn(artifact, region) if artifact else None
        validation.measurements.append(
            RegionMeasurement(region=region, cpi=cpi, ok=cpi is not None,
                              detail="" if cpi is not None else "no result")
        )
    return validation
