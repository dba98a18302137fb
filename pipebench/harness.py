"""Runs a workload's passes for the time given and turns them into metrics.

An untraced run (``--trace 0``) gives the end-to-end metrics: the
median over its passes.  A traced run (``--trace 1``) alternates
untraced and traced passes; the traced ones record the benchmark's
spans into a :class:`repro.observe.Tracer` (written out as a Chrome
trace) with the program's own ``repro.observe`` hooks enabled, and give
the per-layer metrics.  Each pass sets the workload up afresh;
``setup_s`` is the median of more set-ups timed before the passes (see
:data:`SETUP_REPEATS`).  Every time is in reference seconds (see
:mod:`pipebench.probe`).
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.observe import MetricsRegistry, Tracer, hooks
from repro.workloads import run_program

from pipebench.metrics import (
    END_TO_END,
    LAYERS,
    PER_LAYER,
    SERVICE_VERBS,
    SIMULATORS,
)
from pipebench.probe import Probe, SpeedSampler, Tally
from pipebench.stages import StudyCounts
from pipebench.stats import failed_share, kips, median, self_times
from pipebench.workloads import WORKLOADS

#: Set-ups timed for ``setup_s``: at least SETUP_REPEATS, and more, up
#: to SETUP_MAX_REPEATS, until SETUP_MIN_S have gone on them, so that a
#: set-up of a few milliseconds gets a steady median too.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_MIN_S = 1.0

#: The traced pass's per-layer self times must add up to its measured
#: pipeline_s within this share of it.
SELF_TIME_TOLERANCE = 0.01


def _root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers worker processes
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _e2e(probe: Probe, counts: StudyCounts) -> Dict[str, float]:
    """End-to-end values of one pass (setup, memory, failures are per run)."""
    seconds, samples = probe.reference()
    sim_seconds = sum(seconds["simulators." + sim] for sim in
                      counts.sim_instructions)
    warm = samples.get("bench.warm")
    return {
        "pipeline_s": seconds["bench.pass"] - seconds["check.digest"],
        "checkpoint_s": seconds["bench.checkpoint"],
        "replay_kips": kips(counts.replay_instructions,
                            seconds["pinplay.replay"]),
        "elfie_kips": kips(counts.elfie_instructions,
                           seconds["core.run_elfie"]),
        "validate_s": seconds["bench.validate"],
        "sim_kips": kips(sum(counts.sim_instructions.values()), sim_seconds),
        "cpi_error_pct": (sum(counts.cpi_errors) / len(counts.cpi_errors)
                          if counts.cpi_errors else 0.0),
        # cold: making the checkpoints from nothing; warm: using them
        # again -- a campaign re-run against the full store, or, for a
        # direct pipeline, the study stages on the ELFies just made
        "cold_s": seconds["bench.checkpoint"],
        "warm_s": median(warm) if warm else seconds["bench.study"],
    }


def _per_layer(probe: Probe, counts: StudyCounts, registry: MetricsRegistry,
               extras: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one traced pass."""
    seconds, samples = probe.reference()
    # Self times come from the raw trace, speed sampling included; the
    # layers' must add up to the raw pass less its digest checks, and
    # are scaled like the pass.
    raw: Dict[str, float] = defaultdict(float)
    for name, start, end, _inside in probe.intervals:
        raw[name] += end - start
    raw_pass = raw["bench.pass"] - raw["check.digest"]
    pipeline = seconds["bench.pass"] - seconds["check.digest"]
    scale = pipeline / raw_pass
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    lease = snapshot["histograms"].get("service.lease_latency_s", {})
    hits = counters.get("cpu.block_cache.hits", 0)
    lookups = hits + counters.get("cpu.block_cache.misses", 0)
    executed = counts.startup_instructions + counts.app_instructions
    values = {
        "simpoint.collect_bbv_s": seconds["simpoint.collect_bbv"],
        "simpoint.profile_kips": kips(counts.profiled_instructions,
                                      seconds["simpoint.collect_bbv"]),
        "simpoint.select_s": seconds["simpoint.select_simpoints"],
        "simpoint.validate_s": seconds["simpoint.validate_with_elfies"],
        "looppoint.collect_s": seconds["looppoint.collect_looppoint"],
        "looppoint.select_s": seconds["looppoint.select_loop_regions"],
        "looppoint.validate_s": seconds["looppoint.validate_looppoint"],
        "pinplay.log_regions_s": seconds["pinplay.log_regions"],
        "pinplay.replay_s": seconds["pinplay.replay"],
        "pinplay.replay_instructions": counts.replay_instructions,
        "core.pinball2elf_s": seconds["core.pinball2elf"],
        "core.run_elfie_s": seconds["core.run_elfie"],
        "core.startup_instructions": counts.startup_instructions,
        "core.app_instructions": counts.app_instructions,
        "core.startup_share": (counts.startup_instructions / executed
                               if executed else 0.0),
        "core.ungraceful_exits": counts.ungraceful_exits,
        "verify.elfie_entry_s": seconds["verify.verify_elfie_entry"],
        "verify.entry_failures": counts.entry_failures,
        "machine.instructions": counters.get("cpu.instructions", 0),
        "machine.compiled_calls": counters.get("cpu.compiled.calls", 0),
        "machine.block_cache_hit_rate": hits / lookups if lookups else 0.0,
        "machine.syscalls": counters.get("kernel.syscalls", 0),
        "machine.pmu_traps": counters.get("cpu.pmu_traps", 0),
        "farm.store_put_s": seconds["farm.store_put"],
        "farm.put_calls": probe.calls("farm.store_put"),
        "farm.store_get_s": seconds["farm.store_get"],
        "farm.get_calls": probe.calls("farm.store_get"),
        "farm.dedup_ratio": 0.0,
        "farm.compression_ratio": 0.0,
        "farm.warm_hit_rate": 0.0,
        "service.lease_wait_ms": lease.get("p50", 0.0) * 1000.0 * scale,
        "service.worker_busy_share": 0.0,
    }
    for sim in SIMULATORS:
        values["simulators.%s_kips" % sim] = kips(
            counts.sim_instructions.get(sim, 0),
            seconds["simulators." + sim])
        values["simulators.%s_cycles" % sim] = counts.sim_cycles.get(sim, 0.0)
    for verb in SERVICE_VERBS:
        verb_samples = samples.get("service.verb." + verb)
        values["service.verb.%s_ms" % verb] = (
            median(verb_samples) * 1000.0 if verb_samples else 0.0)
    layer_self = self_times(probe.tracer.events())
    for layer in LAYERS:
        values["self.%s_s" % layer] = layer_self.get(layer, 0.0) * scale
    raw_self = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
    values["trace.pipeline_s"] = pipeline
    values["trace.self_sum_s"] = raw_self * scale
    values["trace.self_gap"] = abs(raw_self - raw_pass) / raw_pass
    values["bench.calibration_ms"] = probe.sampler.loop_ms()
    values.update(extras)
    return values


class Run:
    """One benchmark run of a workload: passes until the time is up."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> None:
        self.workload = WORKLOADS[name](tiny=tiny)
        self.name, self.seed, self.seconds, self.trace = (
            name, seed, seconds, trace)
        self.workdir = os.path.join(_root(), ".pipebench", "work",
                                    "%s-%d" % (name, os.getpid()))
        self.tally = Tally()
        self.setups: List[float] = []
        self.builds: List[float] = []
        self.passes: Dict[bool, List[Dict[str, float]]] = {False: [],
                                                            True: []}
        self.last_trace: Optional[Tracer] = None
        self.sampler = SpeedSampler()

    def _setup(self, tag: str, record: bool = False) -> dict:
        probe = Probe(self.sampler)
        with probe.time("bench.setup"):
            ctx = self.workload.setup(probe, self.seed,
                                      os.path.join(self.workdir, tag))
        if record:
            try:
                seconds, samples = probe.reference()
            except BaseException:
                self.workload.teardown(ctx)
                raise
            self.setups.append(seconds["bench.setup"])
            self.builds.extend(samples["workloads.build"])
        return ctx

    def _pass(self, traced: bool) -> None:
        index = len(self.passes[False]) + len(self.passes[True])
        ctx = self._setup("pass%d" % index)
        try:
            probe = Probe(self.sampler,
                          Tracer("pipebench") if traced else None)
            registry = MetricsRegistry()
            counts = StudyCounts()
            observed = (hooks.observed(tracer=Tracer("repro"),
                                       metrics=registry)
                        if traced else contextlib.nullcontext())
            gc.collect()  # every pass starts without the last one's garbage
            with observed:
                with probe.time("bench.pass", workload=self.name,
                                seed=self.seed):
                    state = self.workload.run_pass(ctx, probe, counts,
                                                   self.tally)
            values = _e2e(probe, counts)
            self.workload.check(ctx, state, self.tally)
            if traced:
                values.update(_per_layer(probe, counts, registry,
                                         self.workload.extras(ctx, state)))
                self.last_trace = probe.tracer
        finally:
            self.workload.teardown(ctx)
        self.passes[traced].append(values)

    def _plain_kips(self) -> float:
        """Interpreter speed with no tool attached: the ceiling for the
        replay, ELFie and simulator rates."""
        probe = Probe(self.sampler)
        instructions = 0
        for app in self.workload.p["apps"]:
            image = self.workload.builder(app).build(self.workload.p["input"])
            with probe.time("bench.plain"):
                machine, _status, _loaded = run_program(image, seed=self.seed)
            instructions += machine.total_icount()
        return kips(instructions, probe.reference()[0]["bench.plain"])

    def execute(self) -> Tuple[Dict[str, float], List[str]]:
        """Run the passes; return the metric values and failed checks."""
        modes = [False, True] if self.trace else [False]
        turn = 0
        with self.sampler:
            # set-up is timed in a block of its own before the passes, in
            # the same state in every run: timed after them, the same
            # build took 5 ms in some runs and 10 ms in others
            start = time.perf_counter()
            for index in range(SETUP_MAX_REPEATS):
                if (index >= SETUP_REPEATS
                        and time.perf_counter() - start >= SETUP_MIN_S):
                    break
                gc.collect()
                self.workload.teardown(
                    self._setup("setup%d" % index, record=True))
            deadline = time.perf_counter() + self.seconds
            while True:
                traced = modes[turn % len(modes)]
                start = time.perf_counter()
                self._pass(traced)
                duration = time.perf_counter() - start
                turn += 1
                needed = turn < len(modes)
                if not needed and time.perf_counter() + duration > deadline:
                    break
            if self.trace:
                values = self._layer_metrics()
            else:
                values = self._end_to_end()
        return values, list(self.tally.check_failures)

    def _end_to_end(self) -> Dict[str, float]:
        runs = self.passes[False]
        values = {name: median(run[name] for run in runs)
                  for name in runs[0]}
        values["setup_s"] = median(self.setups)
        values["peak_rss_mb"] = _peak_rss_mb()
        count = len(runs)
        values["failed_share"] = failed_share(self.tally.failed / count,
                                              self.tally.attempted / count)
        return values

    def _layer_metrics(self) -> Dict[str, float]:
        runs = self.passes[True]
        values = {name: median(run[name] for run in runs)
                  for name in PER_LAYER if name in runs[0]}
        values["workloads.build_s"] = median(self.builds)
        values["machine.plain_kips"] = self._plain_kips()
        values["trace.overhead"] = (
            values["trace.pipeline_s"]
            / median(run["pipeline_s"] for run in self.passes[False]) - 1.0)
        for run in runs:
            if run["trace.self_gap"] > SELF_TIME_TOLERANCE:
                self.tally.check_failures.append(
                    "trace: self times add up to %.6f s, pipeline_s is "
                    "%.6f s" % (run["trace.self_sum_s"],
                                run["trace.pipeline_s"]))
        trace_dir = os.path.join(_root(), ".pipebench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        self.last_trace.export(os.path.join(
            trace_dir, "%s-seed%d.json" % (self.name, self.seed)))
        return values

    def result(self) -> Tuple[dict, bool]:
        """The result object the benchmark prints, and whether it is correct."""
        try:
            values, failures = self.execute()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        units = PER_LAYER if self.trace else END_TO_END
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError("metrics not measured: %s" % missing)
        return {
            "correct": not failures,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }, not failures
