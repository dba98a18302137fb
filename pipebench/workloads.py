"""The four workloads.  Why each exists is in ``pipebench/README.md``.

A workload builds its images in :meth:`Workload.setup` (plus, for the
service, a server and one :mod:`pipebench.service_worker` process), runs
one measured pass in :meth:`Workload.run_pass`, and checks the pass's
outputs outside the timed region in :meth:`Workload.check`.  ``--seed``
feeds the scheduler and clustering seeds; the program only receives the
built images.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import subprocess
import sys
from typing import Any, ContextManager, Dict, Iterator, Set

from repro.farm import ArtifactStore, CampaignError, read_manifest
from repro.service import ServerThread, run_service_campaign
from repro.simpoint import run_pinpoints_campaign
from repro.workloads import get_app, get_mt_app

from pipebench.metrics import SIMULATORS
from pipebench.probe import Probe, Tally, TimedClient, TimedStore
from pipebench.stages import (
    StudyCounts,
    checkpoint_looppoint,
    checkpoint_pinpoints,
    elfie_digests,
    outcome_digest,
    study,
)

class Workload:
    """One set of inputs and the pass the benchmark times on them."""

    #: Parameters for a measured run, and for the tiny smoke run.
    FULL: Dict[str, Any] = {}
    TINY: Dict[str, Any] = {}

    def __init__(self, tiny: bool = False) -> None:
        self.p = dict(self.TINY if tiny else self.FULL)

    def setup(self, probe: Probe, seed: int, workdir: str) -> dict:
        images = {}
        for app in self.p["apps"]:
            with probe.time("workloads.build", app=app):
                images[app] = self.builder(app).build(self.p["input"])
        return {"seed": seed, "workdir": workdir, "images": images}

    def check(self, ctx: dict, state: dict, tally: Tally) -> None:
        """Correctness checks on a pass's outputs (untimed)."""

    def extras(self, ctx: dict, state: dict) -> Dict[str, float]:
        """Per-layer values read from the objects a pass left behind."""
        pages = pinball_bytes = elfie_bytes = 0
        for result in state["results"]:
            for pinball in result.pinballs.values():
                pages += len(pinball.pages)
                pinball_bytes += len(pinball.save_bytes())
            elfie_bytes += sum(len(artifact.image)
                               for artifact in result.elfies.values())
        return {"pinplay.pages_captured": pages,
                "pinplay.pinball_bytes": pinball_bytes,
                "core.elfie_bytes": elfie_bytes}

    def teardown(self, ctx: dict) -> None:
        shutil.rmtree(ctx["workdir"], ignore_errors=True)


class StPinpoints(Workload):
    name = "st-pinpoints"
    builder = staticmethod(get_app)
    FULL = {"apps": ("548.exchange2_r",), "input": "train",
            "slice_size": 10_000, "warmup": 20_000, "max_k": 12,
            "alternates": 0}
    TINY = dict(FULL, input="test", max_k=2)

    def run_pass(self, ctx: dict, probe: Probe, counts: StudyCounts,
                 tally: Tally) -> dict:
        (app, image), = ctx["images"].items()
        with probe.time("bench.checkpoint"):
            result = checkpoint_pinpoints(
                probe, image, app, ctx["seed"],
                slice_size=self.p["slice_size"], warmup=self.p["warmup"],
                max_k=self.p["max_k"], alternates=self.p["alternates"])
        counts.profiled_instructions += result.profile.total_icount
        with probe.time("bench.study"):
            # the ST study runs every simulator the paper drives
            study(probe, result, result.regions, SIMULATORS, ctx["seed"],
                  counts, tally)
        return {"results": [result]}


class MtLooppoint(Workload):
    name = "mt-looppoint"
    builder = staticmethod(get_mt_app)
    # mt.barrier's program-start region never exits gracefully as an
    # ELFie; with max_k=10 every seed selects it, so the failure stays
    # visible in failed_share and core.ungraceful_exits.
    FULL = {"apps": ("mt.prodcons", "mt.barrier"), "input": "train",
            "slice_markers": 64, "max_k": 10, "alternates": 0}
    TINY = dict(FULL, input="test", max_k=2)

    def run_pass(self, ctx: dict, probe: Probe, counts: StudyCounts,
                 tally: Tally) -> dict:
        results = []
        with probe.time("bench.checkpoint"):
            for app, image in ctx["images"].items():
                results.append(checkpoint_looppoint(
                    probe, image, app, ctx["seed"],
                    slice_markers=self.p["slice_markers"],
                    max_k=self.p["max_k"], alternates=self.p["alternates"]))
        with probe.time("bench.study"):
            for result in results:
                study(probe, result, result.regions, ("sniper",),
                      ctx["seed"], counts, tally)
        return {"results": results}


class Campaign(Workload):
    """A PinPoints campaign: a cold run into an empty store, then warm
    re-runs against the full one, then a study of the first app's
    regions as served by the last warm run.

    One cluster per app with two alternates gives every app the same
    three regions' worth of jobs at every seed, so the store and
    service work does not swing with the clustering seed.  The study
    validates the one primary region three times (three scheduler
    seeds, as the paper averages trials), so validate_s measures more
    than a single short run.
    """

    builder = staticmethod(get_app)

    def campaign(self, ctx: dict, probe: Probe, store_root: str,
                 manifest: str) -> dict:
        raise NotImplementedError

    def _params(self, seed: int) -> dict:
        return {"slice_size": self.p["slice_size"], "warmup": self.p["warmup"],
                "max_k": self.p["max_k"],
                "max_alternates": self.p["alternates"],
                "seed": seed, "cluster_seed": seed}

    def warm_runs(self, ctx: dict) -> ContextManager[None]:
        """Context the warm re-runs execute in."""
        return contextlib.nullcontext()

    def _digest(self, probe: Probe, state: dict, outcomes: dict) -> None:
        # Keep digests, not the outcomes: holding every run's pinballs
        # and ELFies would make each garbage collection in the study
        # scan them.  Excluded from pipeline_s.
        with probe.time("check.digest"):
            state["digests"].append({app: outcome_digest(outcome.result)
                                     for app, outcome in outcomes.items()})
            if "cold_elfies" not in state:
                state["cold_elfies"] = {
                    app: elfie_digests(outcome.result)
                    for app, outcome in outcomes.items()}
            gc.collect()

    def run_pass(self, ctx: dict, probe: Probe, counts: StudyCounts,
                 tally: Tally) -> dict:
        ctx["passes"] = ctx.get("passes", 0) + 1
        base = os.path.join(ctx["workdir"], "pass%d" % ctx["passes"])
        store_root = os.path.join(base, "store")
        manifests = [os.path.join(base, "run%d.jsonl" % index)
                     for index in range(1 + self.p["warm_runs"])]
        state = {"results": [], "store_root": store_root,
                 "manifests": manifests, "digests": []}
        try:
            with probe.time("bench.checkpoint"):
                outcomes = self.campaign(ctx, probe, store_root, manifests[0])
            state["cold_s"] = probe.samples["bench.checkpoint"][-1]
            self._digest(probe, state, outcomes)
            with self.warm_runs(ctx):
                for manifest in manifests[1:]:
                    with probe.time("bench.warm"):
                        outcomes = self.campaign(ctx, probe, store_root,
                                                 manifest)
                    self._digest(probe, state, outcomes)
        except CampaignError:
            return state  # check() counts the failed jobs from the manifests
        state["results"] = [outcome.result for outcome in outcomes.values()]
        first = outcomes[self.p["apps"][0]].result
        with probe.time("bench.study"):
            study(probe, first, first.regions, self.simulators,
                  ctx["seed"], counts, tally, trials=3)
        return state

    def check(self, ctx: dict, state: dict, tally: Tally) -> None:
        for manifest in state["manifests"]:
            if os.path.exists(manifest):
                for record in read_manifest(manifest):
                    tally.op(record["state"] == "ok", "job: %s ended %s"
                             % (record["job"], record["state"]))
        cold, *warm_runs = state["digests"] or [{}]
        for warm in warm_runs:
            for app in self.p["apps"]:
                tally.op(cold[app] == warm[app],
                         "warm: %s differs from its cold run" % app)

    def extras(self, ctx: dict, state: dict) -> Dict[str, float]:
        values = super().extras(ctx, state)
        records = [read_manifest(path) for path in state["manifests"]
                   if os.path.exists(path)]
        warm = [record for run in records[1:] for record in run]
        values["farm.warm_hit_rate"] = (
            sum(1 for record in warm if record["cache"] == "hit")
            / len(warm) if warm else 0.0)
        stats = self.store_stats(ctx, state)
        values["farm.dedup_ratio"] = stats.dedup_ratio
        values["farm.compression_ratio"] = stats.compression_ratio
        return values


class FarmCampaign(Campaign):
    name = "farm-campaign"
    simulators = ("sniper",)
    FULL = {"apps": ("520.omnetpp_r", "505.mcf_r", "531.deepsjeng_r",
                     "541.leela_r", "557.xz_r", "500.perlbench_r"),
            "input": "train", "slice_size": 10_000, "warmup": 20_000,
            "max_k": 1, "alternates": 2, "jobs": 1, "warm_runs": 3}
    TINY = dict(FULL, apps=("520.omnetpp_r", "505.mcf_r"), input="test",
                alternates=1, warm_runs=1)

    def campaign(self, ctx: dict, probe: Probe, store_root: str,
                 manifest: str) -> dict:
        store = TimedStore(ArtifactStore(store_root), probe)
        with probe.time("simpoint.run_pinpoints_campaign"):
            return run_pinpoints_campaign(
                ctx["images"], store, jobs=self.p["jobs"],
                manifest_path=manifest, **self._params(ctx["seed"]))

    def store_stats(self, ctx: dict, state: dict):
        return ArtifactStore(state["store_root"]).stats()


def _set_affinity(tasks, cpus) -> None:
    for task in tasks:
        try:
            os.sched_setaffinity(task, cpus)
        except ProcessLookupError:
            pass  # a thread that has ended since it was listed


#: Service worker processes started and not yet waited for.
WORKERS: Set[subprocess.Popen] = set()


def _start_worker(host: str, port: int, speed_log: str) -> subprocess.Popen:
    """Start a service worker process and wait until it has started.

    A plain child process, not a ``multiprocessing`` one: the spawn
    start method would also start a resource tracker process that
    outlives the benchmark."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    worker = subprocess.Popen(
        [sys.executable, "-m", "pipebench.service_worker", host, str(port),
         speed_log],
        cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    WORKERS.add(worker)
    if worker.stdout.readline() != b"ready\n":
        _stop_worker(worker)
        raise RuntimeError("service worker did not start")
    return worker


def _stop_worker(worker: subprocess.Popen) -> None:
    """Stop a service worker and wait until it has ended."""
    worker.terminate()  # SIGTERM: the worker drains and exits
    try:
        worker.wait(30.0)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
    worker.stdin.close()
    worker.stdout.close()
    WORKERS.discard(worker)


class ServiceCampaign(Campaign):
    name = "service-campaign"
    simulators = ("sniper",)
    # Warm runs are a few hundred protocol round trips; six of them per
    # pass keep warm_s steady.
    FULL = {"apps": ("520.omnetpp_r", "505.mcf_r", "531.deepsjeng_r",
                     "557.xz_r"),
            "input": "train", "slice_size": 10_000, "warmup": 20_000,
            "max_k": 1, "alternates": 2, "shards": 2, "warm_runs": 6}
    TINY = dict(FULL, apps=("520.omnetpp_r", "505.mcf_r"), input="test",
                alternates=1, warm_runs=1)

    #: whether this run has compared the service with the local farm
    reference_checked = False

    def setup(self, probe: Probe, seed: int, workdir: str) -> dict:
        ctx = super().setup(probe, seed, workdir)
        try:
            # A fresh server per pass: each cold run starts from an
            # empty store.
            server = ServerThread(os.path.join(workdir, "service"),
                                  shards=self.p["shards"])
            host, port = server.start()
            ctx["server"] = server
            ctx["worker_speed"] = os.path.join(workdir, "worker-speed.log")
            ctx["worker"] = _start_worker(host, port, ctx["worker_speed"])
            ctx["client"] = TimedClient(host, port, client_id="bench")
            ctx["client"].hello()
        except BaseException:
            self.teardown(ctx)
            raise
        return ctx

    def campaign(self, ctx: dict, probe: Probe, store_root: str,
                 manifest: str) -> dict:
        client = ctx["client"]
        client.probe = probe
        # the cold run's jobs run in the worker: scale it by its speed
        probe.remote["bench.checkpoint"] = ctx["worker_speed"]
        with probe.time("service.run_service_campaign"):
            return run_service_campaign(
                ctx["images"], client, manifest_path=manifest,
                run_id=os.path.basename(manifest) + "-%d" % ctx["passes"],
                **self._params(ctx["seed"]))

    @contextlib.contextmanager
    def warm_runs(self, ctx: dict) -> Iterator[None]:
        # A warm run is a few hundred round trips between the client,
        # the server thread and the idle worker.  Left to float over
        # the cores, where the OS placed them moved warm_s by up to 40%
        # between runs; on one core it moved 8%.  (Cold runs float:
        # pinning them too did not steady cold_s.)
        every = os.sched_getaffinity(0)
        tasks = [int(tid) for tid in os.listdir("/proc/self/task")]
        tasks.append(ctx["worker"].pid)
        _set_affinity(tasks, {min(every)})
        try:
            yield
        finally:
            _set_affinity(tasks, every)

    def check(self, ctx: dict, state: dict, tally: Tally) -> None:
        super().check(ctx, state, tally)
        if "cold_elfies" not in state or self.reference_checked:
            return
        # The service must produce the ELFies the local farm produces
        # for the same inputs (checked once per run: it costs a campaign).
        # The farm runs its jobs in this process: a pool would fork it
        # while the server thread may hold a lock, and a pool worker
        # forked so could hang.
        self.reference_checked = True
        reference = run_pinpoints_campaign(
            ctx["images"],
            ArtifactStore(os.path.join(ctx["workdir"], "reference")),
            jobs=1, **self._params(ctx["seed"]))
        for app in self.p["apps"]:
            tally.op(state["cold_elfies"][app]
                     == elfie_digests(reference[app].result),
                     "service: %s ELFies differ from the local farm's" % app)

    def extras(self, ctx: dict, state: dict) -> Dict[str, float]:
        values = super().extras(ctx, state)
        if state["manifests"] and os.path.exists(state["manifests"][0]):
            busy = sum(record["wall_s"] or 0.0
                       for record in read_manifest(state["manifests"][0])
                       if record["cache"] == "miss")
            values["service.worker_busy_share"] = busy / state["cold_s"]
        return values

    def store_stats(self, ctx: dict, state: dict):
        return ctx["server"].store.stats()

    def teardown(self, ctx: dict) -> None:
        if "worker" in ctx:
            _stop_worker(ctx["worker"])
        if "client" in ctx:
            ctx["client"].close()
        if "server" in ctx:
            ctx["server"].stop()
        super().teardown(ctx)


WORKLOADS = {cls.name: cls for cls in
             (StPinpoints, MtLooppoint, FarmCampaign, ServiceCampaign)}

