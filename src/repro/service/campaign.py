"""Drive a farm job graph through the checkpoint service.

:class:`ServiceCampaignRunner` is the service executor behind the one
campaign scheduler, :class:`repro.farm.runner.DagRunner`, so it keeps
``farm run``'s exact semantics by construction:

- the **DAG stays in the client**: dependency tracking, ``Ref``
  resolution (including ``select`` lambdas, which are not picklable and
  never cross the wire), ``local`` jobs, and ``expand`` callbacks all
  run in the scheduler — the server only ever sees flat, self-contained
  jobs;
- resolved arguments ship with the submit, results come back through
  the content-addressed store, so a job's bytes-in/bytes-out are
  identical to the multiprocessing path — which is what makes service
  campaigns **bit-identical** to ``farm run``;
- memoization is server-side (``status: "cached"``) against the shared
  store, plus in-flight dedup: two clients racing the same campaign
  share single executions and both fetch the same artifacts;
- every terminal state appends the manifest record, counters and trace
  span ``farm run`` emits, so downstream tooling cannot tell the paths
  apart.

Failures follow the server's retry policy (lease expiry re-queues, N
retries, then ``failed``); downstream jobs are marked ``blocked``
exactly as the local runner does.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.farm.jobs import Job
from repro.farm.runner import DagRunner, Settled, _miss
from repro.service.client import ServiceClient, ServiceError

#: How long one ``wait`` long-poll blocks server-side.
_WAIT_SLICE_S = 0.5


class ServiceCampaignRunner(DagRunner):
    """The service executor: jobs run on the service's workers."""

    category = "service"

    def __init__(self, client: ServiceClient,
                 manifest_path: Optional[str] = None,
                 run_id: str = "", priority: int = 0,
                 retries: Optional[int] = None) -> None:
        super().__init__(manifest_path)
        self.client = client
        self.run_id = run_id or ("run-%d-%d" % (os.getpid(),
                                                int(time.time() * 1000)))
        self.priority = priority
        self.retries = retries
        self._inflight: Dict[str, dict] = {}

    def _result_key(self, job: Job) -> str:
        # keyless jobs still need a store slot for the wire round trip;
        # scope it to this run so concurrent campaigns cannot collide
        return job.key or "svc/%s/%s" % (self.run_id, job.name)

    def _submit(self, job: Job, args: tuple, kwargs: dict,
                force: bool = False) -> dict:
        return self.client.submit(
            name=job.name, fn=job.fn, args=args, kwargs=kwargs,
            key=job.key, result_key=self._result_key(job),
            kind=job.kind, stage=job.stage, priority=self.priority,
            retries=job.retries if job.retries is not None
            else self.retries, force=force)

    def _start(self, job: Job, args: tuple,
               kwargs: dict) -> Optional[Settled]:
        if job.local:
            return self._run_inline(job, args, kwargs)
        response = self._submit(job, args, kwargs)
        if response["status"] == "cached":
            try:
                return Settled(job, "ok", "hit",
                               self.client.get_artifact(job.key))
            except ServiceError:
                # a damaged entry must never poison a campaign: force a
                # recompute
                response = self._submit(job, args, kwargs, force=True)
        self._inflight[job.name] = {
            "job": job,
            "job_id": response["job"]["job_id"],
            "duplicate": response["status"] == "duplicate",
        }
        return None

    def _poll(self) -> Iterator[Settled]:
        if not self._inflight:
            return
        states = self.client.wait(
            [entry["job_id"] for entry in self._inflight.values()],
            timeout_s=_WAIT_SLICE_S)
        for name, entry in list(self._inflight.items()):
            view = states.get(entry["job_id"])
            if view is None or view["state"] in ("queued", "leased"):
                continue
            del self._inflight[name]
            job = entry["job"]
            ok = view["state"] == "ok"
            yield Settled(
                job, "ok" if ok else "failed",
                "hit" if entry["duplicate"] and job.key else _miss(job),
                result=self.client.get_artifact(self._result_key(job))
                if ok else None,
                wall_s=view.get("wall_s", 0.0), worker=view.get("worker"),
                attempts=view.get("attempts", 1), icount=view.get("icount"),
                error="" if ok else view.get("error") or view["state"])

    def _save(self, job: Job, result: Any) -> None:
        if job.key:
            self.client.put_artifact(job.key, result, job.kind)


def run_service_campaign(images: Dict[str, bytes], client: ServiceClient,
                         manifest_path: Optional[str] = None,
                         run_id: str = "", priority: int = 0,
                         slice_size: int = 20_000,
                         warmup: int = 80_000,
                         max_k: int = 50,
                         seed: int = 0,
                         max_alternates: int = 2,
                         cluster_seed: int = 42,
                         validations: Sequence[Any] = ()) -> Dict[str, Any]:
    """Run the PinPoints pipeline for several apps through the service.

    The shared campaign of
    :func:`repro.simpoint.pinpoints.run_pinpoints_campaign` on the
    service executor: the same graph, the same keys, the same results —
    executed by remote workers against the shared sharded store instead
    of a local pool.  Returns ``{app: FarmAppOutcome}``.
    """
    from repro.farm.pipeline import run_campaign
    from repro.simpoint.pinpoints import PINPOINTS

    runner = ServiceCampaignRunner(client, manifest_path=manifest_path,
                                   run_id=run_id, priority=priority)
    return run_campaign(PINPOINTS, images, runner, validations,
                        slice_len=slice_size, warmup=warmup, max_k=max_k,
                        seed=seed, max_alternates=max_alternates,
                        cluster_seed=cluster_seed)
