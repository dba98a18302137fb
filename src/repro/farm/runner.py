"""The campaign scheduler: execute a job graph, locally or through the service.

One scheduler, :class:`DagRunner`, owns the graph:

- a job is *ready* once all dependencies completed successfully; jobs
  downstream of a failure are marked ``blocked``, and jobs left when a
  preemption drains the campaign are marked ``deferred``;
- ``Ref`` placeholders are resolved in the parent; ``local`` jobs run
  in the parent; ``expand`` callbacks run on completion (cache hits
  included);
- every terminal state appends one record to the run manifest.

Where a job runs sits behind a small executor seam (``_start``,
``_poll``, ``_save``).  :class:`FarmRunner` is the local executor:

- ready jobs whose memoization key is present in the artifact store are
  **cache hits**: the stored result is served without executing;
- other ready jobs fan out across a ``multiprocessing`` pool
  (``jobs=N``, default ``os.cpu_count()``); ``jobs=1`` runs everything
  in-process, which is also the reference semantics the pool must match;
- a failing job is retried with capped exponential backoff, then marked
  ``failed``; keyed results are written to the store as they complete,
  so the next campaign with unchanged keys is a warm run.

:class:`repro.service.campaign.ServiceCampaignRunner` is the service
executor.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set

from repro.farm.jobs import Job, JobGraph, resolve_refs
from repro.farm.manifest import RunManifest
from repro.farm.store import ArtifactStore, StoreCorruption
from repro.observe import hooks


class CampaignError(Exception):
    """One or more jobs failed (strict mode)."""

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = failures
        lines = ["%s: %s" % (name, error)
                 for name, error in sorted(failures.items())]
        super().__init__("campaign failed: " + "; ".join(lines))


def _seed_resume(resume) -> None:
    """Seed this process's preemption context with a shipped checkpoint."""
    if resume is not None:
        from repro.snapshot import preempt
        preempt.GLOBAL.take_resume()  # drop any stale slot
        preempt.set_resume(resume)


def _call_job(fn, args, kwargs, resume=None, delay=0.0):
    """Worker-side wrapper: returns (worker pid, wall seconds, result)."""
    time.sleep(delay)  # a retry's backoff
    _seed_resume(resume)
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return os.getpid(), time.perf_counter() - start, result


def _job_icount(result: Any) -> Optional[int]:
    """Interpreter instructions executed to produce *result* (duck-typed).

    Recognizes the pipeline's artifact shapes: a profile carries
    ``total_icount``; a pinball's run ends at ``region.end`` global
    instructions; a single-pass log group (dict of pinballs) ran to the
    latest window end.  Returns ``None`` for results that required no
    interpretation (clustering, conversion, assembly).
    """
    if result is None:
        return None
    total = getattr(result, "total_icount", None)
    if isinstance(total, int) and total > 0:
        return total
    region = getattr(result, "region", None)
    if region is not None:
        end = getattr(region, "end", None)
        if isinstance(end, int) and end > 0:
            return end
    if isinstance(result, dict):
        icounts = [count for count in
                   (_job_icount(value) for value in result.values())
                   if count]
        if icounts:
            return max(icounts)
    return None


def _miss(job: Job) -> str:
    """The cache outcome of a job that ran: keyless jobs have none."""
    return "miss" if job.key else "none"


@dataclass
class Settled:
    """A job's terminal outcome, as an executor reports it."""

    job: Job
    state: str                      # ok|failed|preempted|blocked|deferred
    cache: str                      # hit | miss | none
    result: Any = None
    wall_s: float = 0.0
    worker: Any = None
    attempts: int = 0
    error: str = ""
    icount: Optional[int] = None


@dataclass
class RunReport:
    """What :meth:`DagRunner.run` observed, beyond the results dict."""

    states: Dict[str, str] = field(default_factory=dict)
    cache: Dict[str, str] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for value in self.cache.values() if value == "hit")


class DagRunner:
    """Executes :class:`JobGraph`s; subclasses supply the executor."""

    #: Local worker processes (``None``: the workers are remote).
    jobs: Optional[int] = None
    retries: Optional[int] = None
    backoff = 0.05
    max_backoff = 2.0
    preemptible = False
    #: Trace category of the campaign spans.
    category = "farm"

    def __init__(self, manifest_path: Optional[str] = None) -> None:
        self.manifest = RunManifest(manifest_path) if manifest_path else None
        self.report = RunReport()

    # -- executor seam -----------------------------------------------------

    def _start(self, job: Job, args: tuple,
               kwargs: dict) -> Optional[Settled]:
        """Begin *job*: its outcome if it settled at once, else ``None``
        (it is in flight until :meth:`_poll` yields its outcome)."""
        raise NotImplementedError

    def _poll(self) -> Iterator[Settled]:
        """Outcomes of in-flight jobs that settled since the last poll."""
        raise NotImplementedError

    def _save(self, job: Job, result: Any) -> None:
        """Persist the result of a job that ran in this process."""

    def _resume_snapshot(self, job: Job):
        """The parked checkpoint for *job*, if a prior run left one."""
        return None

    def _preempted(self, job: Job, exc: Exception, wall: float,
                   worker: Any, attempts: int) -> Optional[Settled]:
        """The outcome of a job body that raised a preemption."""
        return None

    # -- manifest ----------------------------------------------------------

    def _record(self, settled: Settled) -> None:
        job, state, cache = settled.job, settled.state, settled.cache
        self.report.states[job.name] = state
        self.report.cache[job.name] = cache
        if state != "ok":
            self.report.failures[job.name] = settled.error or state
        wall = round(settled.wall_s, 6)
        if self.manifest is not None:
            self.manifest.append({
                "job": job.name,
                "stage": job.stage,
                "selector": job.selector,
                "key": job.key,
                "state": state,
                "cache": cache,
                "wall_s": wall,
                "worker": settled.worker,
                "attempts": settled.attempts,
                "error": settled.error,
                "icount": settled.icount,
            })
        obs = hooks.OBS
        if obs.enabled:
            obs.count("farm.jobs")
            obs.count("farm.cache.%s" % cache)
            if settled.attempts > 1:
                obs.count("farm.retries", settled.attempts - 1)
            if state != "ok":
                obs.count("farm.%s" % state)
            if wall:
                # Executed jobs ran in a worker the tracer cannot see;
                # emit the span parent-side from the measured wall
                # time, so trace and manifest agree exactly.
                obs.observe("farm.job_wall_s", wall)
                obs.complete(job.name, wall,
                             cat="farm.%s" % (job.stage or "job"),
                             state=state, cache=cache, worker=settled.worker,
                             attempts=settled.attempts)

    # -- scheduling --------------------------------------------------------

    def run(self, graph: JobGraph, strict: bool = True) -> Dict[str, Any]:
        """Run every job; returns ``{job name: result}``.

        With ``strict`` (default) raises :class:`CampaignError` after
        the graph drains if anything failed; non-strict returns the
        partial results.
        """
        self.report = RunReport()
        results: Dict[str, Any] = {}
        done: Dict[str, str] = {}      # name -> terminal state
        inflight: Set[str] = set()
        while True:
            progressed = self._schedule(graph, results, done, inflight)
            progressed |= self._collect(graph, results, done, inflight)
            remaining = [name for name in graph.order() if name not in done]
            if not remaining and not inflight:
                break
            if progressed:
                continue
            if inflight:
                time.sleep(0.003)  # nothing settled yet
                continue
            if self._draining():
                # the rest of the campaign resumes from the store
                # (results + checkpoints) next run
                state, error = "deferred", "campaign preempted"
            else:
                # jobs remain but none can ever become ready
                state, error = "blocked", "dependency never completed"
            for name in remaining:
                self._record(Settled(graph.jobs[name], state, "none",
                                     error=error))
                done[name] = state
            break
        if strict and self.report.failures:
            raise CampaignError(dict(self.report.failures))
        return results

    def _ready(self, graph: JobGraph, done: Dict[str, str],
               inflight: Set[str]) -> List[Job]:
        ready: List[Job] = []
        for name in graph.order():
            if name in done or name in inflight:
                continue
            job = graph.jobs[name]
            failed = [dep for dep in job.deps
                      if done.get(dep) in ("failed", "blocked")]
            if failed:
                self._record(Settled(job, "blocked", "none",
                                     error="upstream failure: %s"
                                     % ", ".join(failed)))
                done[name] = "blocked"
                continue
            if all(done.get(dep) == "ok" for dep in job.deps):
                ready.append(job)
        return ready

    def _draining(self) -> bool:
        if not self.preemptible:
            return False
        from repro.snapshot import preempt
        return preempt.requested()

    def _schedule(self, graph: JobGraph, results: Dict[str, Any],
                  done: Dict[str, str], inflight: Set[str]) -> bool:
        if self._draining():
            return False  # collect in-flight work only
        ready = self._ready(graph, done, inflight)
        for job in ready:
            settled = self._start(job, resolve_refs(job.args, results),
                                  resolve_refs(job.kwargs, results))
            if settled is None:
                inflight.add(job.name)
            else:
                self._settle(settled, graph, results, done)
        return bool(ready)

    def _collect(self, graph: JobGraph, results: Dict[str, Any],
                 done: Dict[str, str], inflight: Set[str]) -> bool:
        progressed = False
        for settled in self._poll():
            inflight.discard(settled.job.name)
            self._settle(settled, graph, results, done)
            progressed = True
        return progressed

    def _settle(self, settled: Settled, graph: JobGraph,
                results: Dict[str, Any], done: Dict[str, str]) -> None:
        job = settled.job
        done[job.name] = settled.state
        self._record(settled)
        if settled.state == "ok":
            results[job.name] = settled.result
            if job.expand is not None:
                job.expand(settled.result, graph, results)

    # -- in-process execution ----------------------------------------------

    def _max_attempts(self, job: Job) -> int:
        return 1 + (job.retries if job.retries is not None
                    else self.retries or 0)

    def _delay(self, attempt: int) -> float:
        return min(self.backoff * (2 ** (attempt - 1)), self.max_backoff)

    def _run_inline(self, job: Job, args: tuple, kwargs: dict) -> Settled:
        resume = self._resume_snapshot(job)
        max_attempts = self._max_attempts(job)
        error = ""
        for attempt in range(1, max_attempts + 1):
            _seed_resume(resume)
            start = time.perf_counter()
            try:
                result = job.fn(*args, **kwargs)
            except Exception as exc:
                preempted = self._preempted(job, exc,
                                            time.perf_counter() - start,
                                            os.getpid(), attempt)
                if preempted is not None:
                    return preempted
                error = "%s: %s" % (type(exc).__name__, exc)
                if attempt < max_attempts:
                    time.sleep(self._delay(attempt))
                continue
            return self._completed(job, result, time.perf_counter() - start,
                                   os.getpid(), attempt)
        return Settled(job, "failed", _miss(job), worker=os.getpid(),
                       attempts=max_attempts, error=error)

    def _completed(self, job: Job, result: Any, wall: float, worker: Any,
                   attempts: int) -> Settled:
        self._save(job, result)
        return Settled(job, "ok", _miss(job), result, wall, worker, attempts,
                       icount=_job_icount(result))


@dataclass
class _Pending:
    """A job submitted to the pool."""

    job: Job
    args: tuple
    kwargs: dict
    attempts: int
    async_result: Any = None


class FarmRunner(DagRunner):
    """The local executor: store memoization, retries, pool fan-out."""

    def __init__(self, store: Optional[ArtifactStore] = None,
                 jobs: Optional[int] = None,
                 retries: int = 2,
                 backoff: float = 0.05,
                 max_backoff: float = 2.0,
                 manifest_path: Optional[str] = None,
                 preemptible: bool = False) -> None:
        super().__init__(manifest_path)
        self.store = store
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        #: cooperate with :mod:`repro.snapshot.preempt`: stop scheduling
        #: once a preemption is requested, persist checkpoints raised by
        #: job bodies under ``snap/<job key>``, and seed resumes from
        #: such artifacts on the next campaign of the same graph
        self.preemptible = preemptible
        self._pool = None
        self._pending: Dict[str, _Pending] = {}

    @staticmethod
    def snapshot_key(job_key: str) -> str:
        return "snap/" + job_key

    def run(self, graph: JobGraph, strict: bool = True) -> Dict[str, Any]:
        self._pending = {}
        if self.jobs > 1:
            self._pool = multiprocessing.Pool(processes=self.jobs)
        try:
            return super().run(graph, strict)
        finally:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def _start(self, job: Job, args: tuple,
               kwargs: dict) -> Optional[Settled]:
        # cache lookup happens at schedule time, in the parent
        if job.key and self.store is not None and \
                self.store.contains(job.key):
            try:
                return Settled(job, "ok", "hit", self.store.get(job.key))
            except StoreCorruption:
                # a damaged entry must never poison a campaign: drop it
                # and recompute
                self.store.delete(job.key)
        if self._pool is None or job.local:
            return self._run_inline(job, args, kwargs)
        self._submit(_Pending(job, args, kwargs, attempts=1))
        return None

    def _submit(self, pending: _Pending, delay: float = 0.0) -> None:
        job = pending.job
        pending.async_result = self._pool.apply_async(
            _call_job, (job.fn, pending.args, pending.kwargs,
                        self._resume_snapshot(job), delay))
        self._pending[job.name] = pending

    def _poll(self) -> Iterator[Settled]:
        for name, pending in list(self._pending.items()):
            if not pending.async_result.ready():
                continue
            del self._pending[name]
            job = pending.job
            try:
                worker, wall, result = pending.async_result.get()
            except Exception as exc:
                settled = self._preempted(job, exc, 0.0, None,
                                          pending.attempts)
                if settled is None and \
                        pending.attempts < self._max_attempts(job):
                    pending.attempts += 1
                    self._submit(pending, self._delay(pending.attempts - 1))
                    continue
                yield settled or Settled(
                    job, "failed", _miss(job), attempts=pending.attempts,
                    error="%s: %s" % (type(exc).__name__, exc))
                continue
            yield self._completed(job, result, wall, worker,
                                  pending.attempts)

    def _save(self, job: Job, result: Any) -> None:
        if job.key and self.store is not None:
            self.store.put(job.key, result, job.kind)
            if self.preemptible:
                # the job settled: its resume checkpoint is garbage now
                self.store.delete(self.snapshot_key(job.key))

    def _resume_snapshot(self, job: Job):
        if not (self.preemptible and job.key and self.store is not None):
            return None
        snap_key = self.snapshot_key(job.key)
        try:
            if self.store.contains(snap_key):
                return self.store.get(snap_key)
        except StoreCorruption:
            self.store.delete(snap_key)
        return None

    def _preempted(self, job: Job, exc: Exception, wall: float,
                   worker: Any, attempts: int) -> Optional[Settled]:
        if not self.preemptible:
            return None
        from repro.snapshot.preempt import Preempted
        if not isinstance(exc, Preempted):
            return None
        if job.key and self.store is not None:
            self.store.put(self.snapshot_key(job.key), exc.snapshot,
                           "snapshot")
        return Settled(job, "preempted", _miss(job), wall_s=wall,
                       worker=worker, attempts=attempts, error=str(exc))
