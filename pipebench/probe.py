"""Timing from outside the program: around each call into a layer.

Every timed call is named ``<layer>.<call>``, where the layer is the
``repro`` package the call goes into (``bench`` marks the benchmark's
own pass and stage spans).  A :class:`Probe` always sums wall time per
name; given a :class:`repro.observe.Tracer` it also records each call
as a span whose category is the layer, so the trace nests
pass -> stage -> public call.

The host this runs on changes speed by up to 2x within seconds (other
tenants' load), so while a run measures, a :class:`SpeedSampler` times
a short fixed loop every :data:`SAMPLE_PERIOD_S`, from a ``SIGALRM``
handler so that samples land inside long program calls too.
:meth:`Probe.reference` turns each timed interval into *reference
seconds*: the time it would have taken where the loop runs in
:data:`REFERENCE_LOOP_S`.  Time spent sampling is excluded from every
interval it falls inside.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.observe import Tracer
from repro.service import ServiceClient


#: Sampling loop time, in seconds, on the reference host (this host
#: when no other tenant competes for its core).
REFERENCE_LOOP_S = 0.0008

#: Interval between speed samples.
SAMPLE_PERIOD_S = 0.05


def calibration_loop(iterations: int = 2000) -> int:
    """Fixed pure-Python work: dict updates and integer arithmetic, the
    kind of work the interpreter's inner loops do."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        table[i & 1023] = acc
        acc = (acc * 31 + table.get((i * 7) & 1023, i)) & 0xFFFFFFFF
    return acc


class SpeedSampler:
    """Times :func:`calibration_loop` every :data:`SAMPLE_PERIOD_S`.

    Use as a context manager in the main thread; it owns ``SIGALRM`` and
    the real-time interval timer while active.  Forked children do not
    inherit the timer.
    """

    def __init__(self, log_path: Optional[str] = None) -> None:
        #: (midpoint, loop seconds) of every sample, in time order
        self.timeline: List[Tuple[float, float]] = []
        #: total seconds spent sampling so far
        self.spent = 0.0
        self._previous: Any = None
        # with a log, every sample is also appended to it as it is taken
        self._log = (os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
                     if log_path else None)

    @classmethod
    def load(cls, log_path: str) -> "SpeedSampler":
        """The samples another process has logged so far."""
        sampler = cls()
        with open(log_path) as handle:
            for line in handle:
                if line.endswith("\n"):  # the last may be half written
                    when, loop = line.split()
                    sampler.timeline.append((float(when), float(loop)))
        return sampler

    def sample(self, signum: Any = None, frame: Any = None) -> None:
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.timeline.append(((start + end) / 2.0, end - start))
        self.spent += end - start
        if self._log is not None:
            os.write(self._log, b"%r %r\n" % ((start + end) / 2.0,
                                                end - start))

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        if self._log is not None:
            os.close(self._log)
            self._log = None

    def speed(self, start: float, end: float) -> float:
        """Reference/loop time ratio over [start, end].

        From the samples inside the interval widened by two periods (at
        least the five nearest its middle): their median when there are
        few, else their mean with the top and bottom tenth dropped, so a
        sample stretched by a collection or a late signal does not skew
        a short interval.
        """
        margin = 2 * SAMPLE_PERIOD_S
        window = [loop for when, loop in self.timeline
                  if start - margin <= when <= end + margin]
        if len(window) < 5:
            middle = (start + end) / 2.0
            nearest = sorted(self.timeline,
                             key=lambda point: abs(point[0] - middle))[:5]
            window = [loop for _, loop in nearest]
        speeds = sorted(REFERENCE_LOOP_S / loop for loop in window)
        if len(speeds) < 10:
            return statistics.median(speeds)
        trim = len(speeds) // 10
        return statistics.mean(speeds[trim:len(speeds) - trim])

    def loop_ms(self) -> float:
        return statistics.median(loop for _, loop in self.timeline) * 1000.0


class Probe:
    """Wall time per call name, and trace spans when a tracer is given."""

    def __init__(self, sampler: SpeedSampler,
                 tracer: Optional[Tracer] = None) -> None:
        self.sampler = sampler
        self.tracer = tracer
        #: measured seconds (sampling excluded) and per-call samples
        self.seconds: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: (name, start, end, seconds spent sampling inside) per call
        self.intervals: List[Tuple[str, float, float, float]] = []
        #: call name -> speed log of another process: calls whose work
        #: is done there are scaled by that process's speed
        self.remote: Dict[str, str] = {}

    @contextlib.contextmanager
    def time(self, name: str, **args: Any) -> Iterator[None]:
        span = (self.tracer.span(name, name.split(".", 1)[0], **args)
                if self.tracer is not None else contextlib.nullcontext())
        spent = self.sampler.spent
        start = time.perf_counter()
        try:
            with span:
                yield
        finally:
            end = time.perf_counter()
            inside = self.sampler.spent - spent
            self.seconds[name] += end - start - inside
            self.samples[name].append(end - start - inside)
            self.intervals.append((name, start, end, inside))

    def calls(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def reference(self) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
        """Seconds and per-call samples by name, in reference seconds."""
        seconds: Dict[str, float] = defaultdict(float)
        samples: Dict[str, List[float]] = defaultdict(list)
        samplers = {name: SpeedSampler.load(path)
                    for name, path in self.remote.items()}
        for name, start, end, inside in self.intervals:
            sampler = samplers.get(name)
            if sampler is None or not sampler.timeline:
                sampler = self.sampler
            value = (end - start - inside) * sampler.speed(start, end)
            seconds[name] += value
            samples[name].append(value)
        return seconds, samples


class TimedStore:
    """An :class:`repro.farm.ArtifactStore` whose put and get are timed.

    Handed to ``run_pinpoints_campaign`` in place of the store; every
    other method passes through untouched.
    """

    def __init__(self, store: Any, probe: Probe) -> None:
        self._store = store
        self._probe = probe

    def put(self, key: str, obj: Any, kind: str = "") -> str:
        with self._probe.time("farm.store_put"):
            return self._store.put(key, obj, kind)

    def get(self, key: str) -> Any:
        with self._probe.time("farm.store_get"):
            return self._store.get(key)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


class TimedClient(ServiceClient):
    """A service client that times every protocol round trip by verb."""

    probe: Optional[Probe] = None

    def call(self, verb: str, *, wait_budget: float = 0.0,
             **fields: Any) -> dict:
        if self.probe is None:
            return super().call(verb, wait_budget=wait_budget, **fields)
        with self.probe.time("service.verb." + verb):
            return super().call(verb, wait_budget=wait_budget, **fields)


@dataclass
class Tally:
    """Operations attempted and failed, and correctness checks that failed.

    Every failed operation counts in ``failed_share``.  A failed
    operation that is also a correctness check (``check=True``) makes
    the run incorrect; an ELFie that never exits gracefully is a
    measured outcome of the workload, not a broken check.
    """

    attempted: int = 0
    failed: int = 0
    check_failures: List[str] = field(default_factory=list)

    def op(self, ok: bool, what: str, check: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if check:
                self.check_failures.append(what)
