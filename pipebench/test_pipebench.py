"""Tests of the benchmark's own arithmetic, and a tiny smoke run.

    python3 -m pytest -q pipebench
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import pytest

from pipebench.metrics import END_TO_END, PER_LAYER
from pipebench.stats import (
    failed_share,
    kips,
    median,
    quartiles,
    self_times,
    spread,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("pipebench", "run.py")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == median(values) == 3.75
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.0, 2.0, 2.0]) == 0.0
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        spread([0.0, 0.0])


def test_failed_share_is_never_zero_and_rises_with_failures():
    assert failed_share(0, 10) == pytest.approx(1 / 12)
    assert failed_share(0, 0) == 0.5
    assert failed_share(1, 10) > failed_share(0, 10)
    assert failed_share(0, 20) < failed_share(0, 10)
    assert failed_share(10, 10) == pytest.approx(11 / 12)
    assert failed_share(1.5, 40.5) == pytest.approx(2.5 / 42.5)
    for bad in ((1, 0), (-1, 3), (0, -1)):
        with pytest.raises(ValueError):
            failed_share(*bad)


def test_kips_from_counts_and_seconds():
    assert kips(5000, 2.0) == 2.5
    assert kips(123, 0.0) == 0.0
    assert kips(0, 1.0) == 0.0


def _span(name, cat, ts, dur, tid=1):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": 7, "tid": tid}


def test_self_time_subtracts_the_children_only():
    events = [
        {"name": "process_name", "ph": "M", "pid": 7, "tid": 1},
        _span("pass", "bench", 0.0, 1_000_000.0),
        _span("replay", "pinplay", 100_000.0, 300_000.0),
        _span("child", "machine", 150_000.0, 100_000.0),
        # adjacent sibling: starts exactly where "replay" ends
        _span("run", "core", 400_000.0, 200_000.0),
        _span("verify", "verify", 700_000.0, 50_000.0),
        # another thread: not a child of "pass"
        _span("server", "service", 0.0, 2_000_000.0, tid=2),
        {"name": "mark", "ph": "i", "ts": 5.0, "pid": 7, "tid": 1},
    ]
    times = self_times(events)
    assert times["bench"] == pytest.approx(0.45)
    assert times["pinplay"] == pytest.approx(0.2)
    assert times["machine"] == pytest.approx(0.1)
    assert times["core"] == pytest.approx(0.2)
    assert times["verify"] == pytest.approx(0.05)
    assert times["service"] == pytest.approx(2.0)
    on_thread_1 = sum(v for k, v in times.items() if k != "service")
    assert on_thread_1 == pytest.approx(1.0)


def test_reference_seconds_follow_the_sampled_speed():
    from pipebench.probe import (
        REFERENCE_LOOP_S,
        SAMPLE_PERIOD_S,
        Probe,
        SpeedSampler,
    )

    sampler = SpeedSampler()
    # the loop ran at reference speed, then at half speed from t=10
    sampler.timeline = [(t * SAMPLE_PERIOD_S, REFERENCE_LOOP_S)
                        for t in range(200)]
    sampler.timeline += [(10.0 + t * SAMPLE_PERIOD_S, 2 * REFERENCE_LOOP_S)
                         for t in range(200)]
    probe = Probe(sampler)
    probe.intervals = [("fast", 1.0, 3.0, 0.0),
                       ("slow", 12.0, 16.0, 0.5),
                       ("slow", 13.0, 13.0, 0.0)]
    seconds, samples = probe.reference()
    assert seconds["fast"] == pytest.approx(2.0)
    # 3.5 s measured (0.5 s of it sampling) at half speed
    assert seconds["slow"] == pytest.approx(1.75)
    assert samples["slow"] == [pytest.approx(1.75), 0.0]


def test_calls_done_in_another_process_follow_its_logged_speed(tmp_path):
    from pipebench.probe import REFERENCE_LOOP_S, Probe, SpeedSampler

    log = str(tmp_path / "speed.log")
    with SpeedSampler(log) as worker:
        worker.sample()
    assert SpeedSampler.load(log).timeline == worker.timeline
    # the other process's loop ran at half speed
    with open(log, "w") as handle:
        handle.writelines("%r %r\n" % (t * 0.05, 2 * REFERENCE_LOOP_S)
                          for t in range(100))
        handle.write("4.9")  # a sample still being written
    local = SpeedSampler()
    local.timeline = [(t * 0.05, REFERENCE_LOOP_S) for t in range(100)]
    probe = Probe(local)
    probe.intervals = [("remote", 1.0, 3.0, 0.0), ("local", 1.0, 3.0, 0.0)]
    probe.remote["remote"] = log
    seconds, _samples = probe.reference()
    assert seconds["remote"] == pytest.approx(1.0)
    assert seconds["local"] == pytest.approx(2.0)


def test_benchmark_json_names_the_measured_metrics():
    from pipebench.workloads import WORKLOADS

    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", RUN]


#: Command-line starts of multiprocessing's helper processes (resource
#: tracker, fork server).  A helper lives until the process that
#: started it has exited, so a run that starts one leaves it running.
HELPERS = ("from multiprocessing.resource_tracker",
           "from multiprocessing.forkserver")


def _processes(*patterns):
    """Command lines of the processes with an argument starting with
    one of *patterns*."""
    found = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as handle:
                argv = handle.read().decode(errors="replace").split("\0")
        except OSError:
            continue  # ended while listed
        if any(arg.startswith(patterns) for arg in argv):
            found.add(" ".join(argv))
    return found


def _run(cwd, *args):
    """Run the benchmark.  ``left`` on the result lists the processes it
    leaves running: helpers seen while it ran, and service workers or
    ``multiprocessing`` children still there when it has ended."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    left = set()
    # output goes to files: a process left holding a pipe would delay
    # the end of the run as the caller sees it
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        run = subprocess.Popen([sys.executable, RUN] + list(args), cwd=cwd,
                               env=env, stdout=out, stderr=err)
        try:
            while run.poll() is None:
                left |= _processes(*HELPERS)
                time.sleep(0.1)
        finally:
            if run.poll() is None:
                run.kill()
                run.wait()
        left |= _processes("pipebench.service_worker", "from multiprocessing")
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(args, run.returncode, out.read(),
                                           err.read())
    done.left = sorted(left)
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(
    w["name"] for w in _benchmark_json()["workloads"]))
def test_tiny_smoke_run_prints_every_metric(workload, trace):
    spec = _benchmark_json()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {m["name"]: m["unit"]
                                              for m in expected}
    table = done.stdout.strip().splitlines()[:-1]
    printed = {line.split()[0] for line in table if line.strip()}
    assert {metric["name"] for metric in expected} <= printed
    assert done.left == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "pipebench"),
                    tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), "--workload", "st-pinpoints", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
