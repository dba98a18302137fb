"""Benchmark command: one workload, one seed, one run.

    python3 pipebench/run.py --workload st-pinpoints --seed 1 \
        --seconds 24 --trace 0

Prints every metric with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes a Chrome trace under
``.pipebench/traces/``).  Exits 1 when a correctness check fails and 2
when the checkout holds no program to test; a run still going after
``RUN_LIMIT_S`` is stopped and exits 3.
"""

import argparse
import faulthandler
import json
import multiprocessing
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

WORKLOAD_NAMES = ("st-pinpoints", "mt-looppoint", "farm-campaign",
                  "service-campaign")

#: A run must end within 180 seconds; one still going after this is
#: stopped, with its child processes, and fails.
RUN_LIMIT_S = 170.0


def _abort() -> None:
    print("pipebench: run exceeded %.0f s; stopping it" % RUN_LIMIT_S,
          file=sys.stderr, flush=True)
    faulthandler.dump_traceback(all_threads=True)  # where it hung
    from pipebench.workloads import WORKERS
    for worker in list(WORKERS):
        worker.kill()
        worker.wait()
    for child in multiprocessing.active_children():
        child.kill()
        child.join(5.0)
    os._exit(3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this much time is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (smoke test only)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("pipebench: %s holds no src/repro; run from the root of a "
              "repository checkout" % ROOT, file=sys.stderr)
        return 2
    from pipebench.harness import Run
    watchdog = threading.Timer(RUN_LIMIT_S, _abort)
    watchdog.daemon = True
    watchdog.start()
    try:
        result, correct = Run(args.workload, args.seed, args.seconds,
                              bool(args.trace), tiny=args.tiny).result()
    finally:
        watchdog.cancel()
    for name, metric in result["metrics"].items():
        print("%-34s %18.6f %s" % (name, metric["value"], metric["unit"]))
    print("attempted %d, failed %d, correct %s"
          % (result["attempted"], result["failed"], result["correct"]))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
