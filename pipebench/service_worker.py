"""The service worker process of the ``service-campaign`` workload.

    python3 -m pipebench.service_worker HOST PORT SPEED_LOG

Prints ``ready`` once its imports are done, then serves leases until
SIGTERM.  It also exits when its standard input closes: the benchmark
process holds the other end, so the worker never outlives it.  While it
serves it runs a :class:`pipebench.probe.SpeedSampler` of its own and
appends every sample to ``SPEED_LOG``: the jobs run here, on a core
whose speed the benchmark process's sampler does not see.
"""

import os
import sys
import threading

from repro.service import worker_main

from pipebench.probe import SpeedSampler


def _exit_when_orphaned() -> None:
    # os.read, not sys.stdin: a daemon thread blocked in a buffered
    # read makes the interpreter's shutdown fail
    while os.read(0, 4096):
        pass
    os._exit(1)


def main(argv) -> int:
    host, port, speed_log = argv[0], int(argv[1]), argv[2]
    threading.Thread(target=_exit_when_orphaned, daemon=True).start()
    print("ready", flush=True)
    # anything the worker prints goes to stderr, not into the pipe
    # nobody reads after ``ready``
    os.dup2(2, 1)
    with SpeedSampler(speed_log):
        return worker_main(host, port, name="bench-worker", poll_s=0.2)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
