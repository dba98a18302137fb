"""Median and spread of each metric over several benchmark runs.

Collect the last line of each run (one seed each) into a file, then::

    python3 pipebench/spread.py results.jsonl

Spread is the interquartile distance over the median, as the README's
measured-spread table reports it.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pipebench.stats import median, spread  # noqa: E402


def main(path: str) -> int:
    values = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                for name, metric in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        middle = median(series)
        shown = spread(series) if middle else float("nan")
        print("%-34s median %14.6f  spread %.3f  (n=%d)"
              % (name, middle, shown, len(series)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
