"""End-to-end benchmark of the paper's Fig. 1 pipeline, split into layers.

Run it from the repository root::

    python3 pipebench/run.py --workload st-pinpoints --seed 1 --seconds 24 --trace 0

See ``pipebench/README.md`` for the workloads, the metrics and the
measured spread.
"""
