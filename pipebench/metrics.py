"""Metric names and units; ``BENCHMARK.json`` lists the same ones."""

from __future__ import annotations

#: Layers a trace span can belong to: the ``repro`` packages the
#: benchmark calls into, and ``bench`` for its own pass/stage glue.
LAYERS = ("bench", "workloads", "simpoint", "looppoint", "pinplay", "core",
          "verify", "simulators", "farm", "service")

#: Simulators the per-layer metrics name.
SIMULATORS = ("sniper", "coresim", "gem5")

#: Service verbs the campaign client sends, timed client-side (the
#: worker process sends put-artifact; nothing here sends has-artifact).
SERVICE_VERBS = ("submit", "wait", "get-artifact")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "checkpoint_s": "s",
    "replay_kips": "kinst/s",
    "elfie_kips": "kinst/s",
    "validate_s": "s",
    "sim_kips": "kinst/s",
    "cpi_error_pct": "%",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}

PER_LAYER = {
    "workloads.build_s": "s",
    "simpoint.collect_bbv_s": "s",
    "simpoint.profile_kips": "kinst/s",
    "simpoint.select_s": "s",
    "simpoint.validate_s": "s",
    "looppoint.collect_s": "s",
    "looppoint.select_s": "s",
    "looppoint.validate_s": "s",
    "pinplay.log_regions_s": "s",
    "pinplay.pages_captured": "count",
    "pinplay.pinball_bytes": "bytes",
    "pinplay.replay_s": "s",
    "pinplay.replay_instructions": "count",
    "core.pinball2elf_s": "s",
    "core.elfie_bytes": "bytes",
    "core.run_elfie_s": "s",
    "core.startup_instructions": "count",
    "core.app_instructions": "count",
    "core.startup_share": "ratio",
    "core.ungraceful_exits": "count",
    "verify.elfie_entry_s": "s",
    "verify.entry_failures": "count",
    **{"simulators.%s_kips" % sim: "kinst/s" for sim in SIMULATORS},
    **{"simulators.%s_cycles" % sim: "cycles" for sim in SIMULATORS},
    "machine.plain_kips": "kinst/s",
    "machine.instructions": "count",
    "machine.compiled_calls": "count",
    "machine.block_cache_hit_rate": "ratio",
    "machine.syscalls": "count",
    "machine.pmu_traps": "count",
    "farm.store_put_s": "s",
    "farm.put_calls": "count",
    "farm.store_get_s": "s",
    "farm.get_calls": "count",
    "farm.dedup_ratio": "ratio",
    "farm.compression_ratio": "ratio",
    "farm.warm_hit_rate": "ratio",
    **{"service.verb.%s_ms" % verb: "ms" for verb in SERVICE_VERBS},
    "service.lease_wait_ms": "ms",
    "service.worker_busy_share": "ratio",
    **{"self.%s_s" % layer: "s" for layer in LAYERS},
    "trace.pipeline_s": "s",
    "trace.self_sum_s": "s",
    "trace.self_gap": "ratio",
    "trace.overhead": "ratio",
    "bench.calibration_ms": "ms",
}
