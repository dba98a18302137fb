"""Tests for the Sniper-like, CoreSim-like and gem5-like simulators."""

import pytest

from repro.core import MarkerSpec, Pinball2Elf, Pinball2ElfOptions
from repro.pinplay import RegionSpec, log_region
from repro.simulators import (
    BranchPredictor,
    Cache,
    CoreSim,
    CoreSimConfig,
    CoreSimResult,
    Gem5Sim,
    HASWELL_LIKE,
    NEHALEM_LIKE,
    SniperConfig,
    SniperResult,
    SniperSim,
    Tlb,
)
from repro.simulators.sniper import find_end_condition, profile_end_condition
from repro.workloads import PhaseSpec, ProgramBuilder, build_executable


# -- component models ---------------------------------------------------------


def test_cache_hit_after_miss():
    cache = Cache("L1", size_kb=4, assoc=2, latency=2)
    first = cache.access(0x1000)
    second = cache.access(0x1000)
    assert first > second == 2
    assert cache.misses == 1
    assert cache.accesses == 2


def test_cache_lru_eviction():
    cache = Cache("tiny", size_kb=4, assoc=2, latency=1)
    sets = cache.sets
    way_stride = sets * 64
    cache.access(0x0)
    cache.access(way_stride)       # same set, second way
    cache.access(2 * way_stride)   # evicts 0x0
    cache.access(way_stride)       # still resident
    assert cache.misses == 3
    cache.access(0x0)              # must miss again
    assert cache.misses == 4


def test_cache_miss_chains_to_parent():
    llc = Cache("LLC", size_kb=64, assoc=4, latency=30)
    l1 = Cache("L1", size_kb=4, assoc=2, latency=2, parent=llc)
    cycles = l1.access(0x4000)
    assert cycles >= 2 + 30  # L1 + LLC (+ memory behind it)
    assert llc.accesses == 1
    # second L1 access does not touch the LLC
    l1.access(0x4000)
    assert llc.accesses == 1


def test_cache_footprint_counts_distinct_lines():
    cache = Cache("L1", size_kb=4, assoc=2, latency=1)
    for addr in (0x0, 0x40, 0x40, 0x80):
        cache.access(addr)
    assert cache.footprint_bytes() == 3 * 64


def test_tlb_hit_miss():
    tlb = Tlb("DTLB", entries=2, miss_penalty=30)
    assert tlb.access(0x1000) == 30
    assert tlb.access(0x1008) == 0      # same page
    assert tlb.access(0x2000) == 30
    assert tlb.access(0x3000) == 30     # evicts page 1
    assert tlb.access(0x1000) == 30


def test_branch_predictor_learns_loop():
    predictor = BranchPredictor(mispredict_penalty=10)
    penalties = [predictor.predict_and_update(0x400, True)
                 for _ in range(10)]
    # after warm-up, a always-taken branch predicts correctly
    assert penalties[-1] == 0
    assert predictor.mispredict_rate < 0.5


def test_branch_predictor_random_pattern_worse_than_biased():
    import random

    rng = random.Random(7)
    biased = BranchPredictor()
    noisy = BranchPredictor()
    for _ in range(400):
        biased.predict_and_update(0x10, rng.random() < 0.95)
        noisy.predict_and_update(0x20, rng.random() < 0.5)
    assert biased.mispredict_rate < noisy.mispredict_rate


# -- end-to-end simulator fixtures -------------------------------------------


@pytest.fixture(scope="module")
def st_pinball_and_elfie():
    image = build_executable(
        """
        _start:
            mov rcx, 40000
        loop:
            ld rax, [buf]
            add rax, rcx
            st [buf], rax
            imul rax, 3
            sub rcx, 1
            cmp rcx, 0
            jnz loop
            mov rax, 231
            mov rdi, 0
            syscall
        """,
        data_source="buf:\n.quad 0\n",
    )
    pinball = log_region(image, RegionSpec(start=30000, length=60000,
                                           name="st.r0"))
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=MarkerSpec("sniper", 3))).convert()
    return pinball, artifact


@pytest.fixture(scope="module")
def mt_pinball_and_elfie():
    builder = ProgramBuilder(
        name="mt", threads=4,
        phases=[PhaseSpec("compute", 4000, buffer_kb=16),
                PhaseSpec("stream", 4000, buffer_kb=16)],
    )
    image = builder.build()
    pinball = log_region(image, RegionSpec(start=20000, length=60000,
                                           name="mt.r0"), seed=2)
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=False, marker=MarkerSpec("sniper", 4))).convert()
    return pinball, artifact


# -- Sniper -------------------------------------------------------------------


def test_sniper_elfie_skips_startup(st_pinball_and_elfie):
    pinball, artifact = st_pinball_and_elfie
    result = SniperSim().simulate_elfie(artifact.image,
                                        roi_budget=pinball.region_icount)
    # only ROI instructions counted — no startup inflation
    assert result.instructions == pinball.region_icount
    assert result.runtime_cycles > 0
    assert 0 < result.ipc <= SniperConfig().dispatch_width


def test_sniper_pinball_matches_recorded_icount(st_pinball_and_elfie):
    pinball, _ = st_pinball_and_elfie
    result = SniperSim().simulate_pinball(pinball)
    assert result.constrained
    assert result.instructions == pinball.region_icount


def test_sniper_st_elfie_and_pinball_icounts_match(st_pinball_and_elfie):
    """Fig. 11: for single-threaded apps, unconstrained ELFie simulation
    retires the same instruction count as constrained pinball replay."""
    pinball, artifact = st_pinball_and_elfie
    elfie = SniperSim().simulate_elfie(artifact.image,
                                       roi_budget=pinball.region_icount)
    replay = SniperSim().simulate_pinball(pinball)
    assert elfie.instructions == replay.instructions


def test_sniper_mt_elfie_retires_more_than_pinball(mt_pinball_and_elfie):
    """Fig. 11: multi-threaded ELFie simulation retires more
    instructions than the pinball recorded, because spin loops run
    unconstrained."""
    pinball, artifact = mt_pinball_and_elfie
    end_pc, end_count = _mt_end_condition(pinball)
    elfie = SniperSim().simulate_elfie(artifact.image, end_pc=end_pc,
                                       end_count=end_count, seed=11)
    replay = SniperSim().simulate_pinball(pinball)
    assert replay.instructions == pinball.region_icount
    assert elfie.instructions > replay.instructions


def _mt_end_condition(pinball):
    """Pick a work-loop PC (max executions, not a spin PAUSE loop)."""
    from repro.machine.tool import Tool
    from repro.pinplay.replayer import _InjectionTool, _reconstruct
    from repro.isa.instructions import Op

    class Histogram(Tool):
        wants_instructions = True

        def __init__(self):
            self.counts = {}
            self.pause_near = set()

        def on_instruction(self, machine, thread, pc, insn):
            self.counts[pc] = self.counts.get(pc, 0) + 1
            if insn.op is Op.PAUSE:
                for delta in range(-64, 65):
                    self.pause_near.add(pc + delta)

    machine = _reconstruct(pinball, seed=0, fs=None)
    injector = _InjectionTool(pinball)
    histogram = Histogram()
    machine.attach(injector)
    machine.attach(histogram)
    machine.scheduler.replay(pinball.schedule)
    budget = sum(s.quantum for s in pinball.schedule)
    machine.run(max_instructions=budget)
    work = {pc: n for pc, n in histogram.counts.items()
            if pc not in histogram.pause_near}
    end_pc = max(work, key=work.get)
    return end_pc, work[end_pc]


def test_sniper_profile_end_condition(st_pinball_and_elfie):
    pinball, _ = st_pinball_and_elfie
    rip = pinball.threads[0].regs.rip
    end_pc, count = profile_end_condition(pinball, rip)
    assert end_pc == rip
    assert count > 0


def test_sniper_end_condition_stops_simulation(st_pinball_and_elfie):
    pinball, artifact = st_pinball_and_elfie
    rip = pinball.threads[0].regs.rip
    _, count = profile_end_condition(pinball, rip)
    result = SniperSim().simulate_elfie(artifact.image, end_pc=rip,
                                        end_count=count // 2)
    assert result.status.detail == "sniper end condition"
    assert result.instructions < pinball.region_icount


# -- CoreSim ------------------------------------------------------------------


def test_coresim_user_vs_fullsystem(st_pinball_and_elfie):
    """Table IV: full-system simulation executes extra ring-0
    instructions, runs longer, and touches a larger data footprint."""
    pinball, artifact = st_pinball_and_elfie
    budget = pinball.region_icount
    user = CoreSim(CoreSimConfig(frontend="sde")).simulate_elfie(
        artifact.image, roi_budget=budget)
    full = CoreSim(CoreSimConfig(frontend="simics")).simulate_elfie(
        artifact.image, roi_budget=budget)
    assert user.instructions_ring0 == 0
    assert full.instructions_ring0 > 0
    # user-space instruction counts are equal in both modes
    assert user.instructions_ring3 == full.instructions_ring3
    assert full.runtime_cycles > user.runtime_cycles
    assert full.data_footprint_bytes > user.data_footprint_bytes
    assert full.dtlb_misses >= user.dtlb_misses
    # the kernel share is small but its effect is disproportionate
    ring0_share = full.instructions_ring0 / full.instructions_ring3
    runtime_delta = (full.runtime_cycles - user.runtime_cycles) / user.runtime_cycles
    assert ring0_share < 0.10
    assert runtime_delta > ring0_share


def test_coresim_whole_program_mode():
    image = build_executable(
        """
        _start:
            mov rcx, 5000
        loop:
            sub rcx, 1
            cmp rcx, 0
            jnz loop
            mov rax, 231
            mov rdi, 0
            syscall
        """
    )
    result = CoreSim().simulate_program(image)
    assert result.status.kind == "exit"
    assert result.instructions_ring3 > 15000
    assert result.cpi > 0


def test_coresim_result_properties(st_pinball_and_elfie):
    pinball, artifact = st_pinball_and_elfie
    result = CoreSim().simulate_elfie(artifact.image, roi_budget=10_000)
    assert result.instructions_total == (result.instructions_ring3
                                         + result.instructions_ring0)
    assert result.ipc == pytest.approx(1.0 / result.cpi)


# -- gem5 ---------------------------------------------------------------------


def test_gem5_haswell_beats_nehalem_on_memory_bound_code():
    builder = ProgramBuilder(
        name="memory", threads=1,
        phases=[PhaseSpec("pointer_chase", 20000, buffer_kb=512)],
    )
    image = builder.build()
    pinball = log_region(image, RegionSpec(start=30000, length=60000,
                                           name="mem.r0"))
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=MarkerSpec("sniper", 5))).convert()
    nehalem = Gem5Sim(NEHALEM_LIKE).simulate_elfie(artifact.image,
                                                   roi_budget=40_000)
    haswell = Gem5Sim(HASWELL_LIKE).simulate_elfie(artifact.image,
                                                   roi_budget=40_000)
    assert nehalem.instructions == haswell.instructions == 40_000
    # bigger ROB/LSQ hide more miss latency
    assert haswell.ipc > nehalem.ipc


def test_gem5_ipc_bounded_by_width(st_pinball_and_elfie):
    _, artifact = st_pinball_and_elfie
    result = Gem5Sim(NEHALEM_LIKE).simulate_elfie(artifact.image,
                                                  roi_budget=20_000)
    assert 0 < result.ipc <= NEHALEM_LIKE.width


def test_gem5_config_window_properties():
    assert HASWELL_LIKE.effective_window > NEHALEM_LIKE.effective_window
    assert HASWELL_LIKE.mlp > NEHALEM_LIKE.mlp
    assert HASWELL_LIKE.hidden_latency > NEHALEM_LIKE.hidden_latency


# -- golden results -----------------------------------------------------------


def _sniper_budget(st, mt):
    pinball, artifact = st
    return SniperSim().simulate_elfie(artifact.image,
                                      roi_budget=pinball.region_icount)


def _sniper_end_condition(st, mt):
    pinball, artifact = st
    rip = pinball.threads[0].regs.rip
    _, count = profile_end_condition(pinball, rip)
    return SniperSim().simulate_elfie(artifact.image, end_pc=rip,
                                      end_count=count // 2)


def _sniper_pinball(st, mt):
    return SniperSim().simulate_pinball(st[0])


def _sniper_mt_timing_driven(st, mt):
    pinball, artifact = mt
    end_pc, end_count = find_end_condition(pinball)
    return SniperSim().simulate_elfie(artifact.image, end_pc=end_pc,
                                      end_count=end_count, seed=11)


def _coresim(frontend, roi_budget):
    def run(st, mt):
        return CoreSim(CoreSimConfig(frontend=frontend)).simulate_elfie(
            st[1].image, roi_budget=roi_budget, warmup_budget=10_000)
    return run


def _coresim_program(st, mt):
    return CoreSim().simulate_program(st[1].image, max_instructions=50_000)


def _gem5(config, roi_budget):
    def run(st, mt):
        return Gem5Sim(config).simulate_elfie(
            st[1].image, roi_budget=roi_budget, warmup_budget=1_000)
    return run


def _summary(result):
    if isinstance(result, CoreSimResult):
        return (result.instructions_ring3, repr(result.runtime_cycles),
                result.llc_misses, repr(result.branch_mispredict_rate),
                result.status.detail, result.instructions_ring0,
                result.dtlb_misses, result.prefetch_lines,
                result.measured_instructions, repr(result.measured_cycles))
    if isinstance(result, SniperResult):
        return (result.instructions, repr(result.runtime_cycles),
                result.llc_misses, repr(result.branch_mispredict_rate),
                result.status.detail, result.core_instructions)
    return (result.instructions, repr(result.cycles), result.llc_misses,
            repr(result.branch_mispredict_rate), result.status.detail)


#: Recorded before the simulators shared one timing core.
GOLDEN = {
    "sniper-budget": (
        60000, "55332.0", 2, "0.00015001500150015003",
        "sniper instruction budget", [60000, 0, 0, 0, 0, 0, 0, 0],
    ),
    "sniper-end-condition": (
        29991, "27823.75", 2, "0.00030012004801920766", "sniper end condition",
        [29991, 0, 0, 0, 0, 0, 0, 0],
    ),
    "sniper-pinball": (
        60000, "55332.0", 2, "0.00015001500150015003",
        "instruction budget exhausted", [60000, 0, 0, 0, 0, 0, 0, 0],
    ),
    "sniper-mt-timing-driven": (
        60073, "7271.75", 17, "0.0007334066740007334", "sniper end condition",
        [16330, 14400, 14687, 14656, 0, 0, 0, 0],
    ),
    "coresim-sde-warmup": (
        30000, "34560.0", 3, "0.00030003000300030005", "coresim budget", 0, 1,
        1, 20000, "22778.0",
    ),
    "coresim-simics-warmup": (
        60139, "198855.75", 728, "0.0005989817310572028", "last thread exited",
        5940, 255, 3, 50139, "187073.75",
    ),
    "coresim-program": (
        50000, "128414.0", 1790, "0.0001400364094664613",
        "instruction budget exhausted", 0, 29, 1786, 0, "0.0",
    ),
    "gem5-nehalem-warmup": (
        20000, "6111.0", 2, "0.0004286326618088298", "gem5 budget",
    ),
    "gem5-haswell-warmup": (
        59139, "18284.75", 7, "0.0005989817310572028", "last thread exited",
    ),
}


@pytest.mark.parametrize("case, run", [
    ("sniper-budget", _sniper_budget),
    ("sniper-end-condition", _sniper_end_condition),
    ("sniper-pinball", _sniper_pinball),
    ("sniper-mt-timing-driven", _sniper_mt_timing_driven),
    ("coresim-sde-warmup", _coresim("sde", 20_000)),
    ("coresim-simics-warmup", _coresim("simics", None)),
    ("coresim-program", _coresim_program),
    ("gem5-nehalem-warmup", _gem5(NEHALEM_LIKE, 20_000)),
    ("gem5-haswell-warmup", _gem5(HASWELL_LIKE, None)),
])
def test_simulator_results_are_pinned(case, run, st_pinball_and_elfie,
                                      mt_pinball_and_elfie):
    """Every simulator's statistics, bit for bit, on fixed inputs."""
    result = run(st_pinball_and_elfie, mt_pinball_and_elfie)
    assert _summary(result) == GOLDEN[case]
