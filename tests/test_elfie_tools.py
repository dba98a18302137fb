"""The tools that watch an ELFie run, pinned on fixed inputs.

``run_elfie``'s ROI watcher, the two validation meters and the entry
verifier each observe a native ELFie run.  Their results must not
depend on how the machine dispatches instructions, so they are pinned
here bit for bit: a single-threaded PinPoints ELFie (548.exchange2_r
``test``), a multi-threaded LoopPoint ELFie (mt.prodcons) and
mt.barrier's program-start region, whose ELFie never exits.
"""

import pytest

from repro.core import MarkerSpec, Pinball2Elf, Pinball2ElfOptions, run_elfie
from repro.looppoint import measure_elfie_region_markers, run_looppoint
from repro.machine.cpu import set_default_dispatch
from repro.observe import hooks
from repro.pinplay import RegionSpec, log_region
from repro.simpoint.validation import measure_elfie_region
from repro.verify import verify_elfie_entry
from repro.workloads import get_app, get_mt_app

ST_OPTIONS = Pinball2ElfOptions(perf_exit=True,
                                marker=MarkerSpec("sniper", 0xE1F))
#: The ROI budget of a never-exiting ELFie run.
NO_EXIT_BUDGET = 300_000


@pytest.fixture(scope="module")
def cases():
    """name -> (pinball, ELFie image, region, marker window)."""
    found = {}
    image = get_app("548.exchange2_r").build("test")
    for region in (RegionSpec(start=30_000, length=10_000, warmup=20_000,
                              name="st"),
                   RegionSpec(start=20_000, length=5_000, warmup=0,
                              name="st-cold")):
        pinball = log_region(image, region)
        found[region.name] = (pinball,
                              Pinball2Elf(pinball, ST_OPTIONS).convert().image,
                              region, None)
    for app, max_k, pick in (("mt.prodcons", 4, 0), ("mt.barrier", 8, None)):
        result = run_looppoint(get_mt_app(app).build("test"), app,
                               slice_markers=64, max_k=max_k, seed=0,
                               max_alternates=0)
        if pick is None:  # the program-start region
            pick = [region.warmup_start
                    for region in result.primary_regions].index(0)
        region = result.primary_regions[pick]
        window = result.marker_windows[region.name]
        found[app] = (result.pinballs[region.name],
                      result.elfies[region.name].image, region,
                      (result.profile.marker_map.work_addresses(),
                       window["skip"], window["measure"]))
    return found


def _run(case, seed):
    _, image, region, _ = case
    budget = NO_EXIT_BUDGET if region.warmup_start == 0 else None
    run = run_elfie(image, seed=seed, max_instructions=budget)
    return (run.status.kind, run.status.detail, run.machine.total_icount(),
            run.machine.total_cycles(), run.startup_icounts, run.app_icounts)


def _meter(case, seed):
    _, image, region, _ = case
    m = measure_elfie_region(_Artifact(image), region, seed=seed)
    return (repr(m.cpi), m.ok, m.detail)


def _markers(case, seed):
    _, image, region, (work, skip, count) = case
    m = measure_elfie_region_markers(_Artifact(image), region, work,
                                     skip=skip, measure=count, seed=seed)
    return (repr(m.cpi), repr(m.cycles_per_work), repr(m.icount_per_work),
            m.detail)


def _entry(case, seed):
    pinball, image, _, _ = case
    report = verify_elfie_entry(image, pinball, seed=seed)
    return (report.ok, report.detail, report.bad_pages)


class _Artifact:
    """The one field of an ElfieArtifact the meters read."""

    def __init__(self, image):
        self.image = image


#: Recorded while all four tools still watched every instruction.
GOLDEN = {
    "run-st": ("exit", "last thread exited", 87526, 252723, {0: 57394},
               {0: 30132}),
    "run-st-cold": ("exit", "last thread exited", 62526, 183203, {0: 57394},
                    {0: 5132}),
    "run-mt": ("exit", "last thread exited", 68110, 195417,
               {0: 57409, 1: 35, 2: 35, 3: 35},
               {0: 2722, 1: 2372, 2: 2738, 3: 2764}),
    "run-mt-seed": ("exit", "last thread exited", 67774, 195497,
                    {0: 57409, 1: 35, 2: 35, 3: 35},
                    {0: 2722, 1: 2036, 2: 2738, 3: 2764}),
    "run-mt-no-exit": ("stopped", "instruction budget exhausted", 300000,
                       605195, {0: 57394}, {0: 634}),
    "meter-st": ("3.75", True, ""),
    "meter-st-no-warmup": ("2.7502", True, ""),
    "meter-mt": ("2.150220413699559", True, ""),
    "markers-mt": ("2.122588305135055", "111.734375", "52.640625", ""),
    "markers-mt-seed": ("2.2401639344262296", "85.40625", "38.125", ""),
    "markers-mt-no-skip": ("1.5493171471927163", "15.953125", "10.296875",
                           ""),
    "entry-st": (True, "", []),
    "entry-mt": (True, "", []),
    "entry-mt-no-exit": (True, "", []),
}


@pytest.mark.parametrize("name, case, measure, seed", [
    ("run-st", "st", _run, 0),
    ("run-st-cold", "st-cold", _run, 3),
    ("run-mt", "mt.prodcons", _run, 0),
    ("run-mt-seed", "mt.prodcons", _run, 7),
    ("run-mt-no-exit", "mt.barrier", _run, 0),
    ("meter-st", "st", _meter, 0),
    ("meter-st-no-warmup", "st-cold", _meter, 0),
    ("meter-mt", "mt.prodcons", _meter, 7),
    ("markers-mt", "mt.prodcons", _markers, 0),
    ("markers-mt-seed", "mt.prodcons", _markers, 7),
    ("markers-mt-no-skip", "mt.barrier", _markers, 0),
    ("entry-st", "st", _entry, 0),
    ("entry-mt", "mt.prodcons", _entry, 0),
    ("entry-mt-no-exit", "mt.barrier", _entry, 3),
])
def test_elfie_tool_results_are_pinned(name, case, measure, seed, cases):
    """Exit status, counts, meter rates and entry reports, bit for bit."""
    assert measure(cases[case], seed) == GOLDEN[name]


def test_traced_elfie_run_stays_off_the_slow_tier(cases):
    """The ROI watcher uses breakpoints and a marker event, so an ELFie
    run retires almost every instruction on the fast tiers (only the
    approach to the perf-exit trap steps on the slow one)."""
    _, image, _, _ = cases["st"]
    previous = set_default_dispatch("compiled")
    try:
        with hooks.observed() as obs:
            run = run_elfie(image)
    finally:
        set_default_dispatch(previous)
    counters = obs.metrics.snapshot()["counters"]
    assert run.app_icounts == GOLDEN["run-st"][5]
    assert counters["cpu.instructions"] == run.machine.total_icount()
    slow = counters.get("cpu.instructions.slow", 0)
    assert slow == run.machine.cpu.slow_instructions
    assert slow < 0.05 * counters["cpu.instructions"]
