"""The PinPlay logger: capture a region of execution into a pinball.

The logger runs the test program on a machine, fast-forwards to the
region start, snapshots the architectural state, then records during the
region: every system call's results and memory side-effects, the
realized thread schedule, and (in lazy mode) the set of touched pages.

Fat-pinball switches (paper §II-A):

``whole_image``
    Record *all* mapped pages, including sections never touched in the
    region (``-log:whole_image``).
``pages_early``
    Put page contents in the initial memory image rather than as lazy
    injection records (``-log:pages_early``).  In this reproduction
    page contents are always from region start; the switch controls
    whether untouched pages survive into the ``.text`` file.
``fat``
    Both of the above (``-log:fat``).  ELFies must be generated from
    fat pinballs; an ELFie from a lazy pinball is missing pages and
    usually dies on its first divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.machine.cpu import NO_TRAP
from repro.machine.kernel import NR
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.machine.memory import PAGE_SHIFT
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.pinplay.pinball import (
    OpenFileRecord,
    Pinball,
    SyscallRecord,
    ThreadRecord,
)
from repro.pinplay.regions import RegionSpec


@dataclass
class LogOptions:
    """Logger configuration (the -log:* switches)."""

    name: str = "pinball"
    fat: bool = True
    whole_image: Optional[bool] = None
    pages_early: Optional[bool] = None

    def resolved(self) -> Tuple[bool, bool]:
        """Effective (whole_image, pages_early) after -log:fat."""
        whole = self.whole_image if self.whole_image is not None else self.fat
        early = self.pages_early if self.pages_early is not None else self.fat
        return whole, early


class _RecordingTool(Tool):
    """Tool attached for the duration of the region capture."""

    def __init__(self, lazy: bool) -> None:
        self.lazy = lazy
        self.wants_instructions = lazy  # code-page tracking needs the PC
        self.syscalls: List[SyscallRecord] = []
        self.touched_pages: Set[int] = set()
        self._pending: Dict[int, Tuple[Tuple[int, ...], Optional[str]]] = {}

    def on_instruction(self, machine, thread, pc, insn) -> None:
        # lazy mode: code pages are "touched" by fetching from them;
        # an instruction straddling a page boundary touches both pages
        self.touched_pages.add(pc >> PAGE_SHIFT)
        last = (pc + insn.size - 1) >> PAGE_SHIFT
        if last != (pc >> PAGE_SHIFT):
            self.touched_pages.add(last)

    def on_syscall_before(self, machine, thread, number):
        gpr = thread.regs.gpr
        args = (gpr[7], gpr[6], gpr[2], gpr[10], gpr[8], gpr[9])
        path = None
        if number == NR.OPEN:
            try:
                path = machine.mem.read_cstring(gpr[7]).decode("utf-8", "replace")
            except Exception:
                path = None
        self._pending[thread.tid] = (args, path)
        return None

    def on_syscall_after(self, machine, thread, number, result) -> None:
        args, path = self._pending.pop(thread.tid, ((0,) * 6, None))
        self.syscalls.append(
            SyscallRecord(
                tid=thread.tid,
                number=number,
                args=args,
                result=result,
                writes=list(machine.kernel.last_effects),
                path=path,
                native=machine.kernel.last_native,
            )
        )


def _thread_snapshot(thread) -> ThreadRecord:
    """Capture one thread's region-start state, PMU trap included."""
    record = ThreadRecord(
        tid=thread.tid, regs=thread.regs.copy(),
        blocked=thread.blocked, futex_addr=thread.futex_addr,
        sigmask=thread.sigmask, pending=thread.pending,
        wait_channel=thread.wait_channel,
    )
    if thread.pmu_trap_at != NO_TRAP:
        # The trap point is an absolute icount; replay threads restart
        # at zero, so store the remaining distance.
        record.pmu_remaining = thread.pmu_trap_at - thread.icount
        record.pmu_handler = thread.pmu_handler
    return record


def _capture_open_files(machine: Machine) -> List[OpenFileRecord]:
    """Snapshot the non-console descriptor table at region start."""
    fdt = machine.kernel.fdt
    records = []
    for fd in fdt.open_fds():
        if fdt.is_console_fd(fd):
            continue
        of = fdt.entry(fd)
        records.append(OpenFileRecord(
            fd=fd, path=of.path, flags=of.flags, offset=of.offset,
            kind=of.kind,
            read_cid=of.read_ch.cid if of.read_ch else None,
            write_cid=of.write_ch.cid if of.write_ch else None,
            bound_port=of.bound_port,
        ))
    return records


def _capture_futex_waiters(machine: Machine) -> Dict[int, List[int]]:
    """Snapshot the futex wait-queue order at region start."""
    return {addr: list(tids)
            for addr, tids in machine.kernel._futex_waiters.items()
            if tids}


def _capture_kernel_ipc(machine: Machine) -> dict:
    """Snapshot channel/signal/shm kernel state at region start.

    Returned keys match :class:`Pinball` field names so callers can
    splat the dict straight into the constructor.
    """
    kernel = machine.kernel
    return {
        "channels": {
            chan.cid: {
                "capacity": chan.capacity,
                "data": bytes(chan.data).hex(),
                "readers": chan.readers,
                "writers": chan.writers,
            }
            for chan in kernel.channels.values()
        },
        "channel_waiters": {cid: list(tids) for cid, tids
                            in kernel._channel_waiters.items() if tids},
        "listeners": {
            listener.port: {
                "backlog": listener.backlog,
                "wait_cid": listener.wait_cid,
                "queue": [[rc, wc] for rc, wc in listener.queue],
            }
            for listener in kernel._listeners.values()
        },
        "sigactions": dict(kernel.sigactions),
        "process_pending": kernel.process_pending,
        "shm_segments": {
            seg.shmid: {
                "key": seg.key,
                "size": seg.size,
                "data": bytes(seg.data).hex(),
                "attached_at": seg.attached_at,
                "attached_len": seg.attached_len,
            }
            for seg in kernel.shm_segments.values()
        },
        "next_channel_id": kernel._next_channel_id,
        "next_shmid": kernel._next_shmid,
    }


def log_regions(image: bytes, regions: Sequence[RegionSpec],
                seed: int = 0,
                argv: Optional[Sequence[str]] = None,
                fs: Optional[FileSystem] = None,
                fat: bool = True,
                aslr_seed: Optional[int] = None) -> Dict[str, Pinball]:
    """Capture several regions of one program in a single run.

    Functionally equivalent to calling :func:`log_region` once per
    region (each capture window is ``[warmup_start, end)``), but the
    program executes only once: the recorder stays attached and the
    per-region state snapshots are taken as the run crosses each
    boundary.  Capture windows must not overlap.  Regions whose window
    starts beyond program exit are skipped.  Only fat pinballs are
    supported (the single-pass recorder does not track per-region page
    touches).
    """
    if not fat:
        raise ValueError("log_regions only produces fat pinballs")
    ordered = sorted(regions, key=lambda r: r.warmup_start)
    for earlier, later in zip(ordered, ordered[1:]):
        if earlier.end > later.warmup_start:
            raise ValueError(
                "capture windows of %s and %s overlap"
                % (earlier.name, later.name))

    machine = Machine(seed=seed, fs=fs)
    load_elf(machine, image, argv=argv, aslr_seed=aslr_seed)
    recorder = _RecordingTool(lazy=False)
    out: Dict[str, Pinball] = {}

    obs = hooks.OBS
    for region in ordered:
        window_start = region.warmup_start
        window_length = region.end - window_start
        # Fast-forward with no tool attached: the gap between capture
        # windows runs on the interpreter's uninstrumented fast path.
        if machine.executed_total < window_start:
            with obs.span("logger.fast_forward", "pinplay",
                          region=region.name):
                status = machine.run(max_instructions=window_start)
            if status.kind != "stopped":
                break  # program ended before this region
        pages = machine.mem.snapshot()
        perms = machine.mem.snapshot_perms()
        start_icounts: Dict[int, int] = {}
        threads: List[ThreadRecord] = []
        for thread in machine.threads.values():
            if not thread.alive:
                continue
            start_icounts[thread.tid] = thread.icount
            threads.append(_thread_snapshot(thread))
        brk_start = machine.kernel.brk_start
        brk_end = machine.kernel.brk_end
        next_tid = machine._next_tid
        open_files = _capture_open_files(machine)
        futex_waiters = _capture_futex_waiters(machine)
        ipc_state = _capture_kernel_ipc(machine)
        recorder.syscalls = []
        machine.attach(recorder)
        machine.scheduler.record = True
        machine.scheduler.trace = []
        with obs.span("logger.record", "pinplay", region=region.name):
            status = machine.run(
                max_instructions=window_start + window_length)
        machine.scheduler.record = False
        machine.detach(recorder)
        for record in threads:
            thread = machine.threads[record.tid]
            record.region_icount = thread.icount - start_icounts[record.tid]
        if obs.enabled:
            obs.count("logger.regions")
            obs.count("logger.pages_captured", len(pages))
            obs.count("logger.syscall_records", len(recorder.syscalls))
        out[region.name] = Pinball(
            name=region.name,
            region=region,
            pages={page << PAGE_SHIFT: (perms[page], data)
                   for page, data in pages.items()},
            threads=threads,
            syscalls=list(recorder.syscalls),
            schedule=list(machine.scheduler.trace),
            brk_start=brk_start,
            brk_end=brk_end,
            fat=True,
            whole_image=True,
            pages_early=True,
            next_tid=next_tid,
            open_files=open_files,
            futex_waiters=futex_waiters,
            **ipc_state,
        )
        if status.kind != "stopped":
            break
    return out


def log_region(image: bytes, region: RegionSpec,
               options: Optional[LogOptions] = None,
               seed: int = 0,
               argv: Optional[Sequence[str]] = None,
               fs: Optional[FileSystem] = None,
               aslr_seed: Optional[int] = None) -> Pinball:
    """Run *image* and capture *region* (warmup included) as a pinball.

    The captured window is ``[region.warmup_start, region.end)`` so that
    replay and ELFie runs can execute the warmup before the measured
    region, as PinPoints does.  Raises ``ValueError`` if the program
    exits before the window starts.
    """
    options = options or LogOptions()
    whole_image, pages_early = options.resolved()

    machine = Machine(seed=seed, fs=fs)
    load_elf(machine, image, argv=argv, aslr_seed=aslr_seed)

    window_start = region.warmup_start
    window_length = region.end - window_start

    obs = hooks.OBS

    # Fast-forward (uninstrumented) to the window start.
    if window_start:
        with obs.span("logger.fast_forward", "pinplay", region=region.name):
            status = machine.run(max_instructions=window_start)
        if status.kind != "stopped":
            raise ValueError(
                "program ended (%s) before region start at %d instructions"
                % (status.kind, window_start)
            )

    # Snapshot state at window start.
    pages = machine.mem.snapshot()
    perms = machine.mem.snapshot_perms()
    start_icounts: Dict[int, int] = {}
    threads: List[ThreadRecord] = []
    for thread in machine.threads.values():
        if not thread.alive:
            continue
        start_icounts[thread.tid] = thread.icount
        threads.append(_thread_snapshot(thread))
    brk_start = machine.kernel.brk_start
    brk_end = machine.kernel.brk_end
    # tid allocation state must be snapshotted *before* the record
    # window: a clone inside the region bumps the counter, and replay
    # must re-allocate the same tids the recording run handed out.
    next_tid = machine._next_tid
    open_files = _capture_open_files(machine)
    futex_waiters = _capture_futex_waiters(machine)
    ipc_state = _capture_kernel_ipc(machine)

    # Record during the window.
    recorder = _RecordingTool(lazy=not pages_early)
    machine.attach(recorder)
    machine.scheduler.record = True
    machine.scheduler.trace = []
    if not whole_image:
        machine.mem.touch_hook = (
            lambda page, is_write: recorder.touched_pages.add(page)
        )
    with obs.span("logger.record", "pinplay", region=region.name):
        machine.run(max_instructions=window_start + window_length)
    machine.scheduler.record = False
    machine.mem.touch_hook = None
    machine.detach(recorder)

    for record in threads:
        thread = machine.threads[record.tid]
        record.region_icount = thread.icount - start_icounts[record.tid]

    if whole_image:
        kept = pages
    else:
        kept = {page: data for page, data in pages.items()
                if page in recorder.touched_pages}

    if obs.enabled:
        obs.count("logger.regions")
        obs.count("logger.pages_captured", len(kept))
        obs.count("logger.syscall_records", len(recorder.syscalls))

    return Pinball(
        name=options.name,
        region=region,
        pages={page << PAGE_SHIFT: (perms[page], data)
               for page, data in kept.items()},
        threads=threads,
        syscalls=recorder.syscalls,
        schedule=list(machine.scheduler.trace),
        brk_start=brk_start,
        brk_end=brk_end,
        fat=whole_image and pages_early,
        whole_image=whole_image,
        pages_early=pages_early,
        program_icount=0,
        next_tid=next_tid,
        open_files=open_files,
        futex_waiters=futex_waiters,
        **ipc_state,
    )
