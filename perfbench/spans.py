"""Spans around the public entry points of each layer, recorded from outside.

The benchmark times layers without changing the program: while a
:class:`Tracer` is installed, the entry points :func:`_targets` lists
(plus the methods of every adapter ``make_adapter`` returns) are
replaced by wrappers that record a span -- name, parent span, group id,
start, end -- and put the originals back on exit.  Spans stay in memory
as plain lists and are written out once, when the benchmark ends.  All
spans of one injection share its ``run_injection`` span's index as their
group id.

:func:`layer_metrics` folds a span list into the per-layer metrics named
in ``BENCHMARK.json``; :func:`self_times` gives span time minus child
time per span name.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager

# span list layout
NAME, PARENT, GROUP, T0, T1, NOTE = range(6)

#: ``ended_by`` values of the co-simulation loop -> metric suffix
ENDED = {
    "vanished": "vanished",
    "handover": "handover",
    "cap": "cap",
    "trap_during_cosim": "trap",
}

#: spans inside ``run_injection`` that make up the Fig. 2 phases
PHASES = ("restore", "replay", "attach", "warmup", "inject", "cosim", "phase3")


def _golden_note(golden, _state):
    return {"cycles": golden.cycles, "checkpoints": len(golden.snapshots)}


def _injection_note(run, _state):
    return {"ended_by": run.cosim.ended_by, "cycles": run.cosim.cosim_cycles}


def _run_note(result, start_cycle):
    return {"cycles": result.cycles - start_cycle}


def _qrr_note(result, _state):
    return {"runs": result.injections, "recovered": result.recovered}


def _load_note(loaded, _state):
    return {"hit": loaded[0] is not None}


def _cell_pre(_session, spec):
    return spec.mode


def _cell_note(_result, mode):
    return {"mode": mode}


def _targets():
    """(owner, attribute, span name, pre hook, note hook) per entry point.

    Functions imported by name are patched where their caller looks them
    up (``platform.make_adapter``, ``session.compute_golden``, ...).
    """
    from repro.api import executor, session
    from repro.faults import models
    from repro.mixedmode import platform
    from repro.qrr import campaign as qrr
    from repro.system import machine

    return [
        (session.Session, "run", "session.run", _cell_pre, _cell_note),
        (qrr.QrrCampaign, "run", "qrr.run", None, _qrr_note),
        (platform.MixedModePlatform, "run_injection", "run_injection",
         None, _injection_note),
        (platform.GoldenRun, "snapshot_at_or_before", "snapshot", None, None),
        (machine.Machine, "restore", "restore", None, None),
        (machine.Machine, "run_until_cycle", "run_until_cycle", None, None),
        (machine.Machine, "run", "machine.run", lambda m, *a, **k: m.cycle,
         _run_note),
        (models.FaultModel, "sample_event", "faults.sample", None, None),
        (models.FaultModel, "apply_event", "faults.apply", None, None),
        (platform, "compute_golden", "compute_golden", None, _golden_note),
        (session, "compute_golden", "compute_golden", None, _golden_note),
        (platform, "build_workload", "build_workload", None, None),
        (session, "build_workload", "build_workload", None, None),
        (executor, "store_cached_result", "bus.publish", None, None),
        (executor, "load_cached_result", "bus.load", None, _load_note),
    ]


class _Patches:
    """Replaces attributes and restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        # read the raw attribute so a class's function is restored as-is
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records nested spans around wrapped calls (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, pre=None, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(*args, **kwargs) if pre is not None else None
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            group = (
                index
                if parent < 0 or name == "run_injection"
                else self.spans[parent][GROUP]
            )
            span = [name, parent, group, time.perf_counter(), 0.0, None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span[NOTE] = note(result, state)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        from repro.mixedmode import platform

        patches = _Patches()
        try:
            for owner, attr, name, pre, note in _targets():
                patches.set(
                    owner, attr, self.wrap(name, vars(owner)[attr], pre, note)
                )
            make_adapter = platform.make_adapter

            def traced_adapter(*args, **kwargs):
                adapter = make_adapter(*args, **kwargs)
                for method in ("attach", "compare", "detach", "release"):
                    setattr(
                        adapter, method,
                        self.wrap("adapter." + method, getattr(adapter, method)),
                    )
                return adapter

            patches.set(
                platform, "make_adapter",
                self.wrap("make_adapter", traced_adapter),
            )
            yield self
        finally:
            patches.restore()

    def write(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("name", "parent", "group", "t0", "t1", "note")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


#: seconds one :func:`calibrate` call takes on the reference host (the
#: 2-core VM the benchmark was defined on, at its typical speed)
REFERENCE_CALIBRATION_S = 0.0006


#: why some :func:`calibrate` probes of this process cannot be trusted
PROBE_PROBLEMS: set[str] = set()


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop: the host-speed probe.

    Neighbours on a shared host slow the interpreter by up to ~1.7x for
    seconds to minutes at a time.  The loop is slowed alike (its time
    correlated 0.94 with the time of the same pass of injections), so
    ``REFERENCE_CALIBRATION_S / calibrate()`` scales a time taken next
    to it to the reference host.

    That holds only while the program runs nothing else in this
    interpreter: a second thread or a trace/profile hook would slow the
    probe and the program alike and hide from the scaled times.  Such
    a probe is noted in :data:`PROBE_PROBLEMS`, and the run fails.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(4000):
        table[i % 100] = table.get(i % 100, 0) + i
    seconds = time.perf_counter() - t0
    if threading.active_count() > 1:
        PROBE_PROBLEMS.add(f"{threading.active_count()} threads were running")
    if sys.gettrace() is not None or sys.getprofile() is not None:
        PROBE_PROBLEMS.add("a trace or profile hook was set")
    return seconds


def speed_factor(samples: list[float]) -> float:
    """Mean reference/measured ratio of some :func:`calibrate` samples."""
    return statistics.fmean(REFERENCE_CALIBRATION_S / c for c in samples)


class LatencyProbe:
    """Host time of every ``run_injection`` call, and nothing else.

    The untraced run uses this in place of a :class:`Tracer`: one timer
    pair per injection, so the end-to-end numbers carry no span cost.
    ``PROBES`` :func:`calibrate` probes run just before and again just
    after each injection, outside its timer.  Every injection of a pass
    is scaled by the :func:`speed_factor` of all the probes of that
    pass, the factor that scales the pass time too.  A probe is short
    and noisy, so the probes around one injection estimate the host
    speed worse than a whole pass of them: over 8 processes each, the
    run-to-run spread of (p50, tail) was 5.5%, 4.7% on ``sram-handover``
    and 6.2%, 2.8% on ``seu-memsys`` when scaled per pass, against
    4.3%, 7.5% and 4.9%, 7.5% when scaled by the probes around each
    injection.  A pass runs a fixed list of injections, so each one is
    keyed by its cell and its position in the cell, and every pass adds
    one repeat.
    """

    PROBES = 3

    def __init__(self) -> None:
        #: per pass, the calibration probes taken in it
        self.probes: list[list[float]] = []
        #: per pass, (key, host seconds) of each injection
        self._runs: list[list[tuple]] = []
        self._position: dict[tuple, int] = {}

    def next_pass(self) -> None:
        self._position.clear()
        self.probes.append([])
        self._runs.append([])

    def latencies(self) -> list[float]:
        """One scaled latency per distinct injection: the median of its
        repeats."""
        repeats: dict[tuple, list[float]] = {}
        for probes, runs in zip(self.probes, self._runs):
            factor = speed_factor(probes)
            for key, seconds in runs:
                repeats.setdefault(key, []).append(seconds * factor)
        return [statistics.median(v) for v in repeats.values()]

    @contextmanager
    def installed(self):
        from repro.mixedmode.platform import MixedModePlatform

        original = MixedModePlatform.run_injection

        @functools.wraps(original)
        def timed(platform, component, *args, **kwargs):
            fault = kwargs.get("fault")
            cell = (
                platform.benchmark, platform.pcie_input, component,
                fault.spec_string() if fault is not None else None,
            )
            position = self._position.get(cell, 0)
            self._position[cell] = position + 1
            self.probes[-1].extend(calibrate() for _ in range(self.PROBES))
            t0 = time.perf_counter()
            result = original(platform, component, *args, **kwargs)
            self._runs[-1].append(((cell, position), time.perf_counter() - t0))
            self.probes[-1].extend(calibrate() for _ in range(self.PROBES))
            return result

        patches = _Patches()
        patches.set(MixedModePlatform, "run_injection", timed)
        try:
            yield self
        finally:
            patches.restore()


# ----------------------------------------------------------------------
# folding spans into metrics
# ----------------------------------------------------------------------
def _children(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(index)
    return kids


def _duration(span) -> float:
    return span[T1] - span[T0]


def injection_phases(spans, index: int, kids) -> dict[str, float]:
    """The Fig. 2 phase times of one ``run_injection`` span.

    Phases are cut at the boundaries of the wrapped calls: attach runs
    from the end of replay (so it includes quiescing) to the end of
    ``adapter.attach``; warmup from there to the fault's ``apply_event``;
    co-simulation from the end of the injection to the end of
    ``adapter.detach``/``adapter.release`` (``compare`` is nested in it).
    """
    out = dict.fromkeys(PHASES, 0.0)
    replay_end = attach_end = inject_start = inject_end = cosim_end = None
    for child in kids[index]:
        span = spans[child]
        name = span[NAME]
        if name in ("snapshot", "restore"):
            out["restore"] += _duration(span)
        elif name == "run_until_cycle" and attach_end is None:
            out["replay"] += _duration(span)
            replay_end = span[T1]
        elif name == "adapter.attach":
            attach_end = span[T1]
        elif name == "faults.apply":
            inject_start, inject_end = span[T0], span[T1]
        elif name in ("adapter.detach", "adapter.release"):
            cosim_end = span[T1]
        elif name == "machine.run":
            out["phase3"] += _duration(span)
    if replay_end is not None and attach_end is not None:
        out["attach"] = attach_end - replay_end
    if attach_end is not None and inject_start is not None:
        out["warmup"] = inject_start - attach_end
        out["inject"] = inject_end - inject_start
    if inject_end is not None and cosim_end is not None:
        out["cosim"] = cosim_end - inject_end
    return out


def self_times(spans) -> dict[str, float]:
    """Span time minus the time its child spans cover, summed by name."""
    kids = _children(spans)
    out: dict[str, float] = {}
    for index, span in enumerate(spans):
        inner = sum(_duration(spans[k]) for k in kids[index])
        out[span[NAME]] = out.get(span[NAME], 0.0) + _duration(span) - inner
    return out


def _under(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics over one traced region (see ``BENCHMARK.json``)."""
    kids = _children(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for span in spans:
        total[span[NAME]] = total.get(span[NAME], 0.0) + _duration(span)
        count[span[NAME]] = count.get(span[NAME], 0) + 1

    phases = dict.fromkeys(PHASES, 0.0)
    ended = dict.fromkeys(ENDED.values(), 0)
    cosim_cycles: list[int] = []
    cap_s = 0.0
    for index, span in enumerate(spans):
        if span[NAME] != "run_injection":
            continue
        one = injection_phases(spans, index, kids)
        for phase, seconds in one.items():
            phases[phase] += seconds
        ended[ENDED[span[NOTE]["ended_by"]]] += 1
        cosim_cycles.append(span[NOTE]["cycles"])
        if span[NOTE]["ended_by"] == "cap":
            cap_s += one["cosim"]

    # campaign wall time: injection cells minus the platform builds
    # they trigger (a cold sweep builds inside Session.run)
    campaign_s = 0.0
    for index, span in enumerate(spans):
        if span[NAME] == "session.run" and span[NOTE]["mode"] == "injection":
            campaign_s += _duration(span) - sum(
                _duration(spans[k])
                for k in kids[index]
                if spans[k][NAME] in ("build_workload", "compute_golden")
            )

    golden = [s for s in spans if s[NAME] == "compute_golden"]
    machine_runs = [s for s in spans if s[NAME] == "machine.run"]
    qrr_phase3 = sum(
        _duration(spans[i])
        for i, s in enumerate(spans)
        if s[NAME] == "machine.run" and _under(spans, i, "qrr.run")
    )
    sim_cycles = sum(s[NOTE]["cycles"] for s in golden + machine_runs)
    sim_seconds = sum(_duration(s) for s in golden + machine_runs)
    qrr_runs = [s[NOTE] for s in spans if s[NAME] == "qrr.run"]
    qrr_total = sum(n["runs"] for n in qrr_runs)
    loads = [s[NOTE]["hit"] for s in spans if s[NAME] == "bus.load"]
    injections = len(cosim_cycles)
    phase_sum = sum(phases.values())

    return {
        "mixedmode.restore_s": phases["restore"],
        "mixedmode.replay_s": phases["replay"],
        "mixedmode.attach_s": phases["attach"],
        "mixedmode.warmup_s": phases["warmup"],
        "mixedmode.cosim_s": phases["cosim"],
        "mixedmode.compare_s": total.get("adapter.compare", 0.0),
        "mixedmode.compare_calls": count.get("adapter.compare", 0),
        "mixedmode.phase3_s": phases["phase3"],
        "mixedmode.coverage": phase_sum / campaign_s if campaign_s else 0.0,
        "cosim.ended.vanished": ended["vanished"],
        "cosim.ended.handover": ended["handover"],
        "cosim.ended.cap": ended["cap"],
        "cosim.ended.trap": ended["trap"],
        "cosim.cycles_p50": (
            statistics.median(cosim_cycles) if cosim_cycles else 0
        ),
        "cosim.cycles_max": max(cosim_cycles, default=0),
        "cosim.cap_s": cap_s,
        "cosim.classified_frac": (
            (injections - ended["cap"]) / injections if injections else 0.0
        ),
        "system.golden_s": total.get("compute_golden", 0.0),
        "system.cycles_per_s": sim_cycles / sim_seconds if sim_seconds else 0.0,
        "system.snapshot_checkpoints": sum(
            s[NOTE]["checkpoints"] for s in golden
        ),
        "workloads.build_s": total.get("build_workload", 0.0),
        "faults.sample_s": total.get("faults.sample", 0.0),
        "faults.apply_s": phases["inject"],
        "qrr.run_s": total.get("qrr.run", 0.0),
        "qrr.phase3_s": qrr_phase3,
        "qrr.recovered_frac": (
            sum(n["recovered"] for n in qrr_runs) / qrr_total
            if qrr_total else 0.0
        ),
        "api.cell_s": total.get("session.run", 0.0),
        "api.bus_publish_s": total.get("bus.publish", 0.0),
        "api.bus_load_s": total.get("bus.load", 0.0),
        "api.cache_hits": sum(loads),
        "api.cache_misses": len(loads) - sum(loads),
    }
