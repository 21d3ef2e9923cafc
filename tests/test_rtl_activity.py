"""Activity-gated co-simulation is exact.

The L2C and MCU adapters sleep in the event engine while both RTL copies
are idle.  That is only allowed where skipping a tick is provably exact:
an idle L2C tick is a pure no-op, and an idle MCU tick only advances the
refresh engine and the strobe-alignment shift register, which the MCU
adapter catches up in closed form.  These tests pin both facts down and
run gated and ungated co-simulation side by side.  The ungated path is
the one every adapter without ``next_active_cycle`` takes (ticked every
cycle); it is forced here by removing the method from the adapter class.
"""

import random
from contextlib import contextmanager

import pytest

from repro import obs
from repro.faults.models import parse_fault
from repro.mem.dram import Dram
from repro.mixedmode.adapters import (
    CosimAdapterBase,
    L2cCosimAdapter,
    McuCosimAdapter,
)
from repro.mixedmode.platform import MixedModePlatform
from repro.system.machine import MachineConfig
from repro.uncore import l2c as l2c_mod
from repro.uncore import mcu as mcu_mod
from repro.uncore.mcu import McuRtl

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)
WARMUP = 600
CAP = 1_500


@pytest.fixture(scope="module")
def platform():
    return MixedModePlatform("fft", machine_config=CFG, scale=1 / 150_000)


@pytest.fixture(scope="module")
def pcie_platform():
    # a long enough input file that its DMA outlasts quiescing
    return MixedModePlatform(
        "p-wc", machine_config=CFG, scale=1 / 30_000, pcie_input=True
    )


def _ungate(patch) -> None:
    """Force the per-cycle path: without the probe the engine ticks the
    adapters every cycle."""
    patch.delattr(L2cCosimAdapter, "next_active_cycle")
    patch.delattr(McuCosimAdapter, "next_active_cycle")


@contextmanager
def _attached(platform, component, seed):
    """Restore, fast-forward and attach at a sampled injection point;
    the adapter is released on exit."""
    cycle, instance, _bit = platform.sample_injection_point(
        component, random.Random(seed)
    )
    machine = platform.machine
    machine.restore(platform.golden.snapshot_at_or_before(cycle)[1])
    machine.run_until_cycle(cycle)
    adapter = platform._attach_quiesced(component, instance)
    try:
        yield adapter
    finally:
        adapter.release()


def _rtl_state(rtl) -> dict:
    state = {"storage": rtl.snapshot()}
    for name in rtl._state_fields:
        state[name] = getattr(rtl, name)
    return state


# ----------------------------------------------------------------------
# (a) an idle L2C tick is a pure no-op; in_flight() keeps its values
# ----------------------------------------------------------------------
def _l2c_in_flight_per_entry(rtl) -> int:
    """The per-entry formulation ``L2cRtl.in_flight`` replaced."""
    count = rtl.iq_count.value + rtl.oq_count.value
    for stage in range(1, 5):
        count += rtl._entry_valid(f"p{stage}", 0)
    for i in range(l2c_mod.MB_ENTRIES):
        count += rtl._entry_valid("mb", i)
    for i in range(l2c_mod.FQ_ENTRIES):
        count += bool(rtl.fq_valid.read(i))
    for i in range(l2c_mod.WBB_ENTRIES):
        count += bool(rtl.wbb_valid.read(i))
    for i in range(l2c_mod.INVQ_ENTRIES):
        count += bool(rtl.invq_valid.read(i))
    return count + bool(rtl.mcu_req_valid.value)


def _mcu_in_flight_per_entry(rtl) -> int:
    """The per-entry formulation ``McuRtl.in_flight`` replaced."""
    count = rtl.rq_count.value
    for i in range(mcu_mod.DRAM_BANKS):
        count += bool(rtl.svc_valid.read(i))
    for i in range(mcu_mod.RRQ_ENTRIES):
        count += bool(rtl.rrq_valid.read(i))
    for i in range(mcu_mod.WDB_ENTRIES):
        count += bool(rtl.wdb_valid.read(i))
    return count


def test_idle_l2c_tick_leaves_state_unchanged(platform):
    machine = platform.machine
    idle = busy = 0
    for seed in range(3):
        with _attached(platform, "l2c", seed) as adapter:
            for step in range(WARMUP):
                machine.step()
                rtl = adapter.target
                assert rtl.in_flight() == _l2c_in_flight_per_entry(rtl)
                if not rtl.idle():
                    busy += 1
                    continue
                idle += 1
                assert rtl.in_flight() == 0
                if step % 4:
                    continue
                twin = rtl.clone()
                before = _rtl_state(twin)
                assert twin.tick(machine.cycle) == []
                assert _rtl_state(twin) == before
                assert twin.exec_log == [] and twin.store_miss_completions == []
    # both kinds of state really occur during warmup
    assert idle > 50 and busy > 50


def test_idle_requires_cleared_completion_signals(platform):
    rtl = l2c_mod.L2cRtl(0, platform.machine.amap, CFG.l2_ways, send_mcu=None)
    assert rtl.idle()
    rtl.store_miss_done_valid.write(1)
    assert rtl.in_flight() == 0 and not rtl.idle()
    rtl.tick(0)
    assert rtl.idle()
    rtl.exec_log = [(7, None)]
    assert not rtl.idle()


@pytest.mark.parametrize("component", ["l2c", "mcu"])
def test_in_flight_matches_per_entry_count_under_flips(platform, component):
    """Flipped valid bits and counts count the same both ways."""
    rng = random.Random(11)
    reference = (
        _l2c_in_flight_per_entry if component == "l2c" else _mcu_in_flight_per_entry
    )
    with _attached(platform, component, 4) as adapter:
        platform.machine.run_until_cycle(platform.machine.cycle + 200)
        rtl = adapter.target.clone()
    names = [n for n in rtl.registers() if n.endswith(("_valid", "_count"))]
    for _ in range(200):
        name = rng.choice(names)
        reg = rtl.registers()[name]
        rtl.flip_bit(name, rng.randrange(getattr(reg, "entries", 1)),
                     rng.randrange(reg.width))
        assert rtl.in_flight() == reference(rtl)
        if component == "mcu":
            assert rtl.idle() == (rtl.in_flight() == 0)
        elif rtl.idle():
            assert rtl.in_flight() == 0


# ----------------------------------------------------------------------
# (b) McuRtl.advance_idle(k) is k idle ticks
# ----------------------------------------------------------------------
def _mcu_start(kind: str) -> McuRtl:
    rtl = McuRtl(0, Dram())
    if kind == "refreshing":
        for _ in range(mcu_mod.REFRESH_INTERVAL + 3):
            rtl.tick(0)
        assert rtl.refresh_busy.value
    elif kind == "mid-interval":
        for _ in range(700):
            rtl.tick(0)
    elif kind == "busy-flip":
        rtl.flip_bit("refresh_busy", 0, 4)
    elif kind == "ctr-flip":
        for _ in range(5):
            rtl.tick(0)
        rtl.flip_bit("refresh_ctr", 0, 11)
    elif kind == "strobe-flip":
        for _ in range(40):
            rtl.tick(0)
        rtl.flip_bit("phy_strobe_align", 0, 35)
        rtl.flip_bit("refresh_ctr", 0, 10)
    for b in range(mcu_mod.DRAM_BANKS):
        rtl.bank_row_valid.write(b, b & 1)
    assert rtl.idle()
    return rtl


@pytest.mark.parametrize(
    "kind", ["reset", "refreshing", "mid-interval", "busy-flip", "ctr-flip",
             "strobe-flip"]
)
@pytest.mark.parametrize(
    "k", [0, 1, 35, 36, 37, 2047, 2048, 2049, 2060, 30_000]
)
def test_advance_idle_equals_idle_ticks(kind, k):
    ticked = _mcu_start(kind)
    skipped = ticked.clone()
    skipped.dram = ticked.dram
    for cycle in range(k):
        ticked.tick(cycle)
    skipped.advance_idle(k)
    assert _rtl_state(skipped) == _rtl_state(ticked)
    assert skipped.replies == ticked.replies
    if k >= 30_000:
        assert skipped.perf_refreshes.value > 0


# ----------------------------------------------------------------------
# (c) gated and ungated co-simulation agree at every comparison
# ----------------------------------------------------------------------
def _cosim_state(adapter) -> dict:
    state = {
        "cycle": adapter.machine.cycle,
        "target": _rtl_state(adapter.target),
        "golden": _rtl_state(adapter.golden),
        "golden_dram": dict(adapter.golden_dram.words),
        "target_written": set(adapter.target_port.written),
        "golden_written": set(adapter.golden_port.written),
        "output_mismatch": adapter.erroneous_output_cycle,
        "diverged": adapter.golden_diverged,
    }
    state["pending"] = dict(getattr(adapter, "_golden_pending_reads", {}))
    return state


def _recorded_run(platform, component, spec, seed, cycle, gated, monkeypatch):
    """One faulted injection run plus the co-simulation state seen at
    each of its golden comparisons."""
    states = []
    compare = CosimAdapterBase.compare

    def recording(adapter):
        states.append(_cosim_state(adapter))
        return compare(adapter)

    fault = parse_fault(spec)
    rng = random.Random(seed)
    event = fault.sample_event(platform, component, rng)
    with monkeypatch.context() as patch:
        patch.setattr(CosimAdapterBase, "compare", recording)
        if not gated:
            _ungate(patch)
        run = platform.run_injection(
            component,
            event.cycle if cycle is None else cycle,
            instance=event.instance,
            rng=rng,
            fault=fault,
            event=event,
            cosim_cycle_cap=CAP,
        )
    assert states
    return run.to_dict(), states


CELLS = [
    ("l2c", "seu"), ("mcu", "seu"),
    ("l2c", "stuck"), ("mcu", "stuck"),
    ("l2c", "flicker"), ("mcu", "flicker"),
    ("l2c", "sram"),
]


@pytest.mark.parametrize("component,spec", CELLS)
@pytest.mark.parametrize("seed", [1, 2])
def test_gated_cosim_equals_ungated(platform, monkeypatch, component, spec, seed):
    gated = _recorded_run(platform, component, spec, seed, None, True, monkeypatch)
    ungated = _recorded_run(
        platform, component, spec, seed, None, False, monkeypatch
    )
    assert gated[1] == ungated[1]
    assert gated[0] == ungated[0]


@pytest.mark.parametrize("component", ["l2c", "mcu"])
def test_gated_cosim_equals_ungated_in_dma_window(
    pcie_platform, monkeypatch, component
):
    """Device writes during warmup and co-simulation (early golden fork
    from a sleeping adapter) keep gated and ungated runs identical."""
    lo, hi = pcie_platform.golden.pcie_window
    cycle = lo + (hi - lo) // 4
    runs = [
        _recorded_run(pcie_platform, component, "seu", 3, cycle, gated, monkeypatch)
        for gated in (True, False)
    ]
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# (d) a fault into a sleeping target wakes its slot
# ----------------------------------------------------------------------
def _flip_into_sleeping(platform, component, reg, seed):
    machine = platform.machine
    with _attached(platform, component, seed) as adapter:
        machine.run_until_cycle(machine.cycle + WARMUP)
        adapter.fork_golden()
        for _ in range(2_000):
            if adapter.target.idle() and adapter.golden.idle():
                break
            machine.step()
        assert adapter.target.idle()
        slot = adapter.bank if component == "l2c" else adapter.mcu_idx

        def wake():
            if component == "l2c":
                return machine._wake_banks[slot]
            return machine._wake_mcus[slot]

        sleeping = wake() > machine.cycle
        adapter.flip_at(reg, 0, 0)
        woken = wake() <= machine.cycle
        assert not adapter.target.idle()
        after = []
        for steps in (1, 40):
            machine.run_until_cycle(machine.cycle + steps)
            after.append((_rtl_state(adapter.target), _rtl_state(adapter.golden)))
    return sleeping, woken, after


@pytest.mark.parametrize("component,reg", [("l2c", "iq_count"), ("mcu", "rq_count")])
def test_fault_into_sleeping_target_is_ticked_next_cycle(
    platform, monkeypatch, component, reg
):
    sleeping, woken, gated = _flip_into_sleeping(platform, component, reg, 5)
    assert sleeping and woken
    with monkeypatch.context() as patch:
        _ungate(patch)
        _s, _w, ungated = _flip_into_sleeping(platform, component, reg, 5)
    assert gated == ungated


def test_force_that_changes_nothing_keeps_the_schedule(platform, monkeypatch):
    calls = []
    with _attached(platform, "mcu", 6) as adapter:
        adapter.fork_golden()
        with monkeypatch.context() as patch:
            patch.setattr(adapter.machine, "uncore_changed", lambda: calls.append(1))
            assert adapter.force_at("rq_count", 0, 0, 0) is False
            assert calls == []
            assert adapter.force_at("rq_count", 0, 0, 1) is True
            assert calls == [1]


# ----------------------------------------------------------------------
# (e) outside reads see caught-up state
# ----------------------------------------------------------------------
def _read_after_idle(platform):
    machine = platform.machine
    with _attached(platform, "mcu", 7) as adapter:
        adapter.fork_golden()
        machine.run_until_cycle(machine.cycle + 3 * WARMUP)
        lag = machine.cycle - adapter._next_tick
        # golden first: the read must catch up by itself
        golden = _rtl_state(adapter.golden)
        target = _rtl_state(adapter.target)
    return lag, golden, target


def test_golden_read_after_idle_cycles_is_caught_up(platform, monkeypatch):
    lag, golden, target = _read_after_idle(platform)
    # the copies really had fallen behind when they were read
    assert lag > mcu_mod.STROBE_BITS
    with monkeypatch.context() as patch:
        _ungate(patch)
        _lag, golden_ref, target_ref = _read_after_idle(platform)
    assert golden == golden_ref
    assert target == target_ref


# ----------------------------------------------------------------------
# observability: cosim.rtl_ticks
# ----------------------------------------------------------------------
@pytest.fixture
def obs_state():
    """Restore the obs layer's on/off state and registry after a test."""
    was = obs.enabled()
    obs.REGISTRY.clear()
    try:
        yield
    finally:
        (obs.enable if was else obs.disable)()
        obs.REGISTRY.clear()


def test_rtl_tick_counter_counts_executed_ticks(platform, obs_state):
    obs.enable()
    cycle, bank, bit = platform.sample_injection_point("l2c", random.Random(1))
    run = platform.run_injection("l2c", cycle, bit, instance=bank, warmup=500)
    doc = obs.snapshot()
    ticks = doc["metrics"]["cosim.rtl_ticks"]["value"]
    cycles = run.warmup + run.cosim.cosim_cycles
    # gated: fewer than one tick per cycle (the golden copy ticks too
    # once forked), but some
    assert 0 < ticks < cycles
    assert "cosim.rtl_ticks" in obs.render_table(doc)


def test_rtl_tick_counter_is_null_when_obs_is_off(platform, obs_state):
    obs.disable()
    with _attached(platform, "l2c", 1) as adapter:
        platform.machine.run_until_cycle(platform.machine.cycle + 100)
    assert adapter._rtl_ticks is obs.NULL_COUNTER
    assert obs.REGISTRY.to_dict() == {}
