"""Solo warmup with a golden fork at injection equals a two-copy warmup.

The platform warms up only the target RTL copy and clones the golden
copy from it right before the fault is applied.  Forking at attach (the
golden copy then runs through warmup beside the target) is the early
case of the same code, and must leave every piece of co-simulation
state -- both RTL copies, the golden DRAM fork, both write sets and the
outstanding golden fills -- exactly as the late fork does.
"""

import random

import pytest

from repro import obs
from repro.mixedmode.platform import MixedModePlatform
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)
WARMUP = 600


@pytest.fixture(scope="module")
def platform():
    return MixedModePlatform("fft", machine_config=CFG, scale=1 / 150_000)


@pytest.fixture(scope="module")
def pcie_platform():
    # a long enough input file that its DMA outlasts quiescing
    return MixedModePlatform(
        "p-wc", machine_config=CFG, scale=1 / 30_000, pcie_input=True
    )


def _warm(
    platform, component, instance, cycle, fork_at_attach, writes=(), warmup=WARMUP
):
    """Phase 1 of an injection run, then the fork; returns the adapter and
    whether a device write forked the golden copy during warmup.

    After a device write the two copies may differ before any fault: the
    golden DRAM fork never sees the write, so a golden fill of that line
    reads stale data.  The early fork reproduces exactly that.

    ``writes`` are ``(warmup step, addr, value)`` device writes issued
    during warmup.
    """
    machine = platform.machine
    _c, snap = platform.golden.snapshot_at_or_before(cycle)
    machine.restore(snap)
    machine.run_until_cycle(cycle)
    adapter = platform._attach_quiesced(component, instance)
    if fork_at_attach:
        adapter.fork_golden()
    for step in range(warmup):
        for when, addr, value in writes:
            if when == step:
                machine.dma_write_word(addr, value)
        machine.step()
    forked_early = adapter._golden is not None
    adapter.fork_golden()
    return adapter, forked_early


def _state(adapter) -> dict:
    state = {
        "mismatches": adapter.target.compare(adapter.golden),
        "target": adapter.target.snapshot(),
        "golden": adapter.golden.snapshot(),
    }
    if hasattr(adapter, "golden_dram"):
        state["golden_dram"] = dict(adapter.golden_dram.words)
        state["target_written"] = set(adapter.target_port.written)
        state["golden_written"] = set(adapter.golden_port.written)
    state["pending"] = dict(getattr(adapter, "_golden_pending_reads", {}))
    return state


def _injection_cycle(platform, component, seed):
    cycle, instance, _bit = platform.sample_injection_point(
        component, random.Random(seed)
    )
    return cycle, instance


def _assert_fork_exact(
    platform, component, cycle, instance, writes=(), warmup=WARMUP
):
    late, late_early = _warm(
        platform, component, instance, cycle, False, writes, warmup
    )
    solo = _state(late)
    late.release()
    early, _ = _warm(platform, component, instance, cycle, True, writes, warmup)
    paired = _state(early)
    early.release()
    assert solo == paired
    if not late_early:
        assert solo["mismatches"] == []
    return late_early


@pytest.mark.parametrize("component", ["l2c", "mcu", "ccx"])
@pytest.mark.parametrize("seed", [1, 2])
def test_solo_warmup_state_equals_two_copy_warmup(platform, component, seed):
    cycle, instance = _injection_cycle(platform, component, seed)
    forked_early = _assert_fork_exact(platform, component, cycle, instance)
    assert not forked_early  # no device writes on fft


def _outstanding_fill_point(platform):
    """(cycle, bank, warmup) at which solo warmup ends with an L2 fill
    still outstanding (fills are rare and short on these tiny inputs)."""
    machine = platform.machine
    for seed in range(8):
        cycle, bank = _injection_cycle(platform, "l2c", seed)
        machine.restore(platform.golden.snapshot_at_or_before(cycle)[1])
        machine.run_until_cycle(cycle)
        adapter = platform._attach_quiesced("l2c", bank)
        for warmup in range(1, 1500):
            machine.step()
            if adapter._golden_pending_reads:
                adapter.release()
                return cycle, bank, warmup
        adapter.release()
    raise AssertionError("no L2 fill during any warmup")


def test_fork_with_golden_fills_outstanding():
    """Fills the target issued during solo warmup reach the golden copy
    once it exists, as they would have reached a second warmup copy."""
    platform = MixedModePlatform("lu-c", machine_config=CFG, scale=1 / 150_000)
    cycle, bank, warmup = _outstanding_fill_point(platform)
    _assert_fork_exact(platform, "l2c", cycle, bank, warmup=warmup)
    adapter, _ = _warm(platform, "l2c", bank, cycle, False, warmup=warmup)
    assert adapter._golden_pending_reads
    # the outstanding fills complete on both copies alike
    for _ in range(300):
        platform.machine.step()
    assert not adapter._golden_pending_reads
    assert adapter.compare().clean
    adapter.release()


@pytest.mark.parametrize("seed", [1, 2])
def test_pcie_solo_warmup_state_equals_two_copy_warmup(pcie_platform, seed):
    cycle, instance = _injection_cycle(pcie_platform, "pcie", seed)
    forked_early = _assert_fork_exact(pcie_platform, "pcie", cycle, instance)
    # the engine's own writes are mirrored; its golden never reads memory
    assert not forked_early


def _dma_cycle(platform):
    """An injection cycle inside the input file's DMA window."""
    lo, hi = platform.golden.pcie_window
    assert hi - lo > 200
    return lo + (hi - lo) // 4


@pytest.mark.parametrize("component", ["l2c", "mcu"])
def test_dma_window_during_warmup_forks_early(pcie_platform, component):
    """The input-file DMA overlapping the warmup forks the golden copy
    before its first write lands, and the fork is still exact."""
    cycle = _dma_cycle(pcie_platform)
    assert _assert_fork_exact(pcie_platform, component, cycle, 0)
    assert pcie_platform.machine.before_device_write is None


@pytest.mark.parametrize("component", ["l2c", "mcu", "ccx"])
def test_device_write_mid_warmup(platform, component):
    """Device writes after a stretch of solo warmup: the memory-reading
    adapters fork right before the first one lands, the crossbar (no
    memory) keeps warming up alone; both stay exact."""
    machine = platform.machine
    amap = machine.amap
    cycle, instance = _injection_cycle(platform, component, 3)
    base = min(a for a in platform.golden.snapshots[0]["dram"] if a & 0x3F == 0)
    lines = [base + 64 * i for i in range(64)]
    if component == "l2c":
        lines = [a for a in lines if amap.bank_of(a) == instance]
    elif component == "mcu":
        lines = [a for a in lines if amap.mcu_of_bank(amap.bank_of(a)) == instance]
    writes = [(WARMUP // 3 + i, a, 0x5EED + i) for i, a in enumerate(lines[:4])]
    assert writes
    forked_early = _assert_fork_exact(platform, component, cycle, instance, writes)
    assert forked_early == (component != "ccx")


def _run(platform, component, cycle, instance, bit):
    run = platform.run_injection(
        component, cycle, bit, instance=instance, rng=random.Random(5)
    )
    return run.to_dict()


def _attach_and_fork(self, component, instance):
    adapter = ATTACH(self, component, instance)
    adapter.fork_golden()
    return adapter


ATTACH = MixedModePlatform._attach_quiesced


@pytest.mark.parametrize(
    "component,pcie",
    [("l2c", False), ("mcu", False), ("ccx", False), ("pcie", True),
     ("l2c", True), ("mcu", True)],
)
def test_injection_run_identical_for_both_fork_points(
    platform, pcie_platform, monkeypatch, component, pcie
):
    plat = pcie_platform if pcie else platform
    rng = random.Random(31)
    for _ in range(2):
        cycle, instance, bit = plat.sample_injection_point(component, rng)
        if pcie and component != "pcie":
            cycle = _dma_cycle(plat)
        solo = _run(plat, component, cycle, instance, bit)
        with monkeypatch.context() as patch:
            patch.setattr(MixedModePlatform, "_attach_quiesced", _attach_and_fork)
            paired = _run(plat, component, cycle, instance, bit)
        assert solo == paired


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


def test_early_fork_counter_listed_and_counted(pcie_platform, obs_state):
    obs.enable()
    # one solo warmup (forks early), one fork at attach (does not)
    _assert_fork_exact(pcie_platform, "l2c", _dma_cycle(pcie_platform), 0)
    doc = obs.snapshot()
    assert doc["metrics"]["cosim.golden_forks_early"]["value"] == 1
    assert "cosim.golden_forks_early" in obs.render_table(doc)


def test_early_fork_counter_is_null_when_obs_is_off(platform, obs_state):
    obs.disable()
    adapter, _ = _warm(platform, "l2c", 0, platform.golden.cycles // 2, False)
    adapter.release()
    assert adapter._early_forks is obs.NULL_COUNTER
    assert obs.REGISTRY.to_dict() == {}
