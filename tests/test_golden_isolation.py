"""Property and scenario tests for golden-copy isolation invariants.

The validity of every outcome classification rests on three invariants
of the co-simulation adapters:

1. pre-injection, the target and golden copies stay bit-identical under
   arbitrary live traffic (so any post-injection mismatch is caused by
   the flip);
2. the golden copy's memory traffic never touches live memory;
3. corruption created by the target is never laundered into the golden
   copy (the golden fork serves all its reads).
"""

import random

import pytest

from repro.mixedmode.adapters import L2cCosimAdapter, McuCosimAdapter
from repro.mixedmode.platform import MixedModePlatform
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)


@pytest.fixture(scope="module")
def platform():
    return MixedModePlatform("flui", machine_config=CFG, scale=1 / 120_000)


def _attach_and_run(platform, component, instance, cycles):
    machine = platform.machine
    machine.restore(platform.golden.snapshots[0])
    machine.run_until_cycle(min(500, platform.golden.cycles // 4))
    adapter = platform._attach_quiesced(component, instance)
    # fork at attach, so the golden copy runs beside the target (solo
    # warmup relies on the two staying identical until the flip)
    adapter.fork_golden()
    for _ in range(cycles):
        machine.step()
    return adapter


@pytest.mark.parametrize("component,instance", [("l2c", 0), ("l2c", 3), ("mcu", 0)])
def test_lockstep_identity_without_injection(platform, component, instance):
    """Invariant 1: no flip => zero mismatches after long co-simulation."""
    adapter = _attach_and_run(platform, component, instance, 1500)
    status = adapter.compare()
    assert status.clean, [
        (m.name, m.entry) for m in status.mismatches[:5]
    ]
    assert adapter.erroneous_output_cycle is None
    adapter.release()


def test_golden_writes_never_reach_live_memory(platform):
    """Invariant 2: golden writebacks stay in the fork."""
    adapter = _attach_and_run(platform, "l2c", 0, 800)
    live_before = dict(platform.machine.dram.words)
    # force the golden copy to write back something via its port
    adapter.golden_port.write_line(0xF00000, tuple(range(8)))
    assert dict(platform.machine.dram.words) == live_before
    adapter.release()


def test_target_corruption_not_laundered_into_golden(platform):
    """Invariant 3: after the target corrupts live memory, golden reads
    still see the clean value."""
    adapter = _attach_and_run(platform, "l2c", 0, 400)
    victim = 0xE00000
    platform.machine.dram.write_word(victim, 0xBAD)
    assert adapter.golden_port.read_word(victim) != 0xBAD
    adapter.release()


def test_mcu_adapter_lockstep_under_traffic(platform):
    adapter = _attach_and_run(platform, "mcu", 1, 1500)
    status = adapter.compare()
    assert status.clean
    adapter.release()


def test_injected_flip_is_sole_initial_divergence(platform):
    """Immediately after the flip, exactly one bit differs."""
    adapter = _attach_and_run(platform, "l2c", 0, 600)
    rng = random.Random(13)
    bit = rng.randrange(adapter.target.target_flip_flop_count())
    adapter.flip(bit)
    status = adapter.compare()
    assert len(status.mismatches) == 1
    assert status.mismatches[0].bit_count == 1
    adapter.release()
