"""Tests for the RTL module base class (repro.rtl.module)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtl.compare import MismatchKind
from repro.rtl.module import RtlModule
from repro.rtl.registers import FlipFlopClass


class ToyModule(RtlModule):
    """A small module exercising every storage kind."""

    def __init__(self):
        super().__init__("toy")
        self.ctrl = self.reg("ctrl", 8, reset_value=0x10)
        self.queue = self.reg_array("queue", 4, 16)
        self.cfg = self.reg("cfg", 4, reset_value=0xA, config=True)
        self.prot = self.reg("prot", 8, ff_class=FlipFlopClass.PROTECTED)
        self.bist = self.reg("bist", 8, ff_class=FlipFlopClass.INACTIVE)
        self.perf = self.reg("perf", 8, functional=False)
        self.mem = self.sram_array("mem", 4, 32)

    def tick(self, inputs):
        return None

    def in_flight(self):
        return 0


class TestInventory:
    def test_flip_flop_count(self):
        m = ToyModule()
        assert m.flip_flop_count() == 8 + 64 + 4 + 8 + 8 + 8

    def test_count_by_class(self):
        counts = ToyModule().flip_flop_count_by_class()
        assert counts[FlipFlopClass.TARGET] == 8 + 64 + 4 + 8
        assert counts[FlipFlopClass.PROTECTED] == 8
        assert counts[FlipFlopClass.INACTIVE] == 8

    def test_target_bits_enumeration(self):
        m = ToyModule()
        bits = m.target_bits()
        assert len(bits) == m.target_flip_flop_count()
        # protected/inactive registers never appear
        names = {name for name, _e, _b in bits}
        assert "prot" not in names and "bist" not in names

    def test_duplicate_name_rejected(self):
        m = ToyModule()
        with pytest.raises(ValueError):
            m.reg("ctrl", 4)
        with pytest.raises(ValueError):
            m.sram_array("queue", 2, 2)

    def test_describe_inventory(self):
        rows = ToyModule().describe_inventory()
        assert ("ctrl", 8, "target") in rows
        assert ("sram:mem", 0, "sram") in rows


class TestFlipping:
    def test_flip_target_bit_reaches_array_entries(self):
        m = ToyModule()
        # bit 8 is the first bit of queue entry 0 (after ctrl's 8 bits)
        name, entry, bit = m.flip_target_bit(8)
        assert name == "queue" and entry == 0 and bit == 0
        assert m.queue.read(0) == 1

    def test_every_target_bit_flippable(self):
        m = ToyModule()
        for i in range(m.target_flip_flop_count()):
            m.flip_target_bit(i)
        # flipping every bit once then once more restores the state
        snap = m.snapshot()
        for i in range(m.target_flip_flop_count()):
            m.flip_target_bit(i)
        m2 = ToyModule()
        for name, reg in m2.registers().items():
            pass  # state comparison below via compare()
        assert m.compare(ToyModule()) == []  # double flip == identity

    def test_flip_bit_by_name(self):
        m = ToyModule()
        m.flip_bit("prot", 0, 2)
        assert m.prot.value == 4

    def test_flip_bit_reaches_every_class(self):
        """flip_bit addresses any flip-flop class, not just TARGET --
        the fault subsystem's classes= filter relies on this."""
        m = ToyModule()
        m.flip_bit("bist", 0, 7)       # INACTIVE
        assert m.bist.value == 0x80
        m.flip_bit("cfg", 0, 0)        # config register
        assert m.cfg.value == 0xB
        m.flip_bit("perf", 0, 1)       # non-functional
        assert m.perf.value == 2
        m.flip_bit("queue", 3, 15)     # array entry addressing
        assert m.queue.read(3) == 0x8000
        # double flip restores every location
        for name, entry, bit in (("bist", 0, 7), ("cfg", 0, 0),
                                 ("perf", 0, 1), ("queue", 3, 15)):
            m.flip_bit(name, entry, bit)
        assert m.compare(ToyModule()) == []

    def test_flip_bit_out_of_range(self):
        m = ToyModule()
        with pytest.raises(IndexError):
            m.flip_bit("ctrl", 0, 8)
        with pytest.raises(IndexError):
            m.flip_bit("queue", 4, 0)
        with pytest.raises(KeyError):
            m.flip_bit("nope", 0, 0)

    def test_flip_sram_bit(self):
        m = ToyModule()
        m.flip_sram_bit("mem", 2, 5)
        assert m.mem.read(2) == 32
        (mismatch,) = m.compare(ToyModule())
        assert mismatch.kind is MismatchKind.SRAM
        m.flip_sram_bit("mem", 2, 5)
        assert m.compare(ToyModule()) == []

    def test_flip_sram_bit_out_of_range(self):
        m = ToyModule()
        with pytest.raises(IndexError):
            m.flip_sram_bit("mem", 4, 0)
        with pytest.raises(IndexError):
            m.flip_sram_bit("mem", 0, 32)

    def test_force_bit(self):
        m = ToyModule()
        assert m.force_bit("ctrl", 0, 0, 1) is True
        assert m.ctrl.value == 0x11
        # re-forcing the same value reports no change (stuck-at re-assert)
        assert m.force_bit("ctrl", 0, 0, 1) is False
        assert m.force_bit("ctrl", 0, 4, 0) is True
        assert m.ctrl.value == 0x01
        assert m.force_bit("queue", 2, 3, 1) is True
        assert m.queue.read(2) == 8


class TestSnapshotCompare:
    def test_snapshot_restore_roundtrip(self):
        m = ToyModule()
        m.ctrl.write(0x42)
        m.queue.write(2, 0xBEEF)
        m.mem.write(1, 123)
        snap = m.snapshot()
        m.ctrl.write(0)
        m.queue.write(2, 0)
        m.mem.write(1, 0)
        m.restore(snap)
        assert m.ctrl.value == 0x42
        assert m.queue.read(2) == 0xBEEF
        assert m.mem.read(1) == 123

    def test_clone_is_deep(self):
        m = ToyModule()
        c = m.clone()
        m.queue.write(0, 5)
        assert c.queue.read(0) == 0

    def test_sram_snapshot_restore_roundtrip(self):
        m = ToyModule()
        for row in range(4):
            m.mem.write(row, row * 0x111)
        snap = m.snapshot()
        assert snap["sram:mem"] == [0, 0x111, 0x222, 0x333]
        for row in range(4):
            m.mem.write(row, 0xDEAD)
        m.restore(snap)
        assert [m.mem.read(r) for r in range(4)] == [0, 0x111, 0x222, 0x333]

    def test_sram_snapshot_is_a_copy(self):
        m = ToyModule()
        snap = m.snapshot()
        m.mem.write(0, 99)
        assert snap["sram:mem"][0] == 0

    def test_sram_restore_rejects_wrong_shape(self):
        m = ToyModule()
        snap = m.snapshot()
        snap["sram:mem"] = [0, 1]  # wrong entry count
        with pytest.raises(ValueError, match="entry count"):
            m.restore(snap)

    def test_clone_is_deep_for_srams(self):
        m = ToyModule()
        c = m.clone()
        m.mem.write(1, 77)
        m.flip_sram_bit("mem", 2, 0)
        assert c.mem.read(1) == 0
        assert c.mem.read(2) == 0
        assert len(m.compare(c)) == 2

    def test_compare_identical(self):
        assert ToyModule().compare(ToyModule()) == []

    def test_compare_detects_ff_mismatch(self):
        a, b = ToyModule(), ToyModule()
        a.queue.write(3, 0xF0)
        mismatches = a.compare(b)
        assert len(mismatches) == 1
        m = mismatches[0]
        assert m.kind is MismatchKind.FLIP_FLOP
        assert (m.name, m.entry, m.xor) == ("queue", 3, 0xF0)
        assert m.bit_count == 4

    def test_compare_detects_sram_mismatch(self):
        a, b = ToyModule(), ToyModule()
        a.mem.write(0, 7)
        mismatches = a.compare(b)
        assert mismatches[0].kind is MismatchKind.SRAM

    def test_nonfunctional_mismatch_benign(self):
        a, b = ToyModule(), ToyModule()
        a.perf.write(9)
        (m,) = a.compare(b)
        assert a.is_mismatch_benign(m)

    def test_sram_mismatch_maps_to_highlevel(self):
        a, b = ToyModule(), ToyModule()
        a.mem.write(0, 1)
        (m,) = a.compare(b)
        assert a.mismatch_maps_to_highlevel(m)


class TestReset:
    def test_reset_preserves_config(self):
        m = ToyModule()
        m.cfg.write(0x5)
        m.ctrl.write(0xFF)
        m.reset_flip_flops(preserve_config=True)
        assert m.cfg.value == 0x5
        assert m.ctrl.value == 0x10  # reset value

    def test_reset_preserves_protected(self):
        m = ToyModule()
        m.prot.write(0x77)
        m.reset_flip_flops(preserve_protected=True)
        assert m.prot.value == 0x77

    def test_full_reset(self):
        m = ToyModule()
        m.cfg.write(0x5)
        m.prot.write(0x77)
        m.reset_flip_flops(preserve_config=False, preserve_protected=False)
        assert m.cfg.value == 0xA
        assert m.prot.value == 0

    def test_reset_keeps_srams(self):
        m = ToyModule()
        m.mem.write(2, 99)
        m.reset_flip_flops()
        assert m.mem.read(2) == 99


class TestFlipProperties:
    @settings(max_examples=50)
    @given(st.integers(0, 8 + 64 + 4 + 8 - 1))
    def test_single_flip_single_mismatch(self, index):
        m = ToyModule()
        m.flip_target_bit(index)
        mismatches = m.compare(ToyModule())
        assert len(mismatches) == 1
        assert mismatches[0].bit_count == 1


def _wiring(module) -> list:
    """Objects the module's plain attributes point at, bound methods
    resolved to their owner."""
    out = []
    for value in vars(module).values():
        out.append(getattr(value, "__self__", value))
    return out


class TestCloneIsAStateCopy:
    """``clone()`` copies state only: the golden copy gets its own wiring."""

    @pytest.fixture(scope="class")
    def machine(self):
        from repro.system.machine import Machine, MachineConfig

        return Machine(MachineConfig(cores=2, threads_per_core=2, l2_sets=16))

    def _adapter(self, machine, component):
        from repro.mixedmode.adapters import make_adapter

        return make_adapter(machine, component, 0)

    @pytest.mark.parametrize("component", ["l2c", "mcu", "ccx", "pcie"])
    def test_clone_shares_no_port_dram_or_machine(self, machine, component):
        adapter = self._adapter(machine, component)
        target = adapter.target
        target.flip_target_bit(7)
        target.write_disable = True
        if hasattr(target, "protocol_errors"):
            target.protocol_errors = 3
        twin = target.clone()
        assert type(twin) is type(target)
        assert twin.compare(target) == []
        for name in type(target)._state_fields:
            assert getattr(twin, name) == getattr(target, name)
        wiring = _wiring(twin)
        for foreign in (machine, machine.dram, adapter, getattr(adapter, "target_port", None)):
            if foreign is not None:
                assert all(obj is not foreign for obj in wiring)
        # no register object is shared either
        for name, reg in target.registers().items():
            assert twin.registers()[name] is not reg

    def test_callback_and_ports_left_for_the_caller(self, machine):
        assert self._adapter(machine, "l2c").target.clone().send_mcu is None
        assert self._adapter(machine, "mcu").target.clone().dram is None
        assert self._adapter(machine, "pcie").target.clone().port is None

    def test_target_index_shared_per_layout(self, machine):
        a = self._adapter(machine, "l2c").target
        b = self._adapter(machine, "l2c").target
        assert a.target_bits() is b.target_bits()
        assert len(a.target_bits()) == a.target_flip_flop_count()
