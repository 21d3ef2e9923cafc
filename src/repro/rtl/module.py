"""Base class for flip-flop-level RTL models.

An :class:`RtlModule` declares its storage inventory (registers, register
arrays, SRAM arrays) in its constructor through :meth:`RtlModule.reg`,
:meth:`RtlModule.reg_array` and :meth:`RtlModule.sram_array`, then
implements cycle behaviour in :meth:`RtlModule.tick`.  The base class
provides everything the mixed-mode platform needs:

* flip-flop enumeration and classification (Table 3 / Table 4 totals),
* single-bit error injection by global target-bit index,
* full state snapshot/restore and state-only cloning (for the golden copy),
* reset with configuration-register preservation (for QRR),
* mismatch benignity hooks (the paper's co-simulation exit conditions).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping

from repro.rtl.compare import Mismatch, MismatchKind, compare_modules
from repro.rtl.registers import FlipFlopClass, Register, RegisterArray, SramArray

#: target-bit index per register layout, shared by every instance with
#: that layout (the index is a pure function of it)
_TARGET_INDEX_CACHE: "dict[tuple, tuple[tuple[str, int, int], ...]]" = {}


class RtlModule:
    """A cycle-level, flip-flop-accurate hardware module model."""

    #: plain (non-storage) attributes that are part of the module's state
    #: and that :meth:`clone` carries over besides registers and SRAMs
    _state_fields: tuple[str, ...] = ()

    def __init__(self, name: str) -> None:
        self.name = name
        self._registers: "OrderedDict[str, Register | RegisterArray]" = OrderedDict()
        self._srams: "OrderedDict[str, SramArray]" = OrderedDict()

    # ------------------------------------------------------------------
    # Inventory declaration
    # ------------------------------------------------------------------
    def reg(self, name: str, width: int, **kwargs) -> Register:
        """Declare a scalar register; returns it for direct use."""
        if name in self._registers or name in self._srams:
            raise ValueError(f"duplicate storage element {name!r}")
        register = Register(name, width, **kwargs)
        self._registers[name] = register
        return register

    def reg_array(self, name: str, entries: int, width: int, **kwargs) -> RegisterArray:
        """Declare a register array; returns it for direct use."""
        if name in self._registers or name in self._srams:
            raise ValueError(f"duplicate storage element {name!r}")
        array = RegisterArray(name, entries, width, **kwargs)
        self._registers[name] = array
        return array

    def sram_array(
        self, name: str, entries: int, width: int, maps_to_highlevel: bool = True
    ) -> SramArray:
        """Declare an SRAM array; returns it for direct use."""
        if name in self._registers or name in self._srams:
            raise ValueError(f"duplicate storage element {name!r}")
        sram = SramArray(name, entries, width, maps_to_highlevel)
        self._srams[name] = sram
        return sram

    def registers(self) -> Mapping[str, Register | RegisterArray]:
        return self._registers

    def srams(self) -> Mapping[str, SramArray]:
        return self._srams

    # ------------------------------------------------------------------
    # Flip-flop accounting (Tables 3 and 4)
    # ------------------------------------------------------------------
    def flip_flop_count(self) -> int:
        """Total flip-flops in the module (Table 3 column)."""
        return sum(r.flip_flops for r in self._registers.values())

    def flip_flop_count_by_class(self) -> dict[FlipFlopClass, int]:
        """Flip-flop totals per Table 4 classification."""
        counts = {cls: 0 for cls in FlipFlopClass}
        for reg in self._registers.values():
            counts[reg.ff_class] += reg.flip_flops
        return counts

    def target_flip_flop_count(self) -> int:
        """Flip-flops eligible for error injection (Table 4 column 1)."""
        return self.flip_flop_count_by_class()[FlipFlopClass.TARGET]

    def _layout_key(self) -> tuple:
        """Everything the target-bit index depends on."""
        return (
            type(self),
            tuple(
                (name, getattr(reg, "entries", None), reg.width, reg.ff_class)
                for name, reg in self._registers.items()
            ),
        )

    def _build_target_index(self) -> tuple[tuple[str, int, int], ...]:
        index: list[tuple[str, int, int]] = []
        for name, reg in self._registers.items():
            if reg.ff_class is not FlipFlopClass.TARGET:
                continue
            if isinstance(reg, RegisterArray):
                for entry in range(reg.entries):
                    for bit in range(reg.width):
                        index.append((name, entry, bit))
            else:
                for bit in range(reg.width):
                    index.append((name, 0, bit))
        return tuple(index)

    def target_bits(self) -> tuple[tuple[str, int, int], ...]:
        """Ordered ``(register, entry, bit)`` list of all target flip-flops.

        Built once per register layout and shared by all instances that
        have it (every injection attaches a fresh module).
        """
        key = self._layout_key()
        index = _TARGET_INDEX_CACHE.get(key)
        if index is None:
            index = _TARGET_INDEX_CACHE[key] = self._build_target_index()
        return index

    def flip_target_bit(self, index: int) -> tuple[str, int, int]:
        """Inject a bit flip into target flip-flop ``index``.

        Returns the ``(register, entry, bit)`` location flipped.
        """
        bits = self.target_bits()
        name, entry, bit = bits[index]
        reg = self._registers[name]
        if isinstance(reg, RegisterArray):
            reg.flip(bit, entry)
        else:
            reg.flip(bit)
        return (name, entry, bit)

    def flip_bit(self, name: str, entry: int, bit: int) -> None:
        """Inject a bit flip by explicit location (any flip-flop class)."""
        reg = self._registers[name]
        if isinstance(reg, RegisterArray):
            reg.flip(bit, entry)
        else:
            reg.flip(bit)

    def flip_sram_bit(self, name: str, entry: int, bit: int) -> None:
        """Inject a bit upset into an SRAM row (SRAM fault models)."""
        self._srams[name].flip(bit, entry)

    def force_bit(self, name: str, entry: int, bit: int, value: int) -> bool:
        """Force a flip-flop to ``value`` (stuck-at); True if it changed."""
        reg = self._registers[name]
        if isinstance(reg, RegisterArray):
            return reg.force(bit, value, entry)
        return reg.force(bit, value)

    # ------------------------------------------------------------------
    # State manipulation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Copy of all storage (flip-flops and SRAMs)."""
        state: dict[str, object] = {}
        for name, reg in self._registers.items():
            state[name] = reg.snapshot()
        for name, sram in self._srams.items():
            state["sram:" + name] = sram.snapshot()
        return state

    def restore(self, state: Mapping[str, object]) -> None:
        """Restore a snapshot produced by :meth:`snapshot`."""
        for name, reg in self._registers.items():
            reg.restore(state[name])
        for name, sram in self._srams.items():
            sram.restore(state["sram:" + name])

    def _fresh(self) -> "RtlModule":
        """A new, unwired instance with this module's register layout.

        The default suits modules whose constructor takes no arguments;
        modules built from geometry or wiring override it.
        """
        return type(self)()

    def clone(self) -> "RtlModule":
        """State copy -- how the golden component is created at injection.

        A fresh instance of the same layout takes over this module's
        registers, SRAMs and :attr:`_state_fields`.  Wiring (callbacks,
        memory ports) is not copied: the caller binds the clone's own.
        """
        twin = self._fresh()
        twin.restore(self.snapshot())
        for name in self._state_fields:
            setattr(twin, name, getattr(self, name))
        return twin

    def reset_flip_flops(
        self, preserve_config: bool = True, preserve_protected: bool = True
    ) -> None:
        """Reset all flip-flops to their reset values (QRR recovery step).

        SRAM contents are preserved -- QRR disables array writes during
        recovery precisely so that the architected arrays survive the
        reset (paper Sec. 6.2).  With ``preserve_config`` set,
        configuration registers keep their values (they are hardened
        instead of being covered by reset+replay, Sec. 6.4 category 2).
        With ``preserve_protected`` set, ECC-protected registers (the
        array-adjacent data buffers) are excluded from the reset domain,
        like the SRAMs they extend.
        """
        for reg in self._registers.values():
            if preserve_config and reg.config:
                continue
            if preserve_protected and reg.ff_class is FlipFlopClass.PROTECTED:
                continue
            reg.reset()

    # ------------------------------------------------------------------
    # Golden comparison hooks
    # ------------------------------------------------------------------
    def compare(self, golden: "RtlModule") -> list[Mismatch]:
        """All storage differences vs. the golden copy."""
        return compare_modules(self, golden)

    def is_mismatch_benign(self, mismatch: Mismatch) -> bool:
        """Whether a mismatch can never cause a functional difference.

        The default implementation handles the generic cases: mismatches
        in non-functional registers (performance counters, debug state).
        Subclasses extend this with structural knowledge -- e.g. a
        corrupted data field of a queue entry whose valid bit is clear
        (the paper's example for exit condition 2).
        """
        if mismatch.kind is MismatchKind.FLIP_FLOP:
            reg = self._registers[mismatch.name]
            if not reg.functional:
                return True
        return False

    def mismatch_maps_to_highlevel(self, mismatch: Mismatch) -> bool:
        """Whether a mismatch lies in state the high-level model carries."""
        if mismatch.kind is MismatchKind.SRAM:
            return self._srams[mismatch.name].maps_to_highlevel
        return False

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def tick(self, inputs: object) -> object:
        """Advance one clock cycle.  Subclasses define input/output types."""
        raise NotImplementedError

    def in_flight(self) -> int:
        """Number of operations currently being processed (0 = quiescent)."""
        raise NotImplementedError

    def describe_inventory(self) -> list[tuple[str, int, str]]:
        """Human-readable storage inventory: (name, flip_flops, class)."""
        rows = []
        for name, reg in self._registers.items():
            rows.append((name, reg.flip_flops, reg.ff_class.value))
        for name, sram in self._srams.items():
            rows.append(("sram:" + name, 0, "sram"))
        return rows
