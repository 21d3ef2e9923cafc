"""Flip-flop-level RTL model of the crossbar interconnect (CCX).

The CCX moves PCX packets from eight core ports to eight L2-bank ports
and CPX packets back.  Per direction it has one 8-entry input FIFO per
source port, a round-robin arbiter per destination port, and an output
staging register per destination -- one packet per destination per cycle.

Routing is *computed from the latched address field* (PCX) or core field
(CPX), so a flipped address bit misroutes the packet to the wrong bank --
the request reaches a bank that does not serve that address range and is
answered with data for the aliased line, or the reply reaches the wrong
core and is dropped there.  Both reproduce real crossbar failure modes.

The crossbar has no high-level uncore state (Table 1 footnote: its state
is reconstructed in co-simulation mode), no ECC-protected flip-flops and
only 340 inactive ones (Table 4: 41,181 of 41,521 flip-flops are
injection targets).
"""

from __future__ import annotations

from repro.rtl.compare import Mismatch, MismatchKind
from repro.rtl.module import RtlModule
from repro.rtl.registers import FlipFlopClass
from repro.soc.address import AddressMap
from repro.soc.packets import CpxPacket, PcxPacket

PORTS = 8
FIFO_DEPTH = 8

#: Table 3 / Table 4 totals.
TOTAL_FFS = 41_521
TARGET_FFS = 41_181
PROTECTED_FFS = 0
INACTIVE_FFS = 340

_FIELDS = dict(valid=1, ptype=3, core=3, thread=3, addr=40, data=64, reqid=16)


class CcxRtl(RtlModule):
    """RTL model of the crossbar (single instance on the chip)."""

    _state_fields = ("protocol_errors", "write_disable", "dropped")

    def __init__(self, amap: AddressMap) -> None:
        super().__init__("ccx")
        self.amap = amap
        for direction in ("pcx", "cpx"):
            for field, width in _FIELDS.items():
                self.reg_array(f"{direction}_fifo_{field}", PORTS * FIFO_DEPTH, width)
            self.reg_array(f"{direction}_head", PORTS, 3)
            self.reg_array(f"{direction}_tail", PORTS, 3)
            self.reg_array(f"{direction}_count", PORTS, 4)
            for field, width in _FIELDS.items():
                self.reg_array(f"{direction}_out_{field}", PORTS, width)
            self.reg_array(f"{direction}_rr", PORTS, 3)
        self.perf_pcx = self.reg("perf_pcx", 64, functional=False)
        self.perf_cpx = self.reg("perf_cpx", 64, functional=False)
        # inactive BIST chain (Table 4)
        self.reg_array("bist_scan_chain", 340, 1, ff_class=FlipFlopClass.INACTIVE)
        # steering configuration shadow / debug capture registers
        used = self.flip_flop_count_by_class()[FlipFlopClass.TARGET]
        remaining = TARGET_FFS - used
        if remaining <= 0:  # pragma: no cover
            raise AssertionError("CCX inventory exceeds Table 4 target count")
        width = 67
        entries, tail = divmod(remaining, width)
        self.reg_array("steer_debug_bank", entries, width, functional=False)
        if tail:
            self.reg("steer_debug_tail", tail, functional=False)
        counts = self.flip_flop_count_by_class()
        assert counts[FlipFlopClass.TARGET] == TARGET_FFS
        assert counts[FlipFlopClass.INACTIVE] == INACTIVE_FFS
        assert self.flip_flop_count() == TOTAL_FFS

        self.protocol_errors = 0
        self.write_disable = False
        #: packets dropped because an input FIFO was full
        self.dropped = 0

    def _fresh(self) -> "CcxRtl":
        return CcxRtl(self.amap)

    # ------------------------------------------------------------------
    # FIFO helpers
    # ------------------------------------------------------------------
    def _push(self, direction: str, port: int, fields: tuple) -> bool:
        regs = self._registers
        count = regs[f"{direction}_count"].read(port)
        if count >= FIFO_DEPTH:
            self.dropped += 1
            return False
        tail = regs[f"{direction}_tail"].read(port) % FIFO_DEPTH
        slot = port * FIFO_DEPTH + tail
        ptype, core, thread, addr, data, reqid = fields
        regs[f"{direction}_fifo_valid"].write(slot, 1)
        regs[f"{direction}_fifo_ptype"].write(slot, ptype)
        regs[f"{direction}_fifo_core"].write(slot, core)
        regs[f"{direction}_fifo_thread"].write(slot, thread)
        regs[f"{direction}_fifo_addr"].write(slot, addr)
        regs[f"{direction}_fifo_data"].write(slot, data)
        regs[f"{direction}_fifo_reqid"].write(slot, reqid)
        regs[f"{direction}_tail"].write(port, (tail + 1) % FIFO_DEPTH)
        regs[f"{direction}_count"].write(port, count + 1)
        return True

    def _head_fields(self, direction: str, port: int) -> "tuple | None":
        regs = self._registers
        if regs[f"{direction}_count"].read(port) == 0:
            return None
        head = regs[f"{direction}_head"].read(port) % FIFO_DEPTH
        slot = port * FIFO_DEPTH + head
        if not regs[f"{direction}_fifo_valid"].read(slot):
            # request lost to a valid-bit flip; consume the slot
            self._pop(direction, port)
            self.protocol_errors += 1
            return None
        return (
            regs[f"{direction}_fifo_ptype"].read(slot),
            regs[f"{direction}_fifo_core"].read(slot),
            regs[f"{direction}_fifo_thread"].read(slot),
            regs[f"{direction}_fifo_addr"].read(slot),
            regs[f"{direction}_fifo_data"].read(slot),
            regs[f"{direction}_fifo_reqid"].read(slot),
        )

    def _pop(self, direction: str, port: int) -> None:
        regs = self._registers
        head = regs[f"{direction}_head"].read(port) % FIFO_DEPTH
        regs[f"{direction}_fifo_valid"].write(port * FIFO_DEPTH + head, 0)
        regs[f"{direction}_head"].write(port, (head + 1) % FIFO_DEPTH)
        regs[f"{direction}_count"].write(
            port, max(0, regs[f"{direction}_count"].read(port) - 1)
        )

    # ------------------------------------------------------------------
    # Machine-facing interface (same shape as HighLevelCcx)
    # ------------------------------------------------------------------
    def send_pcx(self, bank: int, pkt: PcxPacket, cycle: int) -> None:
        """Core-side ingress; the source port is the issuing core."""
        self._push("pcx", pkt.core & 7, pkt.pack_fields())

    def send_cpx(self, pkt: CpxPacket, cycle: int, src: int = 0) -> None:
        """Bank-side ingress; the source port is the sending L2 bank."""
        self._push("cpx", src & 7, pkt.pack_fields())

    def tick(self, cycle: int) -> None:
        """Arbitrate: move one FIFO head per free destination port."""
        if self.write_disable:
            return
        regs = self._registers
        for direction, dest_of in (
            ("pcx", lambda f: self.amap.bank_of(f[3]) & 7),
            ("cpx", lambda f: f[1] & 7),
        ):
            out_valid = regs[f"{direction}_out_valid"]
            rr = regs[f"{direction}_rr"]
            for dest in range(PORTS):
                if out_valid.read(dest):
                    continue  # stage still occupied (not yet delivered)
                start = rr.read(dest)
                for offset in range(PORTS):
                    src = (start + offset) % PORTS
                    fields = self._head_fields(direction, src)
                    if fields is None or dest_of(fields) != dest:
                        continue
                    ptype, core, thread, addr, data, reqid = fields
                    out_valid.write(dest, 1)
                    regs[f"{direction}_out_ptype"].write(dest, ptype)
                    regs[f"{direction}_out_core"].write(dest, core)
                    regs[f"{direction}_out_thread"].write(dest, thread)
                    regs[f"{direction}_out_addr"].write(dest, addr)
                    regs[f"{direction}_out_data"].write(dest, data)
                    regs[f"{direction}_out_reqid"].write(dest, reqid)
                    self._pop(direction, src)
                    rr.write(dest, (src + 1) % PORTS)
                    break

    def deliver_pcx(self, cycle: int) -> list[tuple[int, PcxPacket]]:
        """Drain the bank-side output stages: (bank, packet)."""
        regs = self._registers
        out = []
        for dest in range(PORTS):
            if regs["pcx_out_valid"].read(dest):
                pkt = PcxPacket.unpack_fields(
                    regs["pcx_out_ptype"].read(dest),
                    regs["pcx_out_core"].read(dest),
                    regs["pcx_out_thread"].read(dest),
                    regs["pcx_out_addr"].read(dest),
                    regs["pcx_out_data"].read(dest),
                    regs["pcx_out_reqid"].read(dest),
                )
                out.append((dest, pkt))
                regs["pcx_out_valid"].write(dest, 0)
                self.perf_pcx.write(self.perf_pcx.value + 1)
        return out

    def deliver_cpx(self, cycle: int) -> list[CpxPacket]:
        """Drain the core-side output stages."""
        regs = self._registers
        out = []
        for dest in range(PORTS):
            if regs["cpx_out_valid"].read(dest):
                out.append(
                    CpxPacket.unpack_fields(
                        regs["cpx_out_ptype"].read(dest),
                        regs["cpx_out_core"].read(dest),
                        regs["cpx_out_thread"].read(dest),
                        regs["cpx_out_addr"].read(dest),
                        regs["cpx_out_data"].read(dest),
                        regs["cpx_out_reqid"].read(dest),
                    )
                )
                regs["cpx_out_valid"].write(dest, 0)
                self.perf_cpx.write(self.perf_cpx.value + 1)
        return out

    def in_flight(self) -> int:
        regs = self._registers
        count = 0
        for direction in ("pcx", "cpx"):
            for port in range(PORTS):
                count += regs[f"{direction}_count"].read(port)
                count += regs[f"{direction}_out_valid"].read(port)
        return count

    # ------------------------------------------------------------------
    # Mismatch benignity
    # ------------------------------------------------------------------
    def is_mismatch_benign(self, mismatch: Mismatch) -> bool:
        if super().is_mismatch_benign(mismatch):
            return True
        if mismatch.kind is not MismatchKind.FLIP_FLOP:
            return False
        name = mismatch.name
        regs = self._registers
        for direction in ("pcx", "cpx"):
            if name.startswith(f"{direction}_fifo_") and not name.endswith("_valid"):
                return not regs[f"{direction}_fifo_valid"].read(mismatch.entry)
            if name.startswith(f"{direction}_out_") and not name.endswith("_valid"):
                return not regs[f"{direction}_out_valid"].read(mismatch.entry)
        return False
