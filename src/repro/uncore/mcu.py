"""Flip-flop-level RTL model of one DRAM controller (MCU).

Microarchitecture:

* a 16-entry request queue (RQ) fed by the two L2 banks the MCU serves,
* eight DRAM-bank finite-state machines with open-row tracking and
  bank-busy timers (row hit: CAS latency; row miss:
  precharge+activate+CAS),
* a 4-entry write data buffer (WDB) holding writeback lines until their
  bank op completes (reads snoop it for same-line ordering),
* a 4-entry read return queue (RRQ) toward the L2 banks,
* a refresh counter that periodically steals a bank cycle,
* ECC-protected data-path staging (excluded per Table 4),
* BIST/redundancy chains (inactive per Table 4).

Inventory matches Table 3 / Table 4: 18,068 flip-flops per instance;
12,007 targets, 4,782 protected, 1,279 inactive.  The architected state
is the DRAM contents themselves (Table 1), which live outside the module
in :class:`repro.mem.dram.Dram`.
"""

from __future__ import annotations

from repro.rtl.compare import Mismatch, MismatchKind
from repro.rtl.module import RtlModule
from repro.rtl.registers import FlipFlopClass
from repro.soc.address import WORDS_PER_LINE
from repro.soc.packets import McuOp, McuReply, McuRequest

RQ_ENTRIES = 16
WDB_ENTRIES = 4
RRQ_ENTRIES = 4
DRAM_BANKS = 8

#: row-hit CAS latency / row-miss (PRE+ACT+CAS) latency, cycles
CAS_LATENCY = 26
ROW_MISS_LATENCY = 58
#: refresh interval and duration
REFRESH_INTERVAL = 2048
REFRESH_CYCLES = 12
#: width of the strobe-alignment shift register
STROBE_BITS = 36

#: Table 3 / Table 4 totals for one MCU instance.
TOTAL_FFS = 18_068
TARGET_FFS = 12_007
PROTECTED_FFS = 4_782
INACTIVE_FFS = 1_279

_WORD_MASK = (1 << 64) - 1
_STROBE_MASK = (1 << STROBE_BITS) - 1


class McuRtl(RtlModule):
    """RTL model of one MCU instance."""

    _state_fields = ("protocol_errors", "write_disable")

    def __init__(self, mcu_idx: int, dram) -> None:
        super().__init__(f"mcu{mcu_idx}")
        self.mcu_idx = mcu_idx
        self.dram = dram

        # ---- request queue ------------------------------------------------
        self.rq_valid = self.reg_array("rq_valid", RQ_ENTRIES, 1)
        self.rq_op = self.reg_array("rq_op", RQ_ENTRIES, 1)
        self.rq_addr = self.reg_array("rq_addr", RQ_ENTRIES, 40)
        self.rq_tag = self.reg_array("rq_tag", RQ_ENTRIES, 16)
        self.rq_src = self.reg_array("rq_src", RQ_ENTRIES, 3)
        self.rq_wdb_slot = self.reg_array("rq_wdb_slot", RQ_ENTRIES, 2)
        self.rq_head = self.reg("rq_head", 4)
        self.rq_tail = self.reg("rq_tail", 4)
        self.rq_count = self.reg("rq_count", 5)

        # ---- in-service registers (one op per DRAM bank) --------------------
        self.svc_valid = self.reg_array("svc_valid", DRAM_BANKS, 1)
        self.svc_op = self.reg_array("svc_op", DRAM_BANKS, 1)
        self.svc_addr = self.reg_array("svc_addr", DRAM_BANKS, 40)
        self.svc_tag = self.reg_array("svc_tag", DRAM_BANKS, 16)
        self.svc_src = self.reg_array("svc_src", DRAM_BANKS, 3)
        self.svc_wdb_slot = self.reg_array("svc_wdb_slot", DRAM_BANKS, 2)
        self.svc_timer = self.reg_array("svc_timer", DRAM_BANKS, 8)

        # ---- DRAM bank state -------------------------------------------------
        self.bank_open_row = self.reg_array("bank_open_row", DRAM_BANKS, 17)
        self.bank_row_valid = self.reg_array("bank_row_valid", DRAM_BANKS, 1)

        # ---- write data buffer -------------------------------------------------
        # Holds the only copy of dirty writeback data until the DRAM op
        # completes: ECC-protected (Table 4) and excluded from the QRR
        # reset domain, so recovery can re-issue pending writes.
        self.wdb_valid = self.reg_array(
            "wdb_valid", WDB_ENTRIES, 1, ff_class=FlipFlopClass.PROTECTED
        )
        self.wdb_addr = self.reg_array(
            "wdb_addr", WDB_ENTRIES, 40, ff_class=FlipFlopClass.PROTECTED
        )
        self.wdb_data = self.reg_array(
            "wdb_data", WDB_ENTRIES, 512, ff_class=FlipFlopClass.PROTECTED
        )

        # ---- read return queue ----------------------------------------------------
        self.rrq_valid = self.reg_array("rrq_valid", RRQ_ENTRIES, 1)
        self.rrq_addr = self.reg_array("rrq_addr", RRQ_ENTRIES, 40)
        self.rrq_data = self.reg_array("rrq_data", RRQ_ENTRIES, 512)
        self.rrq_tag = self.reg_array("rrq_tag", RRQ_ENTRIES, 16)
        self.rrq_src = self.reg_array("rrq_src", RRQ_ENTRIES, 3)

        # ---- refresh engine ---------------------------------------------------------
        self.refresh_ctr = self.reg("refresh_ctr", 12)
        self.refresh_busy = self.reg("refresh_busy", 5)

        # ---- config registers (hardened under QRR, Sec. 6.4 cat. 2) --------------------
        self.cfg_enable = self.reg("cfg_enable", 1, reset_value=1, config=True)
        self.reg("cfg_timing_params", 148, reset_value=0x1234, config=True)
        self.reg("cfg_addr_decode", 160, reset_value=0x77, config=True)

        # ---- timing-critical FFs (hardened under QRR, Sec. 6.4 cat. 1: 36 FFs) -----------
        self.phy_strobe_align = self.reg(
            "phy_strobe_align", STROBE_BITS, timing_critical=True
        )

        # ---- performance counters ------------------------------------------------------
        self.perf_reads = self.reg("perf_reads", 64, functional=False)
        self.perf_writes = self.reg("perf_writes", 64, functional=False)
        self.perf_row_hits = self.reg("perf_row_hits", 64, functional=False)
        self.perf_refreshes = self.reg("perf_refreshes", 64, functional=False)

        # ---- ECC-protected data path (Table 4: excluded) -----------------------------------
        self.reg_array("ecc_rrq_stage", 2, 576, ff_class=FlipFlopClass.PROTECTED)
        used_prot = self.flip_flop_count_by_class()[FlipFlopClass.PROTECTED]
        self.reg(
            "ecc_syndrome_pipe",
            PROTECTED_FFS - used_prot,
            ff_class=FlipFlopClass.PROTECTED,
        )

        # ---- inactive BIST chains (Table 4: excluded) ----------------------------------------
        self.reg_array("bist_scan_chain", 1279, 1, ff_class=FlipFlopClass.INACTIVE)

        # ---- balance bank ------------------------------------------------------------------------
        used = self.flip_flop_count_by_class()[FlipFlopClass.TARGET]
        remaining = TARGET_FFS - used
        if remaining <= 0:  # pragma: no cover - inventory is static
            raise AssertionError("MCU inventory exceeds Table 4 target count")
        width = 59
        entries, tail = divmod(remaining, width)
        self.reg_array("calib_shadow_bank", entries, width, functional=False)
        if tail:
            self.reg("calib_shadow_tail", tail, functional=False)

        counts = self.flip_flop_count_by_class()
        assert counts[FlipFlopClass.TARGET] == TARGET_FFS
        assert counts[FlipFlopClass.PROTECTED] == PROTECTED_FFS
        assert counts[FlipFlopClass.INACTIVE] == INACTIVE_FFS
        assert self.flip_flop_count() == TOTAL_FFS

        #: valid arrays whose entries count as in flight (with rq_count)
        self._valid_arrays = (self.svc_valid, self.rrq_valid, self.wdb_valid)

        #: replies produced this tick.
        self.replies: list[McuReply] = []
        self.protocol_errors = 0
        self.write_disable = False

    def _fresh(self) -> "McuRtl":
        return McuRtl(self.mcu_idx, None)

    # ------------------------------------------------------------------
    # Server interface (same shape as HighLevelMcu)
    # ------------------------------------------------------------------
    def accept(self, req: McuRequest, cycle: int) -> bool:
        if self.write_disable:
            return False
        if self.rq_count.value >= RQ_ENTRIES:
            return False
        wdb_slot = 0
        if req.op is McuOp.WRITE:
            slot = None
            for i in range(WDB_ENTRIES):
                if not self.wdb_valid.read(i):
                    slot = i
                    break
            if slot is None:
                return False  # no write-data space
            data_int = 0
            for i, word in enumerate(req.data):
                data_int |= (word & _WORD_MASK) << (64 * i)
            self.wdb_valid.write(slot, 1)
            self.wdb_addr.write(slot, req.line_addr)
            self.wdb_data.write(slot, data_int)
            wdb_slot = slot
        tail = self.rq_tail.value % RQ_ENTRIES
        self.rq_valid.write(tail, 1)
        self.rq_op.write(tail, int(req.op))
        self.rq_addr.write(tail, req.line_addr)
        self.rq_tag.write(tail, req.tag)
        self.rq_src.write(tail, req.src_bank)
        self.rq_wdb_slot.write(tail, wdb_slot)
        self.rq_tail.write((self.rq_tail.value + 1) % RQ_ENTRIES)
        self.rq_count.write(self.rq_count.value + 1)
        return True

    def tick(self, cycle: int) -> list[McuReply]:
        self.replies = []
        if self.write_disable:
            return self.replies
        self._refresh_tick()
        self._complete_bank_ops()
        self._issue_from_queue()
        self._drain_rrq()
        # strobe-alignment tracking rotates continuously with the refresh
        # counter (timing-critical shadow state, re-derived every cycle)
        self.phy_strobe_align.write(
            ((self.phy_strobe_align.value << 1) | (self.refresh_ctr.value & 1))
            & _STROBE_MASK
        )
        return self.replies

    def in_flight(self) -> int:
        count = self.rq_count.value
        for array in self._valid_arrays:
            count += sum(array.values)
        return count

    def idle(self) -> bool:
        """Whether :meth:`tick` only advances the free-running state.

        With nothing queued, in service, buffered or returning
        (``in_flight() == 0``), a tick moves just the refresh engine
        (``refresh_busy``/``refresh_ctr``/``perf_refreshes``/
        ``bank_row_valid``) and the ``phy_strobe_align`` shift register;
        :meth:`advance_idle` applies any number of such ticks at once.
        """
        return self.in_flight() == 0

    def advance_idle(self, k: int) -> None:
        """Leave exactly the state of ``k`` idle :meth:`tick` calls.

        Valid only while :meth:`idle` holds.  All but the last
        :data:`STROBE_BITS` ticks are skipped in closed form: from a
        refresh the engine repeats every ``REFRESH_CYCLES +
        REFRESH_INTERVAL`` ticks, and ``phy_strobe_align`` depends on
        nothing but the refresh counter's parity over the last
        :data:`STROBE_BITS` ticks, which run one by one.
        """
        if k <= 0:
            return
        self.replies = []
        if self.write_disable:
            return
        busy = self.refresh_busy.value
        ctr = self.refresh_ctr.value
        phy = self.phy_strobe_align.value
        refreshes = 0
        skip = k - STROBE_BITS
        if skip > 0:
            k = STROBE_BITS
            spent = min(busy, skip)
            busy -= spent
            skip -= spent
            if skip:
                first = (ctr + 1) % REFRESH_INTERVAL
                # ticks up to and including the one that wraps ctr to 0
                to_refresh = (REFRESH_INTERVAL - first) % REFRESH_INTERVAL + 1
                if skip < to_refresh:
                    ctr = first + skip - 1
                else:
                    period = REFRESH_CYCLES + REFRESH_INTERVAL
                    rest = skip - to_refresh
                    refreshes = 1 + rest // period
                    phase = rest % period
                    if phase <= REFRESH_CYCLES:
                        busy, ctr = REFRESH_CYCLES - phase, 0
                    else:
                        busy, ctr = 0, phase - REFRESH_CYCLES
        for _ in range(k):
            # _refresh_tick and the strobe shift of tick(), on plain ints
            if busy:
                busy -= 1
            else:
                ctr = (ctr + 1) % REFRESH_INTERVAL
                if ctr == 0:
                    busy = REFRESH_CYCLES
                    refreshes += 1
            phy = ((phy << 1) | (ctr & 1)) & _STROBE_MASK
        self.refresh_busy.write(busy)
        self.refresh_ctr.write(ctr)
        self.phy_strobe_align.write(phy)
        if refreshes:
            self.perf_refreshes.write(self.perf_refreshes.value + refreshes)
            for b in range(DRAM_BANKS):
                self.bank_row_valid.write(b, 0)

    #: callback set by the owner to deliver replies (adapter wiring)
    send_reply = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _dram_bank_of(addr: int) -> int:
        return (addr >> 9) & (DRAM_BANKS - 1)

    @staticmethod
    def _row_of(addr: int) -> int:
        return (addr >> 12) & 0x1FFFF

    def _refresh_tick(self) -> None:
        if self.refresh_busy.value:
            self.refresh_busy.write(self.refresh_busy.value - 1)
            return
        ctr = (self.refresh_ctr.value + 1) % REFRESH_INTERVAL
        self.refresh_ctr.write(ctr)
        if ctr == 0:
            self.refresh_busy.write(REFRESH_CYCLES)
            self.perf_refreshes.write(self.perf_refreshes.value + 1)
            # refresh closes all rows
            for b in range(DRAM_BANKS):
                self.bank_row_valid.write(b, 0)

    def _complete_bank_ops(self) -> None:
        for b in range(DRAM_BANKS):
            if not self.svc_valid.read(b):
                continue
            timer = self.svc_timer.read(b)
            if timer > 0:
                self.svc_timer.write(b, timer - 1)
                continue
            addr = self.svc_addr.read(b)
            if self.svc_op.read(b) == int(McuOp.READ):
                slot = None
                for i in range(RRQ_ENTRIES):
                    if not self.rrq_valid.read(i):
                        slot = i
                        break
                if slot is None:
                    continue  # RRQ full; retry next cycle
                data = self.dram.read_line(addr)
                data_int = 0
                for i, word in enumerate(data):
                    data_int |= (word & _WORD_MASK) << (64 * i)
                self.rrq_valid.write(slot, 1)
                self.rrq_addr.write(slot, addr)
                self.rrq_data.write(slot, data_int)
                self.rrq_tag.write(slot, self.svc_tag.read(b))
                self.rrq_src.write(slot, self.svc_src.read(b))
                self.perf_reads.write(self.perf_reads.value + 1)
            else:
                wdb_slot = self.svc_wdb_slot.read(b)
                if self.wdb_valid.read(wdb_slot):
                    data_int = self.wdb_data.read(wdb_slot)
                    words = tuple(
                        (data_int >> (64 * w)) & _WORD_MASK
                        for w in range(WORDS_PER_LINE)
                    )
                    # note: the *address written* comes from the service
                    # register, so a flipped svc_addr silently corrupts an
                    # arbitrary memory line -- the paper's Sec. 5.2 case
                    self.dram.write_line(addr, words)
                    self.wdb_valid.write(wdb_slot, 0)
                else:
                    self.protocol_errors += 1  # write data vanished
                self.perf_writes.write(self.perf_writes.value + 1)
            self.svc_valid.write(b, 0)

    def _issue_from_queue(self) -> None:
        if self.refresh_busy.value or self.rq_count.value == 0:
            return
        head = self.rq_head.value % RQ_ENTRIES
        if not self.rq_valid.read(head):
            # lost request (e.g. valid-bit flip): skip the slot
            self.rq_head.write((self.rq_head.value + 1) % RQ_ENTRIES)
            self.rq_count.write(self.rq_count.value - 1)
            self.protocol_errors += 1
            return
        addr = self.rq_addr.read(head)
        bank = self._dram_bank_of(addr)
        if self.svc_valid.read(bank):
            return  # bank busy; head-of-line blocks (FIFO ordering)
        # same-line ordering: a read must not overtake a buffered write
        if self.rq_op.read(head) == int(McuOp.READ):
            for i in range(WDB_ENTRIES):
                if self.wdb_valid.read(i) and self.wdb_addr.read(i) == addr:
                    in_service = False
                    for bb in range(DRAM_BANKS):
                        if (
                            self.svc_valid.read(bb)
                            and self.svc_op.read(bb) == int(McuOp.WRITE)
                            and self.svc_wdb_slot.read(bb) == i
                        ):
                            in_service = True
                    if not in_service:
                        return  # wait until the write has been issued
        row = self._row_of(addr)
        if self.bank_row_valid.read(bank) and self.bank_open_row.read(bank) == row:
            latency = CAS_LATENCY
            self.perf_row_hits.write(self.perf_row_hits.value + 1)
        else:
            latency = ROW_MISS_LATENCY
        self.bank_open_row.write(bank, row)
        self.bank_row_valid.write(bank, 1)
        self.svc_valid.write(bank, 1)
        self.svc_op.write(bank, self.rq_op.read(head))
        self.svc_addr.write(bank, addr)
        self.svc_tag.write(bank, self.rq_tag.read(head))
        self.svc_src.write(bank, self.rq_src.read(head))
        self.svc_wdb_slot.write(bank, self.rq_wdb_slot.read(head))
        self.svc_timer.write(bank, latency)
        self.rq_valid.write(head, 0)
        self.rq_head.write((self.rq_head.value + 1) % RQ_ENTRIES)
        self.rq_count.write(self.rq_count.value - 1)

    def _drain_rrq(self) -> None:
        for i in range(RRQ_ENTRIES):
            if self.rrq_valid.read(i):
                data_int = self.rrq_data.read(i)
                words = tuple(
                    (data_int >> (64 * w)) & _WORD_MASK for w in range(WORDS_PER_LINE)
                )
                self.replies.append(
                    McuReply(
                        self.rrq_addr.read(i),
                        words,
                        self.rrq_src.read(i),
                        self.rrq_tag.read(i),
                    )
                )
                self.rrq_valid.write(i, 0)
                return  # one reply per cycle

    # ------------------------------------------------------------------
    # Mismatch benignity
    # ------------------------------------------------------------------
    def is_mismatch_benign(self, mismatch: Mismatch) -> bool:
        if super().is_mismatch_benign(mismatch):
            return True
        if mismatch.kind is not MismatchKind.FLIP_FLOP:
            return False
        name = mismatch.name
        for prefix, valid in (
            ("rq_", self.rq_valid),
            ("svc_", self.svc_valid),
            ("wdb_", self.wdb_valid),
            ("rrq_", self.rrq_valid),
        ):
            if name.startswith(prefix) and not name.endswith("_valid"):
                return not valid.read(mismatch.entry)
        return False
