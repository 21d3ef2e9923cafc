"""Co-simulation adapters (paper Fig. 1b).

An adapter replaces one high-level uncore model inside the machine with
RTL: the **target** instance (error-injected, live -- its outputs are
what the system actually sees) and, from the injection on, the
**golden** copy (error-free, receives the same inputs, outputs only
compared).  The adapter implements the exact server interface of the
high-level model it replaces, so the machine is oblivious to the swap.

When the golden copy is made:

* attach builds the target only, and warmup runs it alone;
* :meth:`CosimAdapterBase.fork_golden` clones the target into the
  golden copy right before the fault is applied (the flip methods fork
  first too, so a target is never corrupted before its copy exists);
* a device write to live memory during warmup forks the copy earlier,
  *before* the write lands (see below).

Until the fault is applied the target and a golden copy would hold the
same state and see the same inputs, so a second copy running through
warmup would only repeat the target's work.  Solo warmup is exact
because every input the golden copy would see is reproduced for it:

* its private fork of DRAM is taken at attach; every write the target
  makes is mirrored into the golden port, so the fork and both ports'
  write sets end as a two-copy warmup leaves them;
* the fills it would be waiting for are recorded as the target issues
  them (L2C), so their replies reach it after the fork;
* the one input that can differ is a device write: it lands in live
  memory, which the fork never sees, so a golden copy that reads its
  fork (L2C, MCU) would read stale data after it.  Those adapters
  therefore fork before the first device write of their warmup
  (counted by the ``cosim.golden_forks_early`` obs counter).

Activity gating: the L2C and MCU adapters join the event engine's
``next_active_cycle()`` protocol.  An adapter sleeps (``None``) while
its target and, once forked, its golden copy are both idle; otherwise
it is due now.  Skipping a tick is exact only where the tick is
provably known:

* an idle L2C tick (every queue, pipeline stage, MB/FQ/WBB/INVQ entry
  and ``mcu_req_valid`` clear, and last tick's ``store_miss_done_*``,
  ``exec_log`` and ``store_miss_completions`` cleared) is a pure no-op,
  so a sleeping L2C needs no catch-up;
* an idle MCU tick only advances its free-running state: the refresh
  engine and the ``phy_strobe_align`` shift register.  The adapter
  remembers the next cycle it has not ticked and applies the skipped
  idle ticks (:meth:`repro.uncore.mcu.McuRtl.advance_idle`) before any
  tick or ``accept`` and before any outside read of ``target`` or
  ``golden`` -- so compare, fork, fault application and ``in_flight``
  all see caught-up state.

Everything that can make a sleeping copy busy wakes its slot: PCX
delivery, MCU requests and MCU replies go through the machine's wake
paths, and every fault application reschedules (a flip can turn an
idle target busy).  The ``cosim.rtl_ticks`` obs counter counts the RTL
ticks actually executed (target and golden).

Golden isolation invariants, once the copy exists:

* the golden component never writes live memory -- its writebacks land
  in the private fork of DRAM;
* the golden component never reads live memory -- fills are served from
  the fork (so the target's corruption cannot launder the golden copy);
* both sides run behind write-tracking ports, so memory divergence is
  detected by comparing the two memories at the union of written
  addresses only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.mem.dram import WriteTrackingPort
from repro.rtl.compare import Mismatch
from repro.rtl.module import RtlModule
from repro.soc.packets import CpxPacket, McuReply, McuRequest, McuOp, PcxPacket
from repro.uncore.ccx import CcxRtl
from repro.uncore.l2c import L2cRtl
from repro.uncore.mcu import McuRtl
from repro.uncore.pcie import PcieRtl


@dataclass
class ComparisonStatus:
    """Result of one golden-model comparison (Fig. 2, step 7)."""

    mismatches: list[Mismatch] = field(default_factory=list)
    #: mismatches that can never cause a functional difference (cond. 2)
    benign: int = 0
    #: mismatches confined to high-level-mapped state (cond. 1)
    highlevel: int = 0
    #: remaining microarchitectural mismatches
    residual: int = 0
    #: word addresses where live memory diverged from the golden fork
    corrupted_words: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.corrupted_words

    @property
    def exitable(self) -> bool:
        """Accelerated mode can take over (all mismatches map out)."""
        return self.residual == 0


class CosimAdapterBase:
    """Shared bookkeeping for all four component adapters."""

    #: the golden copy reads its DRAM fork, so a device write during
    #: solo warmup must fork it before the write lands
    golden_reads_memory = False

    def __init__(self, machine) -> None:
        self.machine = machine
        #: cycle of the first erroneous output from the target (Fig. 1b,
        #: item 6) -- return-packet comparison against the golden copy.
        self.erroneous_output_cycle: "int | None" = None
        #: the golden copy refused an input the target took (queue
        #: occupancy divergence); conservatively treated as propagation
        self.golden_diverged = False
        self._golden: "RtlModule | None" = None
        self._early_forks = obs.counter("cosim.golden_forks_early")
        self._rtl_ticks = obs.counter("cosim.rtl_ticks")

    # -- hooks implemented per component --------------------------------
    target = None
    hl = None

    def _fork(self) -> RtlModule:
        """Clone the target into a golden copy wired to its own side."""
        return self.target.clone()

    def _plug(self, server) -> None:
        """Put ``server`` into this component's slot in the machine."""
        raise NotImplementedError

    def _transfer_back(self) -> None:
        """Copy the target's state into the high-level model."""

    # -- the golden copy ------------------------------------------------
    @property
    def golden(self) -> RtlModule:
        """The golden copy, forked from the target on first use."""
        if self._golden is None:
            self.fork_golden()
        return self._golden

    def fork_golden(self) -> None:
        """Create the golden copy from the target's current state.

        A no-op once it exists.  The platform calls it right before the
        fault is applied; until then the copy would equal the target.
        """
        if self._golden is not None:
            return
        self._golden = self._fork()
        self._unhook()

    def _fork_before_device_write(self) -> None:
        self._early_forks.inc()
        self.fork_golden()

    def _unhook(self) -> None:
        if self.machine.before_device_write == self._fork_before_device_write:
            self.machine.before_device_write = None

    def _note_output_mismatch(self, cycle: int) -> None:
        if self.erroneous_output_cycle is None:
            self.erroneous_output_cycle = cycle

    def compare(self) -> ComparisonStatus:
        status = ComparisonStatus()
        status.mismatches = self.target.compare(self.golden)
        for m in status.mismatches:
            if self.target.is_mismatch_benign(m):
                status.benign += 1
            elif self.target.mismatch_maps_to_highlevel(m):
                status.highlevel += 1
            else:
                status.residual += 1
        status.corrupted_words = self.memory_divergence()
        return status

    def memory_divergence(self) -> list[int]:
        """Word addresses where the error corrupted main memory."""
        return []

    def quiescent(self) -> bool:
        return self.target.in_flight() == 0

    def in_flight(self) -> int:
        return self.target.in_flight()

    # -- injection (always into a target that has its golden copy) ------
    def _inject(self, apply, *args):
        """Fork the golden copy, apply one fault to the target, and wake
        the slot: a fault can make an idle (sleeping) target busy.  A
        fault that changed nothing (``apply`` returned False) leaves the
        schedule alone."""
        self.fork_golden()
        result = apply(self.target, *args)
        if result is not False:
            self.machine.uncore_changed()
        return result

    def flip(self, bit_index: int) -> tuple[str, int, int]:
        """Inject the bit flip into the target (Fig. 1b, item 4)."""
        return self._inject(RtlModule.flip_target_bit, bit_index)

    # -- location-addressed injection (the fault-model subsystem) --------
    def flip_at(self, name: str, entry: int, bit: int) -> tuple[str, int, int]:
        """Flip an explicit flip-flop location in the target."""
        self._inject(RtlModule.flip_bit, name, entry, bit)
        return (name, entry, bit)

    def flip_sram(self, name: str, entry: int, bit: int) -> tuple[str, int, int]:
        """Flip a bit inside one of the target's SRAM rows."""
        self._inject(RtlModule.flip_sram_bit, name, entry, bit)
        return ("sram:" + name, entry, bit)

    def force_at(self, name: str, entry: int, bit: int, value: int) -> bool:
        """Force a target flip-flop to ``value`` (stuck-at assertion)."""
        return self._inject(RtlModule.force_bit, name, entry, bit, value)

    # -- swapping in and out ----------------------------------------------
    def attach(self) -> None:
        self._plug(self)
        if self.golden_reads_memory and self._golden is None:
            self.machine.before_device_write = self._fork_before_device_write
        self.machine.uncore_changed()

    def detach(self) -> None:
        """Transfer the (possibly corrupted) state back (Fig. 2, step 10)."""
        self._transfer_back()
        self._swap_out()

    def release(self) -> None:
        """Unswap the adapter WITHOUT state transfer (abandoned runs)."""
        self._swap_out()

    def _swap_out(self) -> None:
        self._unhook()
        self._plug(self.hl)
        self.machine.uncore_changed()


class _MemoryForkAdapter(CosimAdapterBase):
    """An adapter whose golden side writes a private fork of DRAM.

    Subclasses build ``target_port``/``golden_port``; until the fork the
    target port mirrors every write into the golden port.
    """

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.golden_dram = machine.dram.fork()

    def _fork(self) -> RtlModule:
        self.target_port.mirror = None
        return super()._fork()

    def memory_divergence(self) -> list[int]:
        candidates = self.target_port.written | self.golden_port.written
        live = self.machine.dram
        return sorted(
            a for a in candidates
            if live.read_word(a) != self.golden_dram.read_word(a)
        )


class L2cCosimAdapter(_MemoryForkAdapter):
    """Co-simulates one L2C bank against its golden copy.

    The golden copy's MCU traffic is *slaved* to the target's observed
    reply timing: the real MCU serves only the target; when a target
    fill reply arrives, the golden copy receives a reply for the same
    transaction with data read from the golden memory fork.  This keeps
    the two copies cycle-aligned without double-loading the real MCU.
    Target writebacks are applied to live memory immediately (the bank
    is the only writer of its address range), keeping write visibility
    symmetric between the two sides.
    """

    golden_reads_memory = True

    def __init__(self, machine, bank: int) -> None:
        super().__init__(machine)
        self.bank = bank
        self.hl = machine.l2banks[bank]
        self.target_port = WriteTrackingPort(machine.dram)
        self.golden_port = WriteTrackingPort(self.golden_dram)
        self.target_port.mirror = self.golden_port
        self._golden_pending_reads: dict[int, int] = {}
        self.target = L2cRtl(
            bank, machine.amap, machine.config.l2_ways, send_mcu=self._target_mcu
        )
        self.target.load_state(machine.l2states[bank])

    def _fork(self) -> RtlModule:
        golden = super()._fork()
        golden.send_mcu = self._golden_mcu
        return golden

    # -- MCU plumbing ----------------------------------------------------
    def _target_mcu(self, req: McuRequest) -> None:
        if req.op is McuOp.WRITE:
            self.target_port.write_line(req.line_addr, req.data)
        else:
            self.machine._send_mcu(req)
            if self._golden is None:
                # the golden copy would issue the same fill
                self._golden_pending_reads[req.tag] = req.line_addr

    def _golden_mcu(self, req: McuRequest) -> None:
        if req.op is McuOp.WRITE:
            self.golden_port.write_line(req.line_addr, req.data)
        else:
            self._golden_pending_reads[req.tag] = req.line_addr

    # -- server interface --------------------------------------------------
    def accept(self, pkt: PcxPacket, cycle: int) -> bool:
        ok = self.target.accept(pkt, cycle)
        golden = self._golden
        if ok and golden is not None and not golden.accept(pkt, cycle):
            self.golden_diverged = True
        return ok

    def deliver_mcu_reply(self, reply: McuReply) -> None:
        self.target.deliver_mcu_reply(reply)
        addr = self._golden_pending_reads.pop(reply.tag, None)
        if addr is not None and self._golden is not None:
            self._golden.deliver_mcu_reply(
                McuReply(addr, self.golden_port.read_line(addr), self.bank, reply.tag)
            )

    def tick(self, cycle: int) -> list[CpxPacket]:
        out_t = self.target.tick(cycle)
        golden = self._golden
        self._rtl_ticks.inc(1 if golden is None else 2)
        if golden is not None and golden.tick(cycle) != out_t:
            self._note_output_mismatch(cycle)
        return out_t

    def next_active_cycle(self) -> "int | None":
        """Sleep while both copies are idle (an idle tick is a no-op)."""
        golden = self._golden
        if self.target.idle() and (golden is None or golden.idle()):
            return None
        return self.machine.cycle

    def dma_update(self, addr: int, value: int) -> None:
        """Coherent DMA update applied to both copies (device writes are
        error-free input, identical on both sides)."""
        self.target.dma_update(addr, value)
        if self._golden is not None:
            self._golden.dma_update(addr, value)

    # -- platform hooks -------------------------------------------------------
    def cache_corruption_words(self) -> list[int]:
        """Word addresses corrupted inside the architected cache arrays.

        Uses the *golden* copy's tags to name the affected lines (the
        golden values are the correct ones the application should see).
        """
        amap = self.machine.amap
        words: set[int] = set()
        t, g = self.target, self.golden
        for li in range(t.sets * t.ways):
            set_idx = li // t.ways
            g_state = g.state_sram.read(li)
            if not (g_state & 1):
                continue
            g_addr = amap.rebuild_addr(g.tag_sram.read(li), set_idx, self.bank)
            if (
                t.state_sram.read(li) != g_state
                or t.tag_sram.read(li) != g.tag_sram.read(li)
            ):
                for w in range(8):
                    words.add(g_addr + 8 * w)
            elif t.data_sram.read(li) != g.data_sram.read(li):
                diff = t.data_sram.read(li) ^ g.data_sram.read(li)
                for w in range(8):
                    if (diff >> (64 * w)) & ((1 << 64) - 1):
                        words.add(g_addr + 8 * w)
        return sorted(words)

    def _plug(self, server) -> None:
        self.machine.l2banks[self.bank] = server

    def _transfer_back(self) -> None:
        self.target.extract_state(self.machine.l2states[self.bank])


class McuCosimAdapter(_MemoryForkAdapter):
    """Co-simulates one MCU against its golden copy.

    The MCU is self-contained (requests in, replies/DRAM traffic out),
    so the golden copy simply runs on a fork of main memory.  While the
    slot sleeps the copies fall behind by idle ticks, which
    :attr:`target`/:attr:`golden` and the server methods catch up first.
    """

    golden_reads_memory = True

    def __init__(self, machine, mcu_idx: int) -> None:
        super().__init__(machine)
        self.mcu_idx = mcu_idx
        self.hl = machine.mcus[mcu_idx]
        self.target_port = WriteTrackingPort(machine.dram)
        self.golden_port = WriteTrackingPort(self.golden_dram)
        self.target_port.mirror = self.golden_port
        self._target = McuRtl(mcu_idx, self.target_port)
        #: first cycle the copies have not been ticked through while
        #: attached (None: not attached, nothing to catch up)
        self._next_tick: "int | None" = None

    @property
    def target(self) -> McuRtl:
        self._catch_up(self.machine.cycle)
        return self._target

    @property
    def golden(self) -> McuRtl:
        self._catch_up(self.machine.cycle)
        return super().golden

    def _catch_up(self, cycle: int) -> None:
        """Apply the idle ticks skipped before ``cycle`` while asleep."""
        due = self._next_tick
        if due is not None and cycle > due:
            self._target.advance_idle(cycle - due)
            if self._golden is not None:
                self._golden.advance_idle(cycle - due)
            self._next_tick = cycle

    def _fork(self) -> RtlModule:
        golden = super()._fork()
        golden.dram = self.golden_port
        return golden

    def next_active_cycle(self) -> "int | None":
        """Sleep while both copies are idle (caught up on waking)."""
        golden = self._golden
        if self._target.idle() and (golden is None or golden.idle()):
            return None
        return self.machine.cycle

    def accept(self, req: McuRequest, cycle: int) -> bool:
        self._catch_up(cycle)
        ok = self._target.accept(req, cycle)
        golden = self._golden
        if ok and golden is not None and not golden.accept(req, cycle):
            self.golden_diverged = True
        return ok

    def tick(self, cycle: int) -> None:
        self._catch_up(cycle)
        rep_t = self._target.tick(cycle)
        golden = self._golden
        self._rtl_ticks.inc(1 if golden is None else 2)
        if golden is not None and golden.tick(cycle) != rep_t:
            self._note_output_mismatch(cycle)
        self._next_tick = cycle + 1
        for reply in rep_t:
            self.machine._route_mcu_reply(reply)

    def attach(self) -> None:
        self._next_tick = self.machine.cycle
        super().attach()

    def _swap_out(self) -> None:
        # freeze the copies at the swap-out cycle
        self._catch_up(self.machine.cycle)
        self._next_tick = None
        super()._swap_out()

    def _plug(self, server) -> None:
        self.machine.mcus[self.mcu_idx] = server


class CcxCosimAdapter(CosimAdapterBase):
    """Co-simulates the crossbar against its golden copy.

    The crossbar holds no architected state (Table 1): its mismatches
    either vanish as queues drain or manifest as erroneous deliveries.
    """

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.hl = machine.ccx
        self.target = CcxRtl(machine.amap)

    def send_pcx(self, bank: int, pkt: PcxPacket, cycle: int) -> None:
        self.target.send_pcx(bank, pkt, cycle)
        if self._golden is not None:
            self._golden.send_pcx(bank, pkt, cycle)

    def send_cpx(self, pkt: CpxPacket, cycle: int, src: int = 0) -> None:
        self.target.send_cpx(pkt, cycle, src)
        if self._golden is not None:
            self._golden.send_cpx(pkt, cycle, src)

    def tick(self, cycle: int) -> None:
        self.target.tick(cycle)
        self._rtl_ticks.inc(1 if self._golden is None else 2)
        if self._golden is not None:
            self._golden.tick(cycle)

    def deliver_pcx(self, cycle: int) -> list[tuple[int, PcxPacket]]:
        out_t = self.target.deliver_pcx(cycle)
        golden = self._golden
        if golden is not None and golden.deliver_pcx(cycle) != out_t:
            self._note_output_mismatch(cycle)
        return out_t

    def deliver_cpx(self, cycle: int) -> list[CpxPacket]:
        out_t = self.target.deliver_cpx(cycle)
        golden = self._golden
        if golden is not None and golden.deliver_cpx(cycle) != out_t:
            self._note_output_mismatch(cycle)
        return out_t

    def _plug(self, server) -> None:
        self.machine.ccx = server


class _CapturePort:
    """DMA write port that captures the per-tick write stream."""

    def __init__(self, sink_write) -> None:
        self._sink_write = sink_write
        self.stream: list[tuple[int, int]] = []
        self.written: set[int] = set()
        #: another port every write is repeated on (None: no mirroring)
        self.mirror: "_CapturePort | None" = None

    def write_word(self, addr: int, value: int) -> None:
        self.stream.append((addr & ~7, value))
        self.written.add(addr & ~7)
        self._sink_write(addr, value)
        if self.mirror is not None:
            self.mirror.write_word(addr, value)

    def take(self) -> list[tuple[int, int]]:
        out = self.stream
        self.stream = []
        return out


class PcieCosimAdapter(_MemoryForkAdapter):
    """Co-simulates the PCIe controller's DMA engine.

    The engine only *writes* (it streams the host-side input file into
    memory), so golden isolation reduces to capturing both write streams:
    the target writes through the machine's coherent DMA path, the golden
    writes into a memory fork.  Diverging streams are erroneous outputs;
    diverging memories are corruption.  The golden copy never reads its
    fork, so the target's own device writes need no early fork.
    """

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self.hl = machine.pcie
        self.target_port = _CapturePort(machine.dma_write_word)
        self.golden_port = _CapturePort(self.golden_dram.write_word)
        self.target_port.mirror = self.golden_port
        self.target = module = PcieRtl(self.target_port)
        # transfer the in-progress descriptor state from the high-level model
        module.file_words = list(self.hl.file_words)
        module.dma_dest.write(self.hl.dest_base)
        module.dma_len.write(len(self.hl.file_words))
        module.dma_progress.write(self.hl.progress)
        module.dma_status_addr.write(self.hl.status_addr)
        module.dma_active.write(1 if self.hl.active else 0)
        module.start_cycle = self.hl.start_cycle
        module.finish_cycle = self.hl.finish_cycle

    def _fork(self) -> RtlModule:
        golden = super()._fork()
        golden.port = self.golden_port
        return golden

    def begin_transfer(self, *args, **kwargs) -> None:  # pragma: no cover
        raise RuntimeError("transfers cannot be armed during co-simulation")

    def tick(self, cycle: int) -> None:
        self.target.tick(cycle)
        self._rtl_ticks.inc(1 if self._golden is None else 2)
        if self._golden is not None:
            self._golden.tick(cycle)
        # while warming up alone the mirror makes both streams equal
        if self.target_port.take() != self.golden_port.take():
            self._note_output_mismatch(cycle)

    @property
    def active(self) -> bool:
        return self.target.active

    def _plug(self, server) -> None:
        self.machine.pcie = server

    def _transfer_back(self) -> None:
        """Copy the descriptor state back to the high-level model."""
        self.hl.progress = self.target.dma_progress.value
        self.hl.active = bool(self.target.dma_active.value)
        self.hl.finish_cycle = self.target.finish_cycle


def make_adapter(machine, component: str, instance: int = 0) -> CosimAdapterBase:
    """Build the co-simulation adapter for one uncore component."""
    if component == "l2c":
        return L2cCosimAdapter(machine, instance)
    if component == "mcu":
        return McuCosimAdapter(machine, instance)
    if component == "ccx":
        return CcxCosimAdapter(machine)
    if component == "pcie":
        return PcieCosimAdapter(machine)
    raise ValueError(f"unknown uncore component {component!r}")
