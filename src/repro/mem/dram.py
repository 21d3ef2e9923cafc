"""Main-memory (DRAM) functional model.

Sparse word-granular storage.  During co-simulation the golden RTL copy
must be completely isolated from the target's (possibly corrupted)
writebacks *and* must never read back corrupted data from the live
memory, so it runs on a full private :meth:`Dram.fork` of main memory.
Both sides run behind a :class:`WriteTrackingPort`; the union of written
addresses bounds the post-injection diff, which makes the "did the error
corrupt memory?" check cheap (paper Sec. 2.2 phase 2 checks this every
comparison interval).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.soc.address import LINE_BYTES, WORDS_PER_LINE

_WORD_MASK = (1 << 64) - 1


class Dram:
    """Sparse 64-bit-word main memory (zero-initialized).

    When dirty-word tracking is enabled (delta snapshots), every written
    word address is recorded so a checkpoint can copy only the words
    that changed since the previous one instead of the whole dict.
    """

    __slots__ = ("words", "_dirty")

    def __init__(self) -> None:
        self.words: dict[int, int] = {}
        #: written word addresses since the last delta capture (None:
        #: tracking disabled -- the default outside golden runs)
        self._dirty: "set[int] | None" = None

    def read_word(self, addr: int) -> int:
        return self.words.get(addr & ~7, 0)

    def write_word(self, addr: int, value: int) -> None:
        addr &= ~7
        value &= _WORD_MASK
        if value:
            self.words[addr] = value
        else:
            # keep the dict sparse: zero is the default
            self.words.pop(addr, None)
        if self._dirty is not None:
            self._dirty.add(addr)

    # ------------------------------------------------------------------
    # Dirty-word tracking (delta snapshots)
    # ------------------------------------------------------------------
    def start_dirty_tracking(self) -> None:
        self._dirty = set()

    def stop_dirty_tracking(self) -> None:
        self._dirty = None

    def take_dirty_delta(self) -> dict[int, "int | None"]:
        """Words written since the last capture: addr -> current value.

        ``None`` marks a word that is now zero (erased from the sparse
        dict).  Resets the dirty set.
        """
        if self._dirty is None:
            raise RuntimeError("dirty tracking is not enabled")
        get = self.words.get
        delta = {addr: get(addr) for addr in self._dirty}
        self._dirty = set()
        return delta

    def read_line(self, line_addr: int) -> tuple[int, ...]:
        base = line_addr & ~(LINE_BYTES - 1)
        get = self.words.get
        return tuple(get(base + 8 * i, 0) for i in range(WORDS_PER_LINE))

    def write_line(self, line_addr: int, words: Iterable[int]) -> None:
        base = line_addr & ~(LINE_BYTES - 1)
        for i, value in enumerate(words):
            self.write_word(base + 8 * i, value)

    def fork(self) -> "Dram":
        """An independent copy (the golden component's private memory)."""
        clone = Dram()
        clone.words = dict(self.words)
        return clone

    def snapshot(self) -> dict[int, int]:
        return dict(self.words)

    def restore(self, state: dict[int, int]) -> None:
        if self._dirty is not None:
            # conservative: a wholesale replacement dirties every word
            # that exists on either side
            self._dirty.update(self.words)
            self._dirty.update(state)
        self.words = dict(state)

    def footprint_words(self) -> int:
        """Number of non-zero words currently stored."""
        return len(self.words)


class WriteTrackingPort:
    """A DRAM access port that records which word addresses were written.

    The mixed-mode platform puts one port in front of the live memory
    (target side) and one in front of the golden fork; comparing the two
    memories only at the union of written addresses detects divergence in
    time proportional to co-simulation write traffic, not memory size.
    """

    __slots__ = ("dram", "written", "mirror")

    def __init__(self, dram: Dram) -> None:
        self.dram = dram
        self.written: set[int] = set()
        #: another port every write is repeated on (None: no mirroring)
        self.mirror: "WriteTrackingPort | None" = None

    def read_word(self, addr: int) -> int:
        return self.dram.read_word(addr)

    def write_word(self, addr: int, value: int) -> None:
        self.written.add(addr & ~7)
        self.dram.write_word(addr, value)
        if self.mirror is not None:
            self.mirror.write_word(addr, value)

    def read_line(self, line_addr: int) -> tuple[int, ...]:
        return self.dram.read_line(line_addr)

    def write_line(self, line_addr: int, words: Iterable[int]) -> None:
        base = line_addr & ~(LINE_BYTES - 1)
        for i in range(WORDS_PER_LINE):
            self.written.add(base + 8 * i)
        if self.mirror is not None:
            words = tuple(words)
            self.mirror.write_line(line_addr, words)
        self.dram.write_line(line_addr, words)


def divergent_words(
    live: Dram, golden: Dram, candidate_addrs: Iterable[int]
) -> list[int]:
    """Word addresses among ``candidate_addrs`` where the memories differ.

    The golden fork holds the error-free values; a non-empty result means
    the injected error corrupted main memory.
    """
    return sorted(
        addr
        for addr in set(candidate_addrs)
        if live.read_word(addr) != golden.read_word(addr)
    )
