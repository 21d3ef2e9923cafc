"""Phoenix shared-memory MapReduce benchmark analogues (Table 5, bottom).

All three consume large input files (99-108MB in the paper; scaled here)
in a map phase over disjoint chunks, then a lock/FAA reduce --
the canonical Phoenix structure.
"""

from __future__ import annotations

import random

from repro.core.program import ProgramBuilder
from repro.workloads.base import WorkloadImage
from repro.workloads.kernels import (
    atomic_read,
    checksum_loop,
    out_slot,
    reduce_add,
    thread_chunk,
    wait_for_input,
)
from repro.workloads.layout import ImageBuilder
from repro.workloads.splash2 import _input_words


def build_linear_regression(
    threads: int, work: int, rng: random.Random
) -> WorkloadImage:
    """Linear-regression analogue: partial moments + closed-form reduce."""
    ib = ImageBuilder("p-lr", threads)
    iw = max(256, work // 6)
    input_base = ib.set_input_file(_input_words(rng, iw))
    pairs = iw // 2
    sums = {
        name: ib.global_word(name) for name in ("sx", "sy", "sxy", "sxx")
    }
    locks = {name: ib.lock_word(name) for name in sums}
    programs = []
    for tid in range(threads):
        b = ProgramBuilder(f"p-lr.t{tid}")
        wait_for_input(b, 3, 4)
        thread_chunk(b, pairs, 1, 2, 3)
        b.ldi(9, 0)  # sx
        b.ldi(10, 0)  # sy
        b.ldi(11, 0)  # sxy
        b.ldi(12, 0)  # sxx
        b.add(3, 1, 0)
        loop = b.label("map")
        done = b.label("mapd")
        b.place(loop)
        b.bge(3, 2, done)
        b.shli(4, 3, 4)  # pair i at words 2i, 2i+1
        b.addi(5, 4, input_base)
        b.ld(6, 5, 0)
        b.ld(7, 5, 8)
        b.andi(6, 6, 0xFFFF)  # x
        b.andi(7, 7, 0xFFFF)  # y
        b.add(9, 9, 6)
        b.add(10, 10, 7)
        b.mul(8, 6, 7)
        b.add(11, 11, 8)
        b.mul(8, 6, 6)
        b.add(12, 12, 8)
        b.addi(3, 3, 1)
        b.jmp(loop)
        b.place(done)
        reduce_add(b, locks["sx"], sums["sx"], 9, 3, 4)
        reduce_add(b, locks["sy"], sums["sy"], 10, 3, 4)
        reduce_add(b, locks["sxy"], sums["sxy"], 11, 3, 4)
        reduce_add(b, locks["sxx"], sums["sxx"], 12, 3, 4)
        bar = ib.barrier_counter("reduce")
        b.ldi(3, bar)
        b.barrier(3, threads, 4, 5)
        if tid == 0:
            # slope_num = n*sxy - sx*sy ; slope_den = n*sxx - sx*sx
            atomic_read(b, sums["sx"], 6, 3)
            atomic_read(b, sums["sy"], 7, 3)
            atomic_read(b, sums["sxy"], 8, 3)
            atomic_read(b, sums["sxx"], 9, 3)
            b.ldi(10, pairs)
            b.mul(11, 10, 8)
            b.mul(12, 6, 7)
            b.sub(11, 11, 12)  # numerator
            b.mul(12, 10, 9)
            b.mul(13, 6, 6)
            b.sub(12, 12, 13)  # denominator
            b.ori(12, 12, 1)  # guard: denominator is never zero
            b.div(11, 11, 12)
            out_slot(b, 0, 11, 3)
            out_slot(b, 1, 6, 3)
            out_slot(b, 2, 7, 3)
        b.halt()
        programs.append(b.build())
    return ib.finish(programs)


def build_string_match(threads: int, work: int, rng: random.Random) -> WorkloadImage:
    """String-match analogue: byte-pattern scan with an FAA match counter."""
    ib = ImageBuilder("p-sm", threads)
    iw = max(256, work // 14)
    input_base = ib.set_input_file(_input_words(rng, iw))
    matches = ib.global_word("matches")
    #: the byte value searched for in every input word
    pattern = 0x5A
    programs = []
    for tid in range(threads):
        b = ProgramBuilder(f"p-sm.t{tid}")
        wait_for_input(b, 3, 4)
        thread_chunk(b, iw, 1, 2, 3)
        b.ldi(12, 0)  # local match count
        b.add(3, 1, 0)
        loop = b.label("scan")
        done = b.label("scand")
        b.place(loop)
        b.bge(3, 2, done)
        b.shli(4, 3, 3)
        b.addi(4, 4, input_base)
        b.ld(5, 4, 0)
        for byte in range(8):
            b.shri(6, 5, 8 * byte)
            b.andi(6, 6, 0xFF)
            b.ldi(7, pattern)
            miss = b.label(f"miss{byte}_{b.here}")
            b.bne(6, 7, miss)
            b.addi(12, 12, 1)
            b.place(miss)
        b.addi(3, 3, 1)
        b.jmp(loop)
        b.place(done)
        b.ldi(3, matches)
        b.faa(4, 3, 12)
        bar = ib.barrier_counter("scan")
        b.ldi(3, bar)
        b.barrier(3, threads, 4, 5)
        if tid == 0:
            atomic_read(b, matches, 6, 3)
            out_slot(b, 0, 6, 3)
        b.halt()
        programs.append(b.build())
    return ib.finish(programs)


def build_word_count(threads: int, work: int, rng: random.Random) -> WorkloadImage:
    """Word-count analogue: hashing into lock-protected count buckets."""
    ib = ImageBuilder("p-wc", threads)
    iw = max(256, work // 16)
    input_base = ib.set_input_file(_input_words(rng, iw))
    buckets = 32
    counts = ib.alloc("counts", buckets)
    bucket_locks = ib.alloc("bucket_locks", buckets)
    programs = []
    for tid in range(threads):
        b = ProgramBuilder(f"p-wc.t{tid}")
        wait_for_input(b, 3, 4)
        thread_chunk(b, iw, 1, 2, 3)
        b.add(3, 1, 0)
        loop = b.label("wc")
        done = b.label("wcd")
        b.place(loop)
        b.bge(3, 2, done)
        b.shli(4, 3, 3)
        b.addi(4, 4, input_base)
        b.ld(5, 4, 0)  # word
        b.ldi(6, 0x9E3779B97F4A7C15)
        b.mul(5, 5, 6)
        b.shri(5, 5, 32)
        b.andi(5, 5, buckets - 1)
        b.shli(5, 5, 3)
        b.addi(6, 5, bucket_locks)  # r6 = &lock
        b.addi(7, 5, counts)  # r7 = &count
        b.spin_lock(6, 8)
        b.ld(9, 7, 0)
        b.addi(9, 9, 1)
        b.st(9, 7, 0)
        b.spin_unlock(6)
        b.addi(3, 3, 1)
        b.jmp(loop)
        b.place(done)
        bar = ib.barrier_counter("count")
        b.ldi(3, bar)
        b.barrier(3, threads, 4, 5)
        if tid == 0:
            b.ldi(3, 0)
            b.ldi(2, buckets)
            b.ldi(12, 0)
            checksum_loop(b, counts, 3, 2, 12, 4, 5)
            out_slot(b, 0, 12, 3)
        b.halt()
        programs.append(b.build())
    return ib.finish(programs)
