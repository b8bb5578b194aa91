"""Workload zoo: stress-pattern generator families beyond Table 5.

The calibrated profiles (:mod:`repro.workloads.profiles`) reproduce the
paper's benchmarks; the zoo targets the *mechanisms* directly with small,
readable kernels, each isolating one stressor of the bypassing pipeline:

=================  ====================================================
``zoo.pchase``     pointer chasing: serialized loads, cache-miss heavy
``zoo.prodcons``   producer-consumer store-to-load chains at short,
                   per-queue-fixed distances (bread-and-butter bypassing)
``zoo.hashjoin``   hash-join probe: random big-table loads behind short
                   hash dependence chains, branchy match logic
``zoo.spmv``       sparse SpMV: sequential index loads feeding gather
                   loads, FP accumulate chain
``zoo.callstack``  call-heavy recursion: stack spill/fill pairs with
                   LIFO store-load distances, deep RAS pressure
``zoo.memset``     streaming stores with rare long-distance read-back
``zoo.overlap``    mixed-size partial-word overlap, including the
                   multi-source two-store case delay must absorb
``zoo.fsm``        branchy state machine over a hot in-memory table
=================  ====================================================

Every family is a deterministic function of ``(num_instructions, seed)``
and is a :class:`~repro.traces.source.GeneratorSource` in
:data:`repro.traces.source.SOURCES`, so
``repro campaign run zoo.pchase zoo.overlap`` sweeps them like any
benchmark.  Bump :data:`ZOO_VERSION` when a family's output changes:
campaign cache keys incorporate it.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable

from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst, annotate_trace

#: Behavioural version of the zoo families (part of campaign cache keys).
ZOO_VERSION = 1

# Operation classes bound once: an enum member read costs about ten module
# global reads, and every emitted instruction needs one (DESIGN.md §4).
_ALU = OpClass.ALU
_COMPLEX = OpClass.COMPLEX
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH

_BASE_REG = 5
_CONST_REG = 6
_DEF_REGS = tuple(range(8, 14))
_USE_REG = 14
_LOAD_REGS = tuple(range(16, 24))
_FP_REGS = tuple(range(34, 42))

_TEXT_BASE = 0x0200_0000
_HEAP_BASE = 0x2000_0000


class _Builder:
    """Shared emission helpers with the generator's register conventions."""

    def __init__(self, name: str, seed: int) -> None:
        self.rng = random.Random(zlib.crc32(name.encode()) ^ seed)
        self.trace: list[DynInst] = []
        self._def_index = 0
        self._load_index = 0

    def __len__(self) -> int:
        return len(self.trace)

    def _emit(self, inst: DynInst) -> DynInst:
        inst.seq = len(self.trace)
        self.trace.append(inst)
        return inst

    def def_reg(self) -> int:
        self._def_index = (self._def_index + 1) % len(_DEF_REGS)
        return _DEF_REGS[self._def_index]

    def alu(self, pc: int, dst: int | None = None,
            srcs: tuple[int, ...] = ()) -> DynInst:
        if dst is None:
            dst = self.def_reg()
        return self._emit(DynInst(
            seq=0, pc=pc, op=_ALU, srcs=srcs, dst=dst, lat=1,
        ))

    def fp(self, pc: int, dst: int, srcs: tuple[int, ...] = ()) -> DynInst:
        return self._emit(DynInst(
            seq=0, pc=pc, op=_COMPLEX, srcs=srcs, dst=dst, lat=4,
        ))

    def load(self, pc: int, addr: int, size: int = 8, *,
             signed: bool = False, base: int = _BASE_REG) -> DynInst:
        self._load_index = (self._load_index + 1) % len(_LOAD_REGS)
        return self._emit(DynInst(
            seq=0, pc=pc, op=_LOAD, srcs=(base,),
            dst=_LOAD_REGS[self._load_index], lat=1, addr=addr, size=size,
            signed=signed,
        ))

    def store(self, pc: int, addr: int, size: int = 8,
              data_reg: int = _CONST_REG) -> DynInst:
        return self._emit(DynInst(
            seq=0, pc=pc, op=_STORE, srcs=(_BASE_REG, data_reg),
            lat=1, addr=addr, size=size,
        ))

    def branch(self, pc: int, taken: bool, *, target: int | None = None,
               srcs: tuple[int, ...] = (), is_call: bool = False,
               is_return: bool = False) -> DynInst:
        return self._emit(DynInst(
            seq=0, pc=pc, op=_BRANCH, srcs=srcs, lat=1, taken=taken,
            target=target if target is not None else pc + 0x20,
            is_call=is_call, is_return=is_return,
        ))


def _pchase(n: int, seed: int) -> list[DynInst]:
    """Pointer chasing: each load's address register is the previous
    load's destination, serializing execution behind the miss latency."""
    b = _Builder("pchase", seed)
    # A shuffled ring over a region far larger than the caches.
    nodes = 4096
    order = list(range(nodes))
    b.rng.shuffle(order)
    pc = _TEXT_BASE
    index = 0
    prev_dst = _BASE_REG
    while len(b) < n:
        addr = _HEAP_BASE + 64 * order[index % nodes]
        index += 1
        node = b.load(pc, addr, base=prev_dst)
        prev_dst = node.dst
        b.alu(pc + 4, srcs=(node.dst,))
        b.alu(pc + 8, dst=_USE_REG, srcs=(_USE_REG,))
        if index % 64 == 0:
            b.branch(pc + 12, taken=index % 2048 != 0)
    return annotate_trace(b.trace)


def _prodcons(n: int, seed: int) -> list[DynInst]:
    """Producer-consumer chains: each of eight queues stores then loads at
    a queue-fixed distance, the pattern distance prediction keys on."""
    b = _Builder("prodcons", seed)
    queues = [(1 + 2 * q, _HEAP_BASE + 0x1000 * q) for q in range(8)]
    cursors = [0] * 8
    while len(b) < n:
        q = b.rng.randrange(8)
        gap, region = queues[q]
        pc = _TEXT_BASE + 0x100 * q
        addr = region + 8 * (cursors[q] % 64)
        cursors[q] += 1
        value = b.alu(pc)
        b.store(pc + 4, addr, 8, value.dst)
        for i in range(gap):
            b.alu(pc + 8 + 4 * i, dst=_USE_REG)
        consumed = b.load(pc + 0x40, addr)
        b.alu(pc + 0x44, dst=_USE_REG, srcs=(consumed.dst,))
    return annotate_trace(b.trace)


def _hashjoin(n: int, seed: int) -> list[DynInst]:
    """Hash-join probe: short hash chains into random big-table loads with
    a biased match branch and occasional output stores."""
    b = _Builder("hashjoin", seed)
    table_slots = 1 << 16
    out_cursor = 0
    while len(b) < n:
        pc = _TEXT_BASE
        key = b.load(pc, _HEAP_BASE + 8 * b.rng.randrange(512))
        h1 = b.alu(pc + 4, srcs=(key.dst,))
        h2 = b.alu(pc + 8, srcs=(h1.dst,))
        bucket = _HEAP_BASE + 0x10_0000 + 8 * b.rng.randrange(table_slots)
        entry = b.load(pc + 12, bucket, base=h2.dst)
        matched = b.rng.random() < 0.25
        b.branch(pc + 16, taken=matched, srcs=(entry.dst,))
        if matched:
            out = _HEAP_BASE + 0x20_0000 + 8 * (out_cursor % 1024)
            out_cursor += 1
            b.store(pc + 0x40, out, 8, entry.dst)
    return annotate_trace(b.trace)


def _spmv(n: int, seed: int) -> list[DynInst]:
    """Sparse matrix-vector gather: sequential index loads feed random
    vector loads into a serialized FP accumulate chain."""
    b = _Builder("spmv", seed)
    acc = _FP_REGS[0]
    index_cursor = 0
    vector_slots = 1 << 15
    while len(b) < n:
        pc = _TEXT_BASE
        index_addr = _HEAP_BASE + 8 * (index_cursor % 8192)
        index_cursor += 1
        col = b.load(pc, index_addr, size=4)
        gather_addr = _HEAP_BASE + 0x40_0000 + 8 * b.rng.randrange(vector_slots)
        value = b.load(pc + 4, gather_addr, base=col.dst)
        product = b.fp(pc + 8, dst=_FP_REGS[1], srcs=(value.dst,))
        b.fp(pc + 12, dst=acc, srcs=(acc, product.dst))
        if index_cursor % 32 == 0:
            b.branch(pc + 16, taken=index_cursor % 1024 != 0)
    return annotate_trace(b.trace)


def _callstack(n: int, seed: int) -> list[DynInst]:
    """Call-heavy recursion: spills at call, fills at return — store-load
    pairs through the stack at LIFO distances, deep RAS pressure."""
    b = _Builder("callstack", seed)
    stack_base = _HEAP_BASE + 0x80_0000
    max_depth = 12
    depth = 0
    while len(b) < n:
        descend = depth < max_depth and (depth == 0 or b.rng.random() < 0.6)
        pc = _TEXT_BASE + 0x100 * depth
        if descend:
            b.branch(pc, taken=True, target=pc + 0x100, is_call=True)
            saved = b.alu(pc + 0x100)
            b.store(pc + 0x104, stack_base + 16 * depth, 8, saved.dst)
            b.alu(pc + 0x108, dst=_USE_REG, srcs=(_USE_REG,))
            depth += 1
        else:
            depth -= 1
            fill = b.load(pc, stack_base + 16 * depth)
            b.alu(pc + 4, dst=_USE_REG, srcs=(fill.dst,))
            b.branch(pc + 8, taken=True, target=pc - 0xF8, is_return=True)
    return annotate_trace(b.trace)


def _memset(n: int, seed: int) -> list[DynInst]:
    """Streaming memset: long sequential store runs, a loop branch per
    line, and a rare read-back of a just-written region."""
    b = _Builder("memset", seed)
    region = _HEAP_BASE + 0xC0_0000
    region_bytes = 1 << 20
    cursor = 0
    while len(b) < n:
        pc = _TEXT_BASE
        line = region + (cursor % region_bytes)
        for i in range(8):
            b.store(pc + 4 * i, line + 8 * i, 8)
        cursor += 64
        b.branch(pc + 0x20, taken=cursor % 4096 != 0)
        if b.rng.random() < 0.02:
            back = region + ((cursor - 64 * b.rng.randint(1, 4))
                             % region_bytes)
            check = b.load(pc + 0x40, back)
            b.alu(pc + 0x44, dst=_USE_REG, srcs=(check.dst,))
    return annotate_trace(b.trace)


#: (store sizes, load size, load offset) overlap variants; multi-element
#: store lists are the multi-source case SMB cannot bypass.
_OVERLAP_VARIANTS = (
    ((8,), 4, 0), ((8,), 4, 4), ((8,), 2, 2), ((8,), 1, 7),
    ((4,), 4, 0), ((4,), 2, 0), ((2,), 1, 1),
    ((4, 4), 8, 0), ((1, 1), 2, 0), ((2, 2), 4, 0),
)


def _overlap(n: int, seed: int) -> list[DynInst]:
    """Mixed-size partial-word overlap: every variant of store/load size
    and offset, including multi-source pairs assembled from two stores."""
    b = _Builder("overlap", seed)
    cursor = 0
    while len(b) < n:
        variant = cursor % len(_OVERLAP_VARIANTS)
        store_sizes, load_size, offset = _OVERLAP_VARIANTS[variant]
        pc = _TEXT_BASE + 0x40 * variant
        addr = _HEAP_BASE + 16 * (cursor % 2048)
        cursor += 1
        value = b.alu(pc)
        piece = 0
        for i, size in enumerate(store_sizes):
            b.store(pc + 4 + 4 * i, addr + piece, size, value.dst)
            piece += size
        b.alu(pc + 0x10, dst=_USE_REG)
        got = b.load(pc + 0x14, addr + offset, load_size,
                     signed=bool(variant % 2))
        b.alu(pc + 0x18, dst=_USE_REG, srcs=(got.dst,))
    return annotate_trace(b.trace)


def _fsm(n: int, seed: int) -> list[DynInst]:
    """Branchy state machine: a hot in-memory transition table drives
    data-dependent branch patterns with structured noise."""
    b = _Builder("fsm", seed)
    table = _HEAP_BASE + 0xE0_0000
    states = 16
    state = 0
    step = 0
    while len(b) < n:
        pc = _TEXT_BASE + 0x40 * state
        entry = b.load(pc, table + 16 * state, size=4)
        b.alu(pc + 4, srcs=(entry.dst,))
        # Mostly-regular transition pattern with seeded noise: the
        # per-state branches are predictable in bursts, then shift.
        advance = ((step >> 4) + state) % 3 != 0
        if b.rng.random() < 0.1:
            advance = not advance
        b.branch(pc + 8, taken=advance, srcs=(entry.dst,))
        if advance:
            state = (state + 1) % states
        else:
            state = (state * 5 + 3) % states
            # Rewrite the entry the next visit to this state will load:
            # store-load communication at a data-dependent distance.
            b.store(pc + 12, table + 16 * state, 4)
        step += 1
    return annotate_trace(b.trace)


#: name (without the ``zoo.`` prefix) -> (generator, one-line description)
FAMILIES: dict[str, tuple[Callable[[int, int], list[DynInst]], str]] = {
    "pchase": (_pchase, "pointer chasing, serialized cache-miss loads"),
    "prodcons": (_prodcons, "producer-consumer store-to-load chains"),
    "hashjoin": (_hashjoin, "hash-join probe over a large table"),
    "spmv": (_spmv, "sparse SpMV index+gather loads, FP accumulate"),
    "callstack": (_callstack, "call-heavy recursion with stack spills"),
    "memset": (_memset, "streaming stores with rare read-back"),
    "overlap": (_overlap, "mixed-size partial-word overlap pairs"),
    "fsm": (_fsm, "branchy state machine over a hot table"),
}

#: Fully-qualified benchmark ids of the zoo families.
ZOO_BENCHMARKS = tuple(f"zoo.{name}" for name in FAMILIES)


def generate_zoo_trace(name: str, num_instructions: int,
                       seed: int = 17) -> list[DynInst]:
    """Generate an annotated trace for zoo family *name* (either form:
    ``pchase`` or ``zoo.pchase``)."""
    key = name[4:] if name.startswith("zoo.") else name
    try:
        generate, _ = FAMILIES[key]
    except KeyError:
        raise KeyError(
            f"unknown zoo family {name!r}; known: {sorted(FAMILIES)}"
        ) from None
    return generate(num_instructions, seed)


def register_zoo_sources() -> None:
    """Add every family to the trace sources as ``zoo.<name>``."""
    from repro.traces.source import SOURCES, GeneratorSource

    for name, (generate, description) in FAMILIES.items():
        SOURCES[f"zoo.{name}"] = GeneratorSource(
            f"zoo.{name}", generate,
            description=description, version=ZOO_VERSION,
        )
