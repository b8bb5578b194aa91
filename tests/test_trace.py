"""Tests for the trace format and ground-truth annotation."""

from hypothesis import example, given, settings, strategies as st

from repro.isa.opcodes import OpClass
from repro.isa.trace import (
    MEMORY_SOURCE,
    DynInst,
    annotate_trace,
    communication_stats,
)
from tests.conftest import build_trace


class TestAnnotation:
    def test_load_from_untouched_memory(self):
        trace = build_trace([("ld", 0x100, 8)])
        load = trace[0]
        assert load.src_stores == (MEMORY_SOURCE,) * 8
        assert not load.communicates
        assert load.containing_store == MEMORY_SOURCE
        assert load.dist_insns == -1

    def test_single_containing_store(self):
        trace = build_trace([
            ("alu", 8),
            ("st", 0x100, 8, 8),
            ("ld", 0x100, 8),
        ])
        load = trace[2]
        assert load.containing_store == 0
        assert load.communicates
        assert not load.is_multi_source
        assert load.dist_insns == 1

    def test_partial_word_containment(self):
        trace = build_trace([
            ("st", 0x100, 8, 8),
            ("ld", 0x104, 4),     # upper half of the store
        ])
        load = trace[1]
        assert load.containing_store == 0
        assert set(load.src_stores) == {0}

    def test_multi_source_detection(self):
        trace = build_trace([
            ("st", 0x100, 1, 8),
            ("st", 0x101, 1, 8),
            ("ld", 0x100, 2),
        ])
        load = trace[2]
        assert load.is_multi_source
        assert load.containing_store == MEMORY_SOURCE
        assert set(load.src_stores) == {0, 1}

    def test_partial_coverage_mixes_memory(self):
        trace = build_trace([
            ("st", 0x100, 1, 8),
            ("ld", 0x100, 2),     # byte 1 never written
        ])
        load = trace[1]
        assert set(load.src_stores) == {0, MEMORY_SOURCE}
        assert load.communicates
        assert load.containing_store == MEMORY_SOURCE

    def test_younger_store_shadows_older(self):
        trace = build_trace([
            ("st", 0x100, 8, 8),
            ("st", 0x100, 8, 9),
            ("ld", 0x100, 8),
        ])
        assert trace[2].containing_store == 1

    def test_partial_overwrite_creates_multi_source(self):
        trace = build_trace([
            ("st", 0x100, 8, 8),
            ("st", 0x100, 2, 9),   # overwrite low halfword
            ("ld", 0x100, 8),
        ])
        load = trace[2]
        assert load.is_multi_source
        assert set(load.src_stores) == {0, 1}

    def test_store_seq_dense(self):
        trace = build_trace([
            ("st", 0x100, 8, 8),
            ("alu", 8),
            ("st", 0x108, 8, 8),
        ])
        assert trace[0].store_seq == 0
        assert trace[2].store_seq == 1

    @given(
        st.lists(
            st.tuples(
                st.booleans(),                      # store or load
                st.integers(min_value=0, max_value=40),  # slot
                st.sampled_from([1, 2, 4, 8]),
            ),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_against_naive_byte_reference(self, ops):
        """annotate_trace must agree with a direct per-byte replay."""
        specs = []
        for is_store, slot, size in ops:
            addr = 0x1000 + 8 * slot
            if is_store:
                specs.append(("st", addr, size, 8))
            else:
                specs.append(("ld", addr, size))
        trace = build_trace(specs)

        last_writer: dict[int, int] = {}
        store_count = 0
        for inst in trace:
            if inst.is_store:
                for byte in range(inst.addr, inst.addr + inst.size):
                    last_writer[byte] = store_count
                store_count += 1
            elif inst.is_load:
                expected = tuple(
                    last_writer.get(b, MEMORY_SOURCE)
                    for b in range(inst.addr, inst.addr + inst.size)
                )
                assert inst.src_stores == expected


#: One stream element: (kind, byte address, size).  Addresses span five
#: words from 0x100, so accesses are unaligned, straddle words, overlap
#: earlier writers partially and hit never-written bytes.
_ACCESS = st.tuples(
    st.sampled_from(["ld", "st", "alu"]),
    st.integers(min_value=0x100, max_value=0x128),
    st.sampled_from([1, 2, 4, 8]),
)


def _stream(ops) -> list[DynInst]:
    trace = []
    for seq, (kind, addr, size) in enumerate(ops):
        if kind == "alu":
            trace.append(DynInst(seq=seq, pc=4 * seq, op=OpClass.ALU, dst=8))
        elif kind == "st":
            trace.append(DynInst(seq=seq, pc=4 * seq, op=OpClass.STORE,
                                 srcs=(5, 8), addr=addr, size=size))
        else:
            trace.append(DynInst(seq=seq, pc=4 * seq, op=OpClass.LOAD,
                                 srcs=(5,), dst=16, addr=addr, size=size))
    return annotate_trace(trace)


def _reference_annotations(trace) -> list[tuple]:
    """Per-byte replay of the annotation definitions, one load at a time."""
    writer: dict[int, tuple[int, int]] = {}  # byte -> (store_seq, inst seq)
    store_count = 0
    out = []
    for inst in trace:
        if inst.is_store:
            for byte in range(inst.addr, inst.addr + inst.size):
                writer[byte] = (store_count, inst.seq)
            out.append(("st", store_count))
            store_count += 1
        elif inst.is_load:
            found = [writer.get(b) for b in range(inst.addr, inst.addr + inst.size)]
            sources = tuple(MEMORY_SOURCE if w is None else w[0] for w in found)
            distinct = set(sources)
            containing = (
                sources[0]
                if len(distinct) == 1 and MEMORY_SOURCE not in distinct
                else MEMORY_SOURCE
            )
            # The historical set(src_stores) iteration order.
            unique = tuple(s for s in distinct if s != MEMORY_SOURCE)
            seqs = [w[1] for w in found if w is not None]
            dist = inst.seq - max(seqs) if seqs else -1
            out.append(("ld", sources, containing, unique, dist))
        else:
            out.append(("other", inst.store_seq))
    return out


def _annotations(trace) -> list[tuple]:
    return [
        ("st", inst.store_seq) if inst.is_store
        else ("ld", inst.src_stores, inst.containing_store,
              inst.unique_stores, inst.dist_insns) if inst.is_load
        else ("other", inst.store_seq)
        for inst in trace
    ]


def _reference_stats(trace, window: int) -> tuple:
    sizes = {i.store_seq: i.size for i in trace if i.is_store}
    loads = [i for i in trace if i.is_load]
    comm = [i for i in loads if i.communicates and 0 <= i.dist_insns <= window]
    partial = [
        i for i in comm
        if i.size < 8 or any(
            sizes[s] < 8 for s in i.src_stores if s != MEMORY_SOURCE
        )
    ]
    return (
        len(loads), sum(i.is_store for i in trace),
        sum(i.is_branch for i in trace), len(comm), len(partial),
        sum(i.is_multi_source for i in comm),
    )


#: Stores 5 and 8 feed one load: set({5, 8}) iterates 8 before 5, so a
#: unique_stores built in any other order fails this example.
_SET_ORDER_CASE = (
    [("st", 0x110, 1)] * 5 + [("st", 0x100, 4)] + [("st", 0x110, 1)] * 2
    + [("st", 0x104, 4), ("ld", 0x100, 8)]
)


class TestAnnotationProperties:
    @given(st.lists(_ACCESS, min_size=1, max_size=80))
    @example(_SET_ORDER_CASE)
    @settings(max_examples=300)
    def test_annotations_match_byte_reference(self, ops):
        trace = _stream(ops)
        assert _annotations(trace) == _reference_annotations(trace)

    @given(st.lists(_ACCESS, min_size=1, max_size=80),
           st.sampled_from([1, 4, 16, 128]))
    @settings(max_examples=200)
    def test_communication_stats_match_definition(self, ops, window):
        trace = _stream(ops)
        stats = communication_stats(trace, window=window)
        assert (
            stats.loads, stats.stores, stats.branches,
            stats.communicating_loads, stats.partial_word_loads,
            stats.multi_source_loads,
        ) == _reference_stats(trace, window)


class TestCommunicationStats:
    def test_window_cutoff(self):
        specs = [("st", 0x100, 8, 8)]
        specs += [("alu", 8)] * 200
        specs += [("ld", 0x100, 8)]
        stats = communication_stats(build_trace(specs), window=128)
        assert stats.communicating_loads == 0
        stats = communication_stats(build_trace(specs), window=256)
        assert stats.communicating_loads == 1

    def test_partial_word_counting(self):
        trace = build_trace([
            ("st", 0x100, 8, 8), ("ld", 0x100, 4),   # narrow load: partial
            ("st", 0x200, 8, 8), ("ld", 0x200, 8),   # full word
            ("st", 0x300, 2, 8), ("ld", 0x300, 2),   # narrow store: partial
        ])
        stats = communication_stats(trace)
        assert stats.loads == 3
        assert stats.communicating_loads == 3
        assert stats.partial_word_loads == 2

    def test_percentages(self):
        trace = build_trace([
            ("st", 0x100, 8, 8), ("ld", 0x100, 8), ("ld", 0x900, 8),
        ])
        stats = communication_stats(trace)
        assert stats.pct_communicating == 50.0

    def test_multi_source_counted(self):
        trace = build_trace([
            ("st", 0x100, 1, 8), ("st", 0x101, 1, 8), ("ld", 0x100, 2),
        ])
        stats = communication_stats(trace)
        assert stats.multi_source_loads == 1
        assert stats.partial_word_loads == 1


class TestDynInstProperties:
    def test_kind_properties(self):
        trace = build_trace([("alu", 8), ("st", 0x0, 8, 8), ("ld", 0x0, 8), ("br", True)])
        assert not trace[0].is_load and not trace[0].is_store
        assert trace[1].is_store
        assert trace[2].is_load
        assert trace[3].is_branch
