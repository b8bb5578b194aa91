"""Equivalence between the associative store-queue search and the timing
model's annotation-based classification.

DESIGN.md claims the hot-path classification (`_classify_against_sq`,
computed from per-byte ground-truth annotations restricted to in-flight
stores) is exactly what an associative store-queue search would produce.
This test checks that claim exhaustively over randomized store/load
interleavings and in-flight windows.
"""

from hypothesis import given, settings, strategies as st

from repro.ooo.lsq import ForwardKind, StoreQueue, StoreQueueEntry
from repro.pipeline import MachineConfig
from repro.pipeline.processor import Processor
from tests.conftest import build_trace

STORES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),    # slot
        st.sampled_from([1, 2, 4, 8]),
    ),
    min_size=0, max_size=12,
)


@given(
    STORES,
    st.integers(min_value=0, max_value=7),       # load slot
    st.sampled_from([1, 2, 4, 8]),               # load size
    st.integers(min_value=0, max_value=12),      # stores already committed
)
@settings(max_examples=300)
def test_sq_search_matches_classification(stores, load_slot, load_size, committed):
    committed = min(committed, len(stores))

    specs = []
    for slot, size in stores:
        addr = 0x8000 + 8 * slot
        addr -= addr % size
        specs.append(("st", addr, size, 8))
    load_addr = 0x8000 + 8 * load_slot
    load_addr -= load_addr % load_size
    specs.append(("ld", load_addr, load_size))
    trace = build_trace(specs)
    load = trace[-1]

    # Build the store queue with only the in-flight suffix of the stores.
    sq = StoreQueue(capacity=64)
    for inst in trace[:-1]:
        if inst.store_seq >= committed:
            sq.insert(
                StoreQueueEntry(
                    seq=inst.seq, ssn=inst.store_seq + 1,
                    addr=inst.addr, size=inst.size,
                )
            )
    search = sq.search(load)

    # Mirror the processor's in-flight view.
    processor = Processor(MachineConfig.conventional())
    processor._inflight_stores = {
        inst.store_seq: object()
        for inst in trace[:-1]
        if inst.store_seq >= committed
    }
    kind, source = processor._classify_against_sq(load)

    assert kind == search.kind.value
    if search.kind is ForwardKind.FULL:
        assert source == trace[search.store.seq].store_seq
    elif search.kind is ForwardKind.PARTIAL:
        assert source == trace[search.youngest_seq].store_seq
