"""Tests for trace serialization (the v2 format, via repro.isa.tracefile)."""

import gzip
import json

import pytest

from repro.isa.tracefile import (
    TraceFormatError,
    load_trace,
    save_trace,
)
from repro.pipeline import MachineConfig, Processor
from repro.workloads import generate_trace
from tests.conftest import build_trace, write_v1_file


class TestRoundTrip:
    def test_fields_survive(self, tmp_path):
        trace = build_trace([
            ("alu", 8),
            ("st", 0x100, 2, 8),
            ("ld", 0x100, 2, {"signed": True}),
            ("br", True),
            ("call",),
            ("ret", 0x1010),
        ])
        path = tmp_path / "t.bt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for original, reloaded in zip(trace, loaded):
            for name in ("seq", "pc", "op", "srcs", "dst", "addr", "size",
                         "signed", "taken", "target", "is_call", "is_return",
                         "store_seq", "src_stores", "containing_store",
                         "dist_insns"):
                assert getattr(original, name) == getattr(reloaded, name), name

    def test_generated_workload_roundtrip(self, tmp_path):
        trace = generate_trace("applu", num_instructions=2_000)
        path = tmp_path / "applu.bt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)

    def test_simulation_identical_on_reload(self, tmp_path):
        """A reloaded trace must simulate to the exact same cycle count."""
        trace = generate_trace("g721.e", num_instructions=3_000)
        path = tmp_path / "g.bt"
        save_trace(trace, path)
        loaded = load_trace(path)
        original = Processor(MachineConfig.nosq()).run(trace)
        reloaded = Processor(MachineConfig.nosq()).run(loaded)
        assert original.cycles == reloaded.cycles
        assert original.flushes == reloaded.flushes

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.bt"
        save_trace([], path)
        assert load_trace(path) == []


class TestErrors:
    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "bad.trace.gz"
        with gzip.open(path, "wt") as stream:
            stream.write(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            load_trace(path)

    def test_v1_file_is_rejected(self, tmp_path):
        """A file in the retired v1 gzip-JSONL format names itself as
        not being a v2 trace instead of loading."""
        path = tmp_path / "old.trace.gz"
        write_v1_file(path)
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "not a repro trace file in the v2 format" in message
        assert "\n" not in message
