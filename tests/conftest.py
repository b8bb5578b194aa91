"""Shared test fixtures, Hypothesis profiles, trace-building helpers."""

from __future__ import annotations

import gzip
import json
import os

import pytest
from hypothesis import HealthCheck, settings

from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst, annotate_trace

# Hypothesis profiles: "ci" (the default) derandomizes example generation
# so the suite explores a fixed, seed-stable set of traces on every run;
# "dev" restores random exploration for local bug hunting
# (HYPOTHESIS_PROFILE=dev pytest ...).  Per-test @settings(...) overrides
# compose with whichever profile is active.
settings.register_profile(
    "ci", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def build_trace(specs):
    """Build an annotated trace from compact specs.

    Each spec is a tuple; the first element selects the kind:

    * ``("alu", dst, *srcs)``                  -- 1-cycle ALU op
    * ``("fp", dst, *srcs)``                   -- 4-cycle complex op
    * ``("st", addr, size, data_src)``         -- store (base reg 5)
    * ``("ld", addr, size)``                   -- load (dst rotates 16..23)
    * ``("ld", addr, size, dict(...))``        -- load with field overrides
    * ``("br", taken)``                        -- conditional branch
    * ``("call",)`` / ``("ret",)``             -- call / return
    * ``("nop",)``

    PCs default to ``0x1000 + 4 * index`` unless a spec dict provides one.
    """
    trace = []
    load_reg = 16
    for index, spec in enumerate(specs):
        kind = spec[0]
        pc = 0x1000 + 4 * index
        overrides = {}
        if spec and isinstance(spec[-1], dict):
            overrides = spec[-1]
            spec = spec[:-1]
        if kind == "alu":
            inst = DynInst(
                seq=index, pc=pc, op=OpClass.ALU,
                dst=spec[1], srcs=tuple(spec[2:]), lat=1,
            )
        elif kind == "fp":
            inst = DynInst(
                seq=index, pc=pc, op=OpClass.COMPLEX,
                dst=spec[1], srcs=tuple(spec[2:]), lat=4,
            )
        elif kind == "st":
            addr, size, data_src = spec[1], spec[2], spec[3]
            inst = DynInst(
                seq=index, pc=pc, op=OpClass.STORE,
                srcs=(5, data_src), addr=addr, size=size, lat=1,
            )
        elif kind == "ld":
            addr, size = spec[1], spec[2]
            inst = DynInst(
                seq=index, pc=pc, op=OpClass.LOAD,
                srcs=(5,), dst=load_reg, addr=addr, size=size, lat=1,
            )
            load_reg = 16 + (load_reg - 15) % 8
        elif kind == "br":
            inst = DynInst(
                seq=index, pc=pc, op=OpClass.BRANCH,
                taken=spec[1], target=pc + 0x40, lat=1,
            )
        elif kind == "call":
            inst = DynInst(
                seq=index, pc=pc, op=OpClass.BRANCH,
                taken=True, target=pc + 0x100, is_call=True, lat=1,
            )
        elif kind == "ret":
            inst = DynInst(
                seq=index, pc=pc, op=OpClass.BRANCH,
                taken=True, target=spec[1] if len(spec) > 1 else pc + 4,
                is_return=True, lat=1,
            )
        elif kind == "nop":
            inst = DynInst(seq=index, pc=pc, op=OpClass.NOP, lat=1)
        else:
            raise ValueError(f"unknown spec kind {kind!r}")
        for field_name, value in overrides.items():
            setattr(inst, field_name, value)
        trace.append(inst)
    return annotate_trace(trace)


def comm_loop_specs(iterations=64, base_pc=0x2000, store_size=8,
                    load_size=8, shift=0, addr_base=0x8000):
    """DEF -> store -> load -> USE at *fixed static PCs*, repeated.

    Repeating the same PCs is what lets the bypassing predictor train, as a
    real loop body would.
    """
    specs = []
    for i in range(iterations):
        addr = addr_base + 8 * i
        specs.append(("alu", 8, {"pc": base_pc}))
        specs.append(("st", addr, store_size, 8, {"pc": base_pc + 4}))
        specs.append(("ld", addr + shift, load_size, {"pc": base_pc + 8}))
        specs.append(("alu", 9, 16, {"pc": base_pc + 12}))
    return specs


@pytest.fixture
def tiny_comm_trace():
    """The canonical bypassing loop (fixed-PC loop body)."""
    return build_trace(comm_loop_specs())


def write_v1_file(path):
    """A one-instruction trace in the retired v1 gzip-JSONL layout."""
    record = {
        "op": "ALU", "seq": 0, "pc": 4096, "srcs": [], "dst": 8, "lat": 1,
        "addr": None, "size": 0, "signed": False, "fp_convert": False,
        "taken": False, "target": None, "is_call": False,
        "is_return": False, "store_seq": -1, "src_stores": [],
        "containing_store": -1, "dist_insns": -1,
    }
    with gzip.open(path, "wt", encoding="utf-8") as stream:
        stream.write(json.dumps({"format": "repro-trace", "version": 1,
                                 "instructions": 1}) + "\n")
        stream.write(json.dumps(record) + "\n")
