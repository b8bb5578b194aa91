"""Guards for the per-instruction fast paths (DESIGN.md §4).

* ``DynInst`` derives its kind flags and issue port from its op, also
  after ``dataclasses.replace``.
* Per-set tables are built on first touch: a fresh processor holds none,
  and scripted cache, hierarchy and BTB access sequences reproduce the
  hits, misses, LRU victims, writebacks and occupancy pinned below
  (recorded from the eager-table implementation).
* The per-instruction methods, and the trace emitters of the zoo, the
  external-trace importer and the fuzzer, read no enum member attribute.
* Every function and method of the timing-model components is named
  somewhere in src/ outside its own definition: a component keeps no
  method that only tests call.
"""

import ast
import dataclasses
import hashlib
import inspect
import random
import textwrap
from pathlib import Path

import pytest

from repro.api import resolve_config, standard_configs
from repro.frontend.branch_predictor import BTB
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import HierarchyConfig
from repro.pipeline.processor import Processor
import repro
from repro.traces import importers
from repro.validate import fuzz
from repro.workloads import zoo


def _kind_of(op: OpClass) -> tuple:
    return (op is OpClass.LOAD, op is OpClass.STORE, op is OpClass.BRANCH,
            int(op))


def _flags(inst: DynInst) -> tuple:
    return inst.is_load, inst.is_store, inst.is_branch, inst.port


class TestDynInstKinds:
    @pytest.mark.parametrize("op", list(OpClass))
    def test_flags_follow_op(self, op):
        inst = DynInst(seq=0, pc=0x1000, op=op)
        assert _flags(inst) == _kind_of(op)
        assert type(inst.port) is int

    @pytest.mark.parametrize("op", list(OpClass))
    def test_flags_follow_replaced_op(self, op):
        for start in OpClass:
            inst = dataclasses.replace(
                DynInst(seq=3, pc=0x1000, op=start), op=op
            )
            assert _flags(inst) == _kind_of(op)


# -- per-set tables ----------------------------------------------------- #

def _set_dump(sets) -> list:
    """Touched, non-empty sets with their entries in LRU order."""
    return [
        (index, list(entries.items()))
        for index, entries in enumerate(sets)
        if entries
    ]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _present(cache, addr) -> bool:
    """Whether *addr*'s line is cached, read from the set tables without
    touching LRU order or statistics."""
    line = addr >> cache._line_shift
    cache_set = cache._sets[line & cache._set_mask]
    return cache_set is not None and line >> cache._tag_shift in cache_set


def _occupancy(cache) -> int:
    return sum(len(s) for s in cache._sets if s is not None)


def _cache_script():
    rng = random.Random(5)
    cache = Cache(size_bytes=4096, assoc=2, line_bytes=64)  # 32 sets
    hits = []
    for _ in range(3000):
        # A 96-line hot set over 64 lines of capacity, plus cold lines.
        if rng.random() < 0.7:
            addr = 64 * rng.randrange(96) + rng.randrange(64)
        else:
            addr = rng.randrange(32 * 1024)
        hits.append(cache.access(addr, is_write=rng.random() < 0.3))
    lookups = [_present(cache, rng.randrange(32 * 1024)) for _ in range(200)]
    stats = cache.stats
    before = (
        stats.read_hits, stats.read_misses, stats.write_hits,
        stats.write_misses, stats.writebacks, _occupancy(cache),
    )
    state = _set_dump(cache._sets)
    return before, _digest((hits, lookups, state))


def _hierarchy_script():
    rng = random.Random(11)
    hierarchy = MemoryHierarchy(HierarchyConfig(
        l1_size=2048, l1_assoc=2, l2_size=8192, l2_assoc=4,
    ))
    latencies = []
    for _ in range(3000):
        if rng.random() < 0.7:
            addr = 64 * rng.randrange(160)
        else:
            addr = rng.randrange(64 * 1024)
        if rng.random() < 0.3:
            latencies.append(hierarchy.write(addr))
        else:
            latencies.append(hierarchy.read(addr))
    l1, l2 = hierarchy.l1, hierarchy.l2
    counts = tuple(
        (c.stats.read_hits, c.stats.read_misses, c.stats.write_hits,
         c.stats.write_misses, c.stats.writebacks, _occupancy(c))
        for c in (l1, l2)
    )
    state = (_set_dump(l1._sets), _set_dump(l2._sets))
    return counts, _digest((latencies, state))


def _btb_script():
    rng = random.Random(7)
    btb = BTB(entries=64, assoc=4)  # 16 sets
    hits = []
    for _ in range(3000):
        pc = 0x1000 + 4 * rng.randrange(100)
        target = 0x8000 + 4 * (pc % 3 if rng.random() < 0.9 else 3)
        hits.append(btb.lookup_and_update(pc, target))
    occupancy = sum(len(s) for s in btb._sets if s)
    return sum(hits), occupancy, _digest((hits, _set_dump(btb._sets)))


class TestSetTables:
    def test_fresh_processor_builds_no_set(self):
        for config in [*standard_configs(), resolve_config("conventional-smb")]:
            processor = Processor(config)
            tables = [
                processor.hierarchy.l1._sets,
                processor.hierarchy.l2._sets,
                processor.btb._sets,
            ]
            predictor = processor.bypass_predictor
            if predictor is not None:
                tables += [predictor._plain._sets, predictor._path._sets]
            for sets in tables:
                assert all(entries is None for entries in sets)

    def test_cache_script_matches_eager_tables(self):
        assert _cache_script() == (
            (776, 1333, 299, 592, 745, 64),
            "a620ee6e276ff45e",
        )

    def test_hierarchy_script_matches_eager_tables(self):
        assert _hierarchy_script() == (
            ((247, 1884, 101, 768, 824, 32), (663, 1221, 252, 516, 604, 128)),
            "d212cc3e1ffca038",
        )

    def test_btb_script_matches_eager_tables(self):
        assert _btb_script() == (1560, 64, "fbb5ddf845630cf7")


# -- no enum reads on the per-instruction paths ---------------------------- #

_ENUMS = {"OpClass", "Mode", "SchedulerKind", "BypassKind", "BypassVerdict"}
_HOT_METHODS = (
    (Processor, "_dispatch_stage"),
    (Processor, "_commit_stage"),
    (Processor, "_commit_load"),
    (Processor, "_dispatch_load_conventional"),
    (Processor, "_dispatch_load_nosq"),
    (Processor, "_dispatch_load_nosq_perfect"),
    (DynInst, "__post_init__"),
)


def test_dispatch_load_methods_all_listed():
    listed = {name for _, name in _HOT_METHODS}
    found = {name for name in vars(Processor) if name.startswith("_dispatch_load_")}
    assert found <= listed


def _enum_reads(code) -> list[str]:
    source = textwrap.dedent(inspect.getsource(code))
    return [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in _ENUMS
    ]


@pytest.mark.parametrize(
    "owner,name", _HOT_METHODS, ids=[name for _, name in _HOT_METHODS]
)
def test_hot_method_reads_no_enum_member(owner, name):
    assert _enum_reads(getattr(owner, name)) == []


#: Code that builds one DynInst per emitted instruction.
_EMITTERS = {
    "zoo._Builder": zoo._Builder,
    "importers._Builder": importers._Builder,
    "fuzz.ops_to_trace": fuzz.ops_to_trace,
}


@pytest.mark.parametrize("name", list(_EMITTERS))
def test_trace_emitter_reads_no_enum_member(name):
    assert _enum_reads(_EMITTERS[name]) == []


# -- no component method that only tests call --------------------------- #

#: The timing-model component packages under src/repro.
_COMPONENT_PACKAGES = ("ooo", "core", "memory", "frontend", "predictors")

#: Definitions kept without a caller in src/, with the reason.
_UNCALLED_ALLOWED = {
    # test_equivalence.py's reference for the processor's store-queue
    # classification.
    ("ooo/lsq.py", "StoreQueue.search"),
}


def _definitions(tree):
    """(qualified name, bare name) of every function and method in *tree*."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{owner}.{child.name}" if owner else child.name
                found.append((qualified, child.name))
                visit(child, owner)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def _names_used(tree):
    """Every name, attribute and string constant *tree* mentions (a
    definition's own name is not among them)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_component_definition_is_named_in_src():
    """A component method that nothing in src/ names runs only in tests:
    the simulator has its own copy, or nothing needs it.  Dunder methods
    are called by the interpreter and are exempt."""
    root = Path(repro.__file__).parent
    used = set()
    definitions = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        used.update(_names_used(tree))
        relative = path.relative_to(root)
        if relative.parts[0] in _COMPONENT_PACKAGES:
            definitions += [
                (relative.as_posix(), qualified, name)
                for qualified, name in _definitions(tree)
            ]
    uncalled = {
        (module, qualified)
        for module, qualified, name in definitions
        if name not in used and not name.startswith("__")
    }
    assert uncalled == _UNCALLED_ALLOWED
