"""Guards for the per-instruction fast paths (DESIGN.md §4).

* ``DynInst`` derives its kind flags and issue port from its op, also
  after ``dataclasses.replace``.
* Per-set tables are built on first touch: a fresh processor holds none,
  and scripted cache, hierarchy and BTB access sequences reproduce the
  hit and miss counts (tallied from the accesses' return values), the
  set contents and the occupancy pinned below (recorded from the
  eager-table implementation).
* The per-instruction methods, and the trace emitters (the shared
  ``TraceBuilder``, the synthetic generator and the fuzzer), read no
  enum member attribute.
* Each load- and stall-timing rule of the processor is written in one
  method: the load's cache read and TLB probe, whether a store-queue
  forward took effect, the front-end restart after a stall, and the
  store-load pairing rules that predicted, perfect and
  opportunistic-SMB loads share.
* Every function and method of the timing-model components is named
  somewhere in src/ outside its own definition, and every attribute or
  field they store is read somewhere in src/: a component keeps no
  method and no state that only tests use.
"""

import ast
import dataclasses
import functools
import hashlib
import inspect
import random
import textwrap
from pathlib import Path

import pytest

from repro.api import resolve_config, standard_configs
from repro.frontend.branch_predictor import BTB
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst, TraceBuilder
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import HierarchyConfig
from repro.pipeline.processor import Processor
import repro
from repro.traces import importers
from repro.validate import fuzz
from repro.workloads import zoo
from repro.workloads.generator import SyntheticWorkload


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
    touching LRU order."""
    line = addr >> cache._line_shift
    cache_set = cache._sets[line & cache._set_mask]
    return cache_set is not None and line >> cache._tag_shift in cache_set


def _occupancy(cache) -> int:
    return sum(len(s) for s in cache._sets if s is not None)


def _tally(outcomes) -> tuple:
    """(read hits, read misses, write hits, write misses) of a sequence of
    (is_write, hit) pairs."""
    counts = dict.fromkeys(
        [(False, True), (False, False), (True, True), (True, False)], 0
    )
    for outcome in outcomes:
        counts[outcome] += 1
    return tuple(counts.values())


def _cache_script():
    rng = random.Random(5)
    cache = Cache(size_bytes=4096, assoc=2, line_bytes=64)  # 32 sets
    hits = []
    outcomes = []
    for _ in range(3000):
        # A 96-line hot set over 64 lines of capacity, plus cold lines.
        if rng.random() < 0.7:
            addr = 64 * rng.randrange(96) + rng.randrange(64)
        else:
            addr = rng.randrange(32 * 1024)
        is_write = rng.random() < 0.3
        hits.append(cache.access(addr, is_write=is_write))
        outcomes.append((is_write, hits[-1]))
    lookups = [_present(cache, rng.randrange(32 * 1024)) for _ in range(200)]
    counts = (*_tally(outcomes), _occupancy(cache))
    state = _set_dump(cache._sets)
    return counts, _digest((hits, lookups, state))


def _hierarchy_script():
    rng = random.Random(11)
    hierarchy = MemoryHierarchy(HierarchyConfig(
        l1_size=2048, l1_assoc=2, l2_size=8192, l2_assoc=4,
    ))
    cfg = hierarchy.config
    latencies = []
    l1_outcomes, l2_outcomes = [], []
    for _ in range(3000):
        if rng.random() < 0.7:
            addr = 64 * rng.randrange(160)
        else:
            addr = rng.randrange(64 * 1024)
        is_write = rng.random() < 0.3
        if is_write:
            latencies.append(hierarchy.write(addr))
        else:
            latencies.append(hierarchy.read(addr))
        # The latency tier names the level that hit; an L1 miss is one
        # L2 access.
        l1_hit = latencies[-1] == cfg.l1_latency
        l1_outcomes.append((is_write, l1_hit))
        if not l1_hit:
            l2_hit = latencies[-1] == cfg.l1_latency + cfg.l2_latency
            l2_outcomes.append((is_write, l2_hit))
    l1, l2 = hierarchy.l1, hierarchy.l2
    counts = (
        (*_tally(l1_outcomes), _occupancy(l1)),
        (*_tally(l2_outcomes), _occupancy(l2)),
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
            (776, 1333, 299, 592, 64),
            "a620ee6e276ff45e",
        )

    def test_hierarchy_script_matches_eager_tables(self):
        assert _hierarchy_script() == (
            ((247, 1884, 101, 768, 32), (663, 1221, 252, 516, 128)),
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
    (Processor, "_issue_load"),
    (Processor, "_dispatch_load_conventional"),
    (Processor, "_dispatch_load_nosq"),
    (Processor, "_bypass_ssn"),
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


#: Code that builds one DynInst per emitted instruction.  The zoo and the
#: importer emit through TraceBuilder, so their whole modules are checked;
#: the ids keep the names of the private builders they used to carry.
_EMITTERS = {
    "zoo._Builder": zoo,
    "importers._Builder": importers,
    "TraceBuilder": TraceBuilder,
    "SyntheticWorkload": SyntheticWorkload,
    "fuzz.ops_to_trace": fuzz.ops_to_trace,
}


@pytest.mark.parametrize("name", list(_EMITTERS))
def test_trace_emitter_reads_no_enum_member(name):
    assert _enum_reads(_EMITTERS[name]) == []


# -- one copy of each load- and stall-timing rule ------------------------ #

def _name_of(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


#: rule -> (test on an AST node, the processor.py functions that may hold
#: it).  __init__ builds the TLB and hands it to the commit pipeline, and a
#: flush also restarts fetch a front-end depth after it is detected.  The
#: last five are the store-load pairing rules that predicted, perfect and
#: opportunistic-SMB loads share: the drain wake (a parked load's cache
#: read ends as the store's write becomes visible), a membership test
#: against the in-flight stores (their source stores), an SRQ read, the
#: shift & mask, and an (in)equality test on ``containing_store`` (is the
#: pairing right, and which flush cause a wrong one counts as).
_TIMING_RULES = {
    "hierarchy.read": (
        lambda node: isinstance(node, ast.Attribute) and node.attr == "read"
        and _name_of(node.value) == "hierarchy",
        {"_issue_load"},
    ),
    "tlb read": (
        lambda node: _name_of(node) == "tlb"
        and isinstance(node.ctx, ast.Load),
        {"__init__", "_issue_load"},
    ),
    "dcache_read_cycle store": (
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "dcache_read_cycle" and isinstance(node.ctx, ast.Store),
        {"_issue_load"},
    ),
    "store-queue forward test": (
        lambda node: isinstance(node, ast.Attribute) and node.attr == "get"
        and _name_of(node.value) == "_store_exec_cycles",
        {"_forward_took_effect"},
    ),
    "front-end restart": (
        lambda node: _name_of(node) in ("frontend_depth", "_frontend_depth")
        and isinstance(node.ctx, ast.Load),
        {"__init__", "_stall_until_resolved", "_flush_after"},
    ),
    "drain wake": (
        lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and _name_of(node.right) in ("l1_latency", "_l1_latency"),
        {"_schedule_after_drain"},
    ),
    "in-flight sources": (
        lambda node: isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.In, ast.NotIn))
        and _name_of(node.comparators[0]) in ("inflight", "_inflight_stores"),
        {"_classify_against_sq"},
    ),
    "SRQ read": (
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in ("lookup", "_entries") and _name_of(node.value) == "srq",
        {"_srq_entry"},
    ),
    "transform_for call": (
        lambda node: isinstance(node, ast.Call)
        and _name_of(node.func) == "transform_for",
        {"_build_pairing"},
    ),
    "containing_store comparison": (
        lambda node: isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and "containing_store" in map(_name_of, [node.left, *node.comparators]),
        {"_pairing_fault"},
    ),
}


@pytest.mark.parametrize("rule", list(_TIMING_RULES))
def test_timing_rule_has_one_copy(rule):
    matches, allowed = _TIMING_RULES[rule]
    tree = ast.parse(Path(inspect.getsourcefile(Processor)).read_text())
    sites = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(matches(node) for node in ast.walk(func))
    }
    assert sites == allowed


# -- no component method or state that only tests use ------------------ #

#: The timing-model component packages under src/repro.
_COMPONENT_PACKAGES = ("ooo", "core", "memory", "frontend", "predictors")

#: Annotations that declare no per-instance field.
_PSEUDO_FIELDS = ("ClassVar", "InitVar")


def _with_owner(tree):
    """Every node below *tree*, paired with the name of the innermost
    class it sits in (None outside classes)."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, owner
            inner = child.name if isinstance(child, ast.ClassDef) else owner
            stack.append((child, inner))


def _self_attr(node, owner):
    """The attribute name if *node* is ``self.<name>`` inside a class."""
    if (
        owner is not None
        and isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _definitions(tree):
    """(class, name) of every function and method in *tree* (class None
    for module-level functions and their nested functions)."""
    return [
        (owner, node.name)
        for node, owner in _with_owner(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _stored_state(tree):
    """(class, name) of every attribute a class stores on ``self`` and
    every annotated field in a class body."""
    for node, owner in _with_owner(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not any(
                        word in ast.unparse(stmt.annotation)
                        for word in _PSEUDO_FIELDS
                    )
                ):
                    yield node.name, stmt.target.id
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and _self_attr(node, owner)
        ):
            yield owner, node.attr


class _Uses:
    """What src/ mentions.  ``self.<name>`` counts only for the class it
    appears in (``own``); every other attribute read counts for any
    class (``reads``).  ``names`` adds plain names and string constants,
    which can name a function but never read stored state."""

    def __init__(self):
        self.own = set()
        self.reads = set()
        self.names = set()

    def add(self, tree):
        for node, owner in _with_owner(tree):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Load):
                    continue  # x.n = ... and x.n += ... are writes
                if _self_attr(node, owner):
                    self.own.add((owner, node.attr))
                else:
                    self.reads.add(node.attr)
            elif isinstance(node, ast.Name):
                self.names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.names.add(node.value)


@functools.cache
def _scan_src():
    """(uses, definitions, state) over src/repro; the last two list
    (module, class, name) for the component packages only."""
    root = Path(repro.__file__).parent
    uses = _Uses()
    definitions, state = [], []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        uses.add(tree)
        relative = path.relative_to(root)
        if relative.parts[0] in _COMPONENT_PACKAGES:
            module = relative.as_posix()
            definitions += [(module, *d) for d in _definitions(tree)]
            state += [(module, *s) for s in _stored_state(tree)]
    return uses, definitions, state


def _qualified(owner, name):
    return f"{owner}.{name}" if owner else name


def test_every_component_definition_is_named_in_src():
    """A component method that nothing in src/ names runs only in tests:
    the simulator has its own copy, or nothing needs it.  Dunder methods
    are called by the interpreter and are exempt."""
    uses, definitions, _ = _scan_src()
    named = uses.names | uses.reads
    uncalled = {
        (module, _qualified(owner, name))
        for module, owner, name in definitions
        if not name.startswith("__")
        and name not in named
        and (owner, name) not in uses.own
    }
    assert uncalled == set()


def test_every_component_field_is_read_in_src():
    """A component attribute or dataclass field that nothing in src/
    reads is state the simulator pays to keep and nobody sees."""
    uses, _, state = _scan_src()
    unread = {
        (module, f"{owner}.{name}")
        for module, owner, name in state
        if name not in uses.reads and (owner, name) not in uses.own
    }
    assert unread == set()
