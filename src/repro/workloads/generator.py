"""Synthetic trace generator.

Emits annotated dynamic-instruction traces whose store-load communication
statistics match a :class:`~repro.workloads.profiles.BenchmarkProfile`
(i.e. the paper's Table 5 row for that benchmark).

The generator is built around *static sites*: small code templates with
fixed instruction addresses, so the bypassing predictor, StoreSets, and the
branch predictor see a realistic static instruction population and can
learn per-PC behaviour.  Per dynamic instance a site emits a short
instruction sequence; the mix of site kinds is steered to the profile's
load/store/branch fractions and communication rates.

Instructions are written down by a :class:`~repro.isa.trace.TraceBuilder`,
which owns the register conventions, the register rotations and the
instruction constructors; this module decides what the trace says: the
site templates, the address regions and the filler that steers the mix
(by the builder's load/store/branch counts).

Site kinds
----------

``comm``       DEF -> store -> (filler stores) -> load -> USE, fixed
               per-site distance and (for partial-word sites) fixed
               store/load sizes and shift.  The bread-and-butter bypassing
               case.
``multi``      two byte stores feeding a halfword load: the multi-source
               partial-store case SMB cannot bypass (delay handles it).
``datadep``    two stores, load picks one at random: data-dependent
               distance that no path history can capture.
``pathdep``    a deciding branch selects which of two stores feeds the
               load; ``depth`` filler branches separate decision from load,
               so only predictors with history > depth bits can track it
               (Figure 5, bottom).
``far``        store now, load ~150-260 instructions later: outside the
               128-instruction window, inside the 256 one (Figure 3).
``nocomm``     plain loads with the profile's cache-miss mix, optionally
               pointer-chasing.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import accumulate

from repro.isa.trace import BASE_REG, CHAIN_REG, USE_REG, DynInst, TraceBuilder
from repro.workloads.profiles import BenchmarkProfile

# Address-space layout (all byte addresses; regions never overlap).
_COMM_BASE = 0x0010_0000
_COMM_SLOTS = 512
_STANDALONE_BASE = 0x0030_0000
_STANDALONE_SLOTS = 512
_FAR_BASE = 0x0070_0000
_FAR_SLOTS = 256
_HOT_BASE = 0x0050_0000
_HOT_BYTES = 8 * 1024
_L2_BASE = 0x0100_0000
_L2_BYTES = 192 * 1024
_MEM_BASE = 0x1000_0000
_MEM_BYTES = 64 * 1024 * 1024

_TEXT_BASE = 0x0001_0000
_SITE_BYTES = 0x100  # PC space reserved per static site

#: (store_size, load_size, signed) variants for partial-word comm sites.
_PARTIAL_VARIANTS = (
    (8, 4, True), (8, 4, False), (8, 2, True), (8, 1, False),
    (4, 4, True), (4, 2, False), (2, 2, True), (2, 1, True),
)


@dataclass
class _Site:
    kind: str
    pc: int                      # base PC of the site's instruction block
    filler_stores: int = 0       # comm: stores between store and load
    gap_stores: int = 5          # multi/datadep: stores between pair parts
    store_size: int = 8
    load_size: int = 8
    signed: bool = False
    fp_convert: bool = False
    shift: int = 0
    depth: int = 2               # pathdep: branches between decision & load
    instances: int = 0           # dynamic instance counter (drives patterns)


@dataclass
class _Pending:
    """A deferred far-communication load."""

    due: int       # emit when the trace reaches this instruction count
    addr: int
    site: _Site


class SyntheticWorkload:
    """Generates annotated traces for one benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 17) -> None:
        self.profile = profile
        self.seed = seed
        self._rng = random.Random(zlib.crc32(profile.name.encode()) ^ seed)
        self._event_weights = self._build_event_weights()

    # ------------------------------------------------------------------ #
    # Site library
    # ------------------------------------------------------------------ #

    def _build_sites(self, expected_loads: int) -> dict[str, list[_Site]]:
        """Allocate the static code footprint for this benchmark.

        Site counts scale with how often a kind will actually execute
        (roughly one site per four expected dynamic instances), bounded by
        the profile's static footprint, so that every site trains within
        the warmup window.
        """
        rng = self._rng
        total = self.profile.static_sites
        shares = {
            "comm": 0.42, "multi": 0.06, "datadep": 0.06, "pathdep": 0.10,
            "pathdep_long": 0.06, "far": 0.04, "nocomm": 0.18,
            "branch": 0.05, "call": 0.03,
        }
        event_weight = dict(self._event_weights)
        sites: dict[str, list[_Site]] = {kind: [] for kind in shares}
        # Scatter the site blocks over a realistically sparse text segment:
        # densely strided PCs would alias in the XOR-indexed path-sensitive
        # predictor table in ways real instruction layouts do not.
        used_blocks: set[int] = set()

        def fresh_pc() -> int:
            while True:
                block = rng.randrange(1 << 16)
                if block not in used_blocks:
                    used_blocks.add(block)
                    return _TEXT_BASE + block * _SITE_BYTES

        for kind, share in shares.items():
            count = max(2, int(total * share))
            weight = event_weight.get(kind)
            if weight is not None:
                # Specialty sites need many dynamic instances each so that
                # per-site predictor state (trained paths, confidence) is
                # exercised in steady state within the trace -- real
                # benchmarks execute each site millions of times.  Plain
                # comm/nocomm sites only need to train once.
                divisor = 4 if kind in ("comm", "nocomm") else 32
                expected_instances = int(expected_loads * weight)
                count = min(count, max(2, expected_instances // divisor))
            for _ in range(count):
                site = _Site(kind=kind, pc=fresh_pc())
                if kind == "comm":
                    site.filler_stores = self._draw_comm_distance()
                    if rng.random() < self.profile.partial_ratio:
                        variant = rng.choice(_PARTIAL_VARIANTS)
                        site.store_size, site.load_size, site.signed = variant
                        max_shift = site.store_size - site.load_size
                        if max_shift > 0:
                            steps = max_shift // site.load_size
                            site.shift = (
                                rng.randint(0, steps) * site.load_size
                            )
                        if (
                            self.profile.fp_heavy
                            and site.store_size == 4
                            and site.load_size == 4
                            and rng.random() < 0.5
                        ):
                            site.fp_convert = True
                            site.signed = False
                elif kind in ("multi", "datadep"):
                    site.gap_stores = rng.randint(4, 8)
                elif kind == "pathdep":
                    # Depths 2-3 are captured by >=4 history bits, 5-6 by
                    # >=8 (the default): the short-history end of Figure 5.
                    site.depth = rng.choice((2, 3, 5, 6))
                    site.gap_stores = rng.randint(3, 6)
                elif kind == "pathdep_long":
                    # Depths 9-11 need 10-12 history bits: only the longest
                    # configurations of Figure 5 capture them.
                    site.depth = rng.choice((9, 10, 11))
                    site.gap_stores = rng.randint(3, 6)
                sites[kind].append(site)
        return sites

    def _draw_comm_distance(self) -> int:
        """Filler stores between the store and its load (distance - 1)."""
        roll = self._rng.random()
        if roll < 0.55:
            return 0
        if roll < 0.80:
            return self._rng.randint(1, 2)
        if roll < 0.95:
            return self._rng.randint(3, 7)
        return self._rng.randint(8, 30)

    def _build_event_weights(self) -> list[tuple[str, float]]:
        prof = self.profile
        comm_frac = prof.comm_pct / 100.0
        hard = min(prof.hard_frac, comm_frac)
        easy = max(0.0, comm_frac - hard)
        path_short = easy * prof.path_dep_frac
        plain = easy - path_short
        weights = [
            ("comm", plain),
            ("pathdep", path_short),
            ("multi", hard * prof.hard_multi_share),
            ("datadep", hard * prof.hard_data_share),
            ("pathdep_long", hard * prof.hard_longpath_share),
            ("far", prof.far_frac),
            ("nocomm", max(0.0, 1.0 - comm_frac - prof.far_frac)),
        ]
        return [(kind, max(0.0, weight)) for kind, weight in weights]

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    def generate(self, num_instructions: int) -> list[DynInst]:
        """Generate at least *num_instructions* (ends on an event boundary).

        Every call starts afresh, so equal arguments give equal traces.
        """
        self._rng.seed(
            (zlib.crc32(self.profile.name.encode()) ^ self.seed)
            + 0x9E3779B9 * num_instructions
        )
        # The generator's def and load register rotations start one slot
        # on (at r9 and r17).
        self._b = b = TraceBuilder()
        b.next_def = b.next_load = 1
        self._pending: list[_Pending] = []
        self._chain_loaded_reg: int | None = None
        self._cursors = {"comm": 0, "standalone": 0, "far": 0}
        expected_loads = int(num_instructions * self.profile.load_frac)
        self._sites = self._build_sites(expected_loads)
        self._first_pass = {kind: 0 for kind in self._sites}
        self._zipf_cum_weights: dict[str, list[float]] = {}
        kinds = [kind for kind, _ in self._event_weights]
        # choices(weights=w) accumulates w on every call and then draws
        # exactly as choices(cum_weights=accumulate(w)): same RNG stream.
        cum_weights = list(accumulate(w for _, w in self._event_weights))
        choices = self._rng.choices
        trace = b.trace
        while len(trace) < num_instructions:
            self._emit_due_far_loads()
            kind = choices(kinds, cum_weights=cum_weights, k=1)[0]
            site = self._pick_site(kind)
            site.instances += 1
            self._emit_event(kind, site)
            self._emit_filler()
        return b.finish()

    def _pick_site(self, kind: str) -> _Site:
        """Visit each site twice (in order) before choosing by popularity.

        The two deterministic passes put compulsory predictor training --
        including the confidence drop that needs a second misprediction --
        early in the trace.  Afterwards sites are drawn from a Zipf-like
        popularity distribution: real static instruction populations are
        heavily skewed, which is what keeps hot predictor entries resident.
        """
        sites = self._sites[kind]
        cursor = self._first_pass[kind]
        if cursor < 2 * len(sites):
            self._first_pass[kind] = cursor + 1
            return sites[cursor % len(sites)]
        cum_weights = self._zipf_cum_weights.get(kind)
        if cum_weights is None:
            cum_weights = list(accumulate(
                1.0 / (rank + 1) ** 0.8 for rank in range(len(sites))
            ))
            self._zipf_cum_weights[kind] = cum_weights
        return self._rng.choices(sites, cum_weights=cum_weights, k=1)[0]

    # -- address cursors -----------------------------------------------------

    def _fresh_slot(self, region: str) -> int:
        base, slots = {
            "comm": (_COMM_BASE, _COMM_SLOTS),
            "standalone": (_STANDALONE_BASE, _STANDALONE_SLOTS),
            "far": (_FAR_BASE, _FAR_SLOTS),
        }[region]
        index = self._cursors[region]
        self._cursors[region] = (index + 1) % slots
        return base + 8 * index

    #: L1-conflict parameters for steady-state "L1 miss, L2 hit" loads:
    #: three lines a 32KB stride apart collide in one set of the 2-way 64KB
    #: L1 but land in distinct sets of the 8-way 1MB L2.
    _CONFLICT_GROUPS = 16
    _CONFLICT_WAYS = 3
    _CONFLICT_STRIDE = 32 * 1024

    def _nocomm_addr(self) -> int:
        prof = self.profile
        roll = self._rng.random()
        if roll < prof.mem_miss_frac:
            # Fresh lines over a huge region: always cold, miss to memory.
            return _MEM_BASE + 64 * self._rng.randrange(_MEM_BYTES // 64)
        if roll < prof.mem_miss_frac + prof.l2_miss_frac:
            # Rotate a 3-way conflict in a 2-way L1 set: after the first
            # touches, every access misses L1 and hits L2.
            group = self._rng.randrange(self._CONFLICT_GROUPS)
            way = self._cursors.get("conflict", 0)
            self._cursors["conflict"] = (way + 1) % self._CONFLICT_WAYS
            return _L2_BASE + 64 * group + way * self._CONFLICT_STRIDE
        return _HOT_BASE + 8 * self._rng.randrange(_HOT_BYTES // 8)

    # -- events ----------------------------------------------------------------

    def _emit_event(self, kind: str, site: _Site) -> None:
        if kind == "comm":
            self._emit_comm(site)
        elif kind == "multi":
            self._emit_multi(site)
        elif kind == "datadep":
            self._emit_datadep(site)
        elif kind in ("pathdep", "pathdep_long"):
            self._emit_pathdep(site)
        elif kind == "far":
            self._emit_far_store(site)
        elif kind == "nocomm":
            self._emit_nocomm(site)
        else:
            raise AssertionError(f"unknown event kind {kind}")

    def _emit_comm(self, site: _Site) -> None:
        """DEF -> store -> filler stores -> load -> USE."""
        b = self._b
        pc = site.pc
        addr = self._fresh_slot("comm")
        def_reg = b.def_reg()
        if site.fp_convert:
            b.fp(pc, dst=def_reg, srcs=(def_reg,))
        else:
            b.alu(pc, dst=def_reg)
        b.store(
            pc + 4, addr, site.store_size, def_reg,
            fp_convert=site.fp_convert,
        )
        for i in range(site.filler_stores):
            b.store(pc + 8 + 8 * i, self._fresh_slot("standalone"))
        load_pc = pc + 8 + 8 * site.filler_stores
        load = b.load(
            load_pc, addr + site.shift, site.load_size,
            signed=site.signed, fp_convert=site.fp_convert,
        )
        b.alu(load_pc + 4, dst=USE_REG, srcs=(load.dst,))

    def _emit_multi(self, site: _Site) -> None:
        """Usually a plain halfword pair; with the profile's flip rate the
        instance is assembled from two byte stores (multi-source partial
        store) -- the case SMB cannot bypass and delay must absorb.

        The load follows at a mid-window distance (like real packed-field
        reads), so a delayed load waits on a store already near commit.
        """
        b = self._b
        pc = site.pc
        addr = self._fresh_slot("comm")
        def_reg = b.alu(pc).dst
        if self._rng.random() < self.profile.hard_flip_rate:
            b.store(pc + 4, addr, 1, def_reg)
            b.store(pc + 8, addr + 1, 1, def_reg)
        else:
            b.store(pc + 4, addr, 2, def_reg)
            b.store(pc + 8, self._fresh_slot("standalone"))
        # Deterministic in-template spacing keeps the pair's store distance
        # fixed per site (a requirement for distance prediction) while
        # pushing the load mid-window, where a delayed load's store is
        # already near commit.
        self._emit_gap(site)
        load = b.load(pc + 0x40, addr, 2, signed=True)
        b.alu(pc + 0x44, dst=USE_REG, srcs=(load.dst,))

    def _emit_datadep(self, site: _Site) -> None:
        """Load reads one of two mid-window stores, chosen by data."""
        b = self._b
        pc = site.pc
        addr_a = self._fresh_slot("comm")
        addr_b = self._fresh_slot("comm")
        def_reg = b.alu(pc).dst
        b.store(pc + 4, addr_a, 8, def_reg)
        b.store(pc + 8, addr_b, 8, def_reg)
        flip = self._rng.random() < self.profile.hard_flip_rate
        chosen = addr_a if flip else addr_b
        self._emit_gap(site)
        load = b.load(pc + 0x40, chosen, 8)
        b.alu(pc + 0x44, dst=USE_REG, srcs=(load.dst,))

    #: Path-history bits a pathdep site keeps deterministic at its load
    #: (matches the longest history configuration of Figure 5).
    _PATH_WINDOW = 12

    def _emit_pathdep(self, site: _Site) -> None:
        """A deciding branch selects which store feeds the load; ``depth``
        filler branches push the decision out of short path histories.

        Enough always-taken prefix branches precede the decision that the
        entire history window at the load is template-internal: the
        path-sensitive predictor sees exactly two stable path signatures per
        site, differing only in the deciding bit ``depth + 1`` branches
        back.
        """
        b = self._b
        pc = site.pc
        addr_a = self._fresh_slot("comm")
        addr_b = self._fresh_slot("comm")
        if site.kind == "pathdep_long":
            # Hard case: the usual path dominates; deviations occur at the
            # profile's flip rate and elude the default 8-bit history.
            outcome = self._rng.random() >= self.profile.hard_flip_rate
        else:
            outcome = site.instances % 2 == 0
        def_reg = b.alu(pc).dst
        prefix = max(0, self._PATH_WINDOW - site.depth - 1)
        for i in range(prefix):
            b.branch(pc + 4 + 8 * i, taken=True, target=pc + 8 + 8 * i)
        decide_pc = pc + 4 + 8 * prefix
        b.branch(decide_pc, taken=outcome, target=decide_pc + 8)
        if outcome:
            b.store(decide_pc + 8, addr_a, 8, def_reg)    # taken arm
            b.store(decide_pc + 12, addr_b, 8, def_reg)
        else:
            b.store(decide_pc + 16, addr_b, 8, def_reg)   # other arm
            b.store(decide_pc + 20, addr_a, 8, def_reg)
        # Mid-window spacing (stores + ALUs, no branches: the history
        # window at the load stays template-internal).
        self._emit_gap(site)
        suffix_pc = decide_pc + 24
        for i in range(site.depth):
            b.branch(suffix_pc + 8 * i, taken=True, target=suffix_pc + 4 + 8 * i)
        load_pc = suffix_pc + 8 * site.depth
        load = b.load(load_pc, addr_a, 8)
        b.alu(load_pc + 4, dst=USE_REG, srcs=(load.dst,))

    def _emit_far_store(self, site: _Site) -> None:
        """Store whose consumer load arrives 150-260 instructions later."""
        b = self._b
        addr = self._fresh_slot("far")
        b.store(site.pc + 4, addr, 8, b.alu(site.pc).dst)
        gap = self._rng.randint(150, 260)
        self._pending.append(
            _Pending(due=len(b.trace) + gap, addr=addr, site=site)
        )

    def _emit_gap(self, site: _Site) -> None:
        """Deterministic store/ALU spacing between the parts of a hard
        store-load pair: ``gap_stores`` stores plus independent ALU work."""
        b = self._b
        pc = site.pc + 0x80
        for i in range(site.gap_stores):
            b.store(pc + 12 * i, self._fresh_slot("standalone"))
            b.alu(pc + 12 * i + 4)
            b.alu(pc + 12 * i + 8)

    def _emit_due_far_loads(self) -> None:
        if not self._pending:
            return
        b = self._b
        now = len(b.trace)
        due = [p for p in self._pending if p.due <= now]
        if not due:
            return
        self._pending = [p for p in self._pending if p.due > now]
        for pending in due:
            load = b.load(pending.site.pc + 0x40, pending.addr)
            b.alu(pending.site.pc + 0x44, dst=USE_REG, srcs=(load.dst,))

    def _emit_nocomm(self, site: _Site) -> None:
        b = self._b
        prof = self.profile
        addr = self._nocomm_addr()
        base = BASE_REG
        if (
            self._chain_loaded_reg is not None
            and self._rng.random() < prof.chase_frac
        ):
            base = self._chain_loaded_reg
        load = b.load(site.pc, addr, base=base)
        self._chain_loaded_reg = load.dst
        b.alu(site.pc + 4, dst=USE_REG, srcs=(load.dst,))

    # -- filler ---------------------------------------------------------------

    def _emit_filler(self) -> None:
        """Non-load instructions steering the trace to the profile's
        load/store/branch fractions."""
        b = self._b
        trace = b.trace
        prof = self.profile
        target_insts = int(b.loads / max(prof.load_frac, 0.01))
        serial_p = min(0.8, prof.chase_frac * 1.5)
        while len(trace) < target_insts:
            n = len(trace)
            if b.stores < prof.store_frac * n:
                addr = self._fresh_slot("standalone")
                b.store(self._filler_pc("store"), addr)
            elif b.branches < prof.branch_frac * n:
                self._emit_branch_filler()
            else:
                pc = self._filler_pc("alu")
                if prof.fp_heavy and self._rng.random() < 0.5:
                    fp_reg = b.fp_reg()
                    srcs = (fp_reg,) if self._rng.random() < serial_p else ()
                    b.fp(pc, dst=fp_reg, srcs=srcs)
                else:
                    srcs = (
                        (CHAIN_REG,) if self._rng.random() < serial_p else ()
                    )
                    b.alu(pc, dst=CHAIN_REG, srcs=srcs)
            self._emit_due_far_loads()

    _FILLER_PCS = {"store": 0x8000, "alu": 0x8100, "loop": 0x8200}

    def _filler_pc(self, kind: str) -> int:
        block = self._FILLER_PCS[kind]
        return _TEXT_BASE - 0x9000 + block + 4 * self._rng.randrange(16)

    def _emit_branch_filler(self) -> None:
        b = self._b
        roll = self._rng.random()
        if roll < 0.15 and self._sites["call"]:
            site = self._rng.choice(self._sites["call"])
            func = site.pc + 0x40
            b.branch(site.pc, taken=True, target=func, is_call=True)
            b.alu(func, dst=USE_REG)
            b.alu(func + 4, dst=USE_REG, srcs=(USE_REG,))
            b.branch(
                func + 8, taken=True, target=site.pc + 4, is_return=True
            )
        else:
            # Biased loop branches: taken except every 32nd iteration (loop
            # exits).  Deterministic per site; the bimodal component learns
            # the bias and mispredicts only the exits, giving realistic
            # branch accuracy (~96%).
            site = self._rng.choice(self._sites["branch"])
            site.instances += 1
            taken = site.instances % 32 != 0
            b.branch(site.pc, taken=taken, target=site.pc + 0x20)


def generate_trace(
    name: str, num_instructions: int = 30_000, seed: int = 17
) -> list[DynInst]:
    """Generate an annotated trace for benchmark *name*."""
    from repro.workloads.profiles import profile

    return SyntheticWorkload(profile(name), seed=seed).generate(num_instructions)
