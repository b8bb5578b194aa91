"""Timing spans around calls into the program's layers.

The benchmark measures the program from outside.  For a traced pass it
replaces public functions and methods of each layer with wrappers that
time every call, and puts the originals back afterwards.  Methods are
wrapped on their class, because ``__slots__`` instances take no
per-instance attributes.

Spans of the coarse layers (campaign planning, cache and store I/O, trace
generation and decoding, one processor construction or run, report
rendering) are kept in memory with their parent and written out when the
run ends.  The per-instruction layers inside ``Processor.run`` are called
millions of times, so for them only the call count and self time are kept.

A span's self time is its duration minus the time covered by its child
spans.  Calls nest strictly within one thread, so adding each child's
duration to its parent's child time gives exactly that.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: (span name, module, attribute, kept as a full span, counter).  The
#: attribute is a module-level function (every binding of it under
#: ``repro.*`` is wrapped) or ``Class.method``.  A counter maps
#: ``(args, result)`` to a number added to the span's counter.
TARGETS: tuple[tuple[str, str, str, bool, Callable[[tuple, Any], int] | None], ...] = (
    ("api.resolve_configs", "repro.api.configs", "resolve_configs", True, None),
    ("experiments.plan", "repro.experiments.scheduler", "plan_campaign", True, None),
    ("experiments.job_key", "repro.experiments.cache", "job_key", True, None),
    ("experiments.cache_get", "repro.experiments.cache", "ResultCache.get", True,
     lambda args, result: result is not None),
    ("experiments.cache_put", "repro.experiments.cache", "ResultCache.put", True, None),
    ("experiments.store_append", "repro.experiments.store", "ResultStore.append",
     True, None),
    ("experiments.store_load", "repro.experiments.store", "ResultStore.load", True,
     None),
    ("experiments.collect_results", "repro.experiments.store", "collect_results",
     True, None),
    ("workloads.generate", "repro.workloads.generator", "SyntheticWorkload.generate",
     True, None),
    ("isa.communication_stats", "repro.isa.trace", "communication_stats", True, None),
    ("traces.load", "repro.isa.tracefile", "load_trace", True,
     lambda args, result: len(result)),
    ("traces.source_identity", "repro.traces.source", "source_identity", True, None),
    ("pipeline.construct", "repro.pipeline.processor", "Processor.__init__", True,
     None),
    ("pipeline.run", "repro.pipeline.processor", "Processor.run", True,
     lambda args, result: len(args[1])),
    ("ooo.squash", "repro.ooo.rob", "ReorderBuffer.squash_younger", False,
     lambda args, result: len(result)),
    ("core.bypass_predict", "repro.core.bypass_predictor", "BypassingPredictor.predict",
     False, None),
    ("core.bypass_train", "repro.core.bypass_predictor", "BypassingPredictor.train",
     False, None),
    ("core.svw_test", "repro.core.svw", "SVWFilter.test_bypassing", False, None),
    ("core.svw_test", "repro.core.svw", "SVWFilter.test_nonbypassing", False, None),
    ("core.ssbf_update", "repro.core.ssbf", "TaggedSSBF.update", False, None),
    ("core.srq", "repro.core.srq", "StoreRegisterQueue.insert", False, None),
    ("core.srq", "repro.core.srq", "StoreRegisterQueue.lookup", False, None),
    ("core.srq", "repro.core.srq", "StoreRegisterQueue.retire", False, None),
    ("core.srq", "repro.core.srq", "StoreRegisterQueue.squash_above", False, None),
    ("core.commit_pipeline", "repro.core.commit_pipeline", "CommitPipeline.store_commit",
     False, None),
    ("core.commit_pipeline", "repro.core.commit_pipeline", "CommitPipeline.load_reexec",
     False, None),
    ("core.commit_pipeline", "repro.core.commit_pipeline",
     "CommitPipeline.flush_detect_cycle", False, None),
    ("predictors.store_sets", "repro.predictors.store_sets", "StoreSets.store_renamed",
     False, None),
    ("predictors.store_sets", "repro.predictors.store_sets", "StoreSets.load_dependence",
     False, None),
    ("predictors.store_sets", "repro.predictors.store_sets", "StoreSets.store_retired",
     False, None),
    ("predictors.store_sets", "repro.predictors.store_sets", "StoreSets.train_violation",
     False, None),
    ("memory.read", "repro.memory.hierarchy", "MemoryHierarchy.read", False, None),
    ("memory.tlb", "repro.memory.tlb", "TLB.access", False, None),
    ("frontend.branch_predict", "repro.frontend.branch_predictor",
     "HybridBranchPredictor.predict_and_train", False, None),
    ("frontend.btb", "repro.frontend.branch_predictor", "BTB.lookup_and_update", False,
     None),
    ("harness.report", "repro.cli", "cmd_campaign_report", True, None),
    ("cli.build_parser", "repro.cli", "build_parser", True, None),
)

#: Every span name, in first-appearance order.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    """Collects spans while installed; :meth:`install` is a context manager."""

    def __init__(self) -> None:
        #: Kept spans: ``[id, name, start, end, parent id or None]``.
        self.spans: list[list[Any]] = []
        #: name -> ``[calls, self seconds, counter]``.
        self.stats: dict[str, list[float]] = {
            name: [0, 0.0, 0] for name in SPAN_NAMES
        }
        #: Time covered by spans that have no parent span.
        self.top_level_s = 0.0
        self._stack: list[list[Any]] = []  # frames: [child seconds, span id]

    def _wrap(self, name: str, fn: Callable, keep: bool,
              count: Callable[[tuple, Any], int] | None) -> Callable:
        stack = self._stack
        spans = self.spans
        stat = self.stats[name]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep:
                ident = len(spans)
                spans.append([ident, name, 0.0, 0.0, parent])
            else:
                ident = parent
            frame = [0.0, ident]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.top_level_s += duration
                if keep:
                    spans[ident][2] = start
                    spans[ident][3] = end
            if count is not None:
                stat[2] += count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "_Installed":
        return _Installed(self)

    def calls(self, name: str) -> int:
        return int(self.stats[name][0])

    def self_s(self, name: str) -> float:
        return self.stats[name][1]

    def counter(self, name: str) -> int:
        return int(self.stats[name][2])

    def write(self, path: Path) -> None:
        """Write the kept spans, then one summary line per span name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for ident, name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "id": ident, "name": name, "start": start, "end": end,
                    "parent": parent,
                }) + "\n")
            for name, (calls, self_s, counter) in self.stats.items():
                out.write(json.dumps({
                    "summary": name, "calls": calls, "self_s": self_s,
                    "counter": counter,
                }) + "\n")


class _Installed:
    """Wraps every target on entry and restores the originals on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        # The CLI binds several targets by name; import it so those
        # bindings are wrapped too.
        importlib.import_module("repro.cli")
        for name, module_name, attr, keep, count in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._set(owner, method,
                          self.tracer._wrap(name, original, keep, count))
                continue
            original = getattr(module, attr)
            wrapper = self.tracer._wrap(name, original, keep, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self.tracer

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
