"""Differential validation: oracle simulator, invariant runner, fuzzer.

The timing model (:mod:`repro.pipeline.processor`) is value-free -- it
decides *when* things happen from ground-truth trace annotations, and its
correctness claims ("every load observes the youngest older store",
"SVW-filtered verification never misses a true violation") are enforced
by internal assertions plus golden-fixture identity tests.  Both freeze
*one* trajectory; neither can say why a counter is right after the next
hot-path rewrite.

This package supplies the missing oracle:

* :mod:`repro.validate.oracle` -- a deliberately simple in-order
  functional memory model, written against the ISA semantics
  (:mod:`repro.isa.semantics`) rather than sharing pipeline code.  It
  replays any trace and emits the ground-truth value and provenance of
  every load plus the canonical final memory state.
* :mod:`repro.validate.diff` -- the differential runner: simulates a
  config over the same trace with a recording
  :class:`~repro.validate.diff.InstrumentedProcessor` and cross-checks a
  registry of invariants (forwarding correctness, no missed store-load
  violation, counter composition, flush accounting, cross-config
  architectural equivalence) against the oracle.
* :mod:`repro.validate.fuzz` -- a seeded adversarial trace generator
  (same-address collisions, partial-word overlap, SVW-window-straddling
  reuse) with automatic ddmin shrinking of failing traces to a minimal
  repro, saved as a v2 trace file + JSON sidecar
  (:mod:`repro.traces.reprocase`).

Entry points: ``repro.api.validate()``, the ``repro validate
run|fuzz|shrink`` CLI, and the Hypothesis strategies the property tests
build on (``repro.validate.fuzz.ops_strategy``).
"""

from repro.isa.trace import reindex_trace
from repro.validate.diff import (
    INVARIANTS,
    DiffReport,
    InstrumentedProcessor,
    ValidationResult,
    Violation,
    list_invariants,
    run_diff,
    run_validation,
)
from repro.validate.fuzz import (
    FuzzFailure,
    FuzzResult,
    generate_ops,
    ops_strategy,
    ops_to_trace,
    run_fuzz,
    shrink_ops,
    shrink_trace,
)
from repro.validate.oracle import (
    LoadObservation,
    OracleReport,
    replay_oracle,
    store_value,
)

__all__ = [
    "INVARIANTS",
    "DiffReport",
    "FuzzFailure",
    "FuzzResult",
    "InstrumentedProcessor",
    "LoadObservation",
    "OracleReport",
    "ValidationResult",
    "Violation",
    "generate_ops",
    "list_invariants",
    "ops_strategy",
    "ops_to_trace",
    "reindex_trace",
    "replay_oracle",
    "run_diff",
    "run_fuzz",
    "run_validation",
    "shrink_ops",
    "shrink_trace",
    "store_value",
]
