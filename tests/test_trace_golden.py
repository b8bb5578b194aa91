"""Trace production must be bit-identical to the recorded digests.

``tests/data/golden_trace_digests.json`` holds, for every synthetic
profile, every ``zoo.*``/``prog.*`` source and the committed external
event trace (:data:`EXTERN`) at 2,000 instructions and seeds 17 and 3, a SHA-256 over every :class:`DynInst` field of the
annotated trace, plus its :func:`communication_stats` at windows 128 and
256.  Generator, annotation and ``DynInst`` performance work must keep
every digest; only an intentional workload change may re-record them:

    PYTHONPATH=src python -c \
        "from tests.test_trace_golden import regenerate; regenerate()"
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentScale, make_trace
from repro.isa.trace import communication_stats
from repro.traces.source import known_benchmark_ids

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "golden_trace_digests.json"
#: The committed SynchroTrace-style sample, imported through its source.
#: Its own fixture (``sample_synchrotrace.golden.json``) hashes fewer
#: fields; this one pins every field the importer's output carries.
EXTERN = "extern:tests/data/sample_synchrotrace.txt"
NUM_INSTRUCTIONS = 2_000
SEEDS = (17, 3)
WINDOWS = (128, 256)

#: Every DynInst field, named explicitly so a layout change (a field
#: turned into a slot or a property) cannot silently drop one.
FIELDS = (
    "seq", "pc", "op", "srcs", "dst", "lat", "addr", "size", "signed",
    "fp_convert", "taken", "target", "is_call", "is_return",
    "store_seq", "src_stores", "containing_store", "dist_insns",
    "unique_stores", "path_hist", "is_load", "is_store", "is_branch",
    "port",
)
STATS_FIELDS = (
    "loads", "stores", "branches", "communicating_loads",
    "partial_word_loads", "multi_source_loads",
)


def _benchmarks() -> list[str]:
    return sorted([*known_benchmark_ids(), EXTERN])


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for inst in trace:
        record = tuple(
            int(value) if name == "op" else value
            for name in FIELDS
            for value in (getattr(inst, name),)
        )
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def record(bench: str, seed: int) -> dict:
    scale = ExperimentScale("golden", num_instructions=NUM_INSTRUCTIONS,
                            warmup=0)
    if bench == EXTERN:
        # The id is relative to the repository root; resolve it from this
        # file so the test runs from any working directory.
        bench = f"extern:{DATA / 'sample_synchrotrace.txt'}"
    trace = make_trace(bench, scale, seed)
    entry = {"trace": trace_digest(trace), "length": len(trace)}
    for window in WINDOWS:
        stats = communication_stats(trace, window=window)
        entry[f"stats{window}"] = [getattr(stats, f) for f in STATS_FIELDS]
    return entry


def regenerate(path: Path = GOLDEN_PATH) -> None:
    """Rebuild the fixture from the current generator (manual use only)."""
    digests = {
        f"{bench}@{seed}": record(bench, seed)
        for bench in _benchmarks()
        for seed in SEEDS
    }
    payload = {
        "num_instructions": NUM_INSTRUCTIONS,
        "seeds": list(SEEDS),
        "windows": list(WINDOWS),
        "digests": digests,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# A missing fixture parametrizes nothing; the coverage test then fails.
GOLDEN = (
    json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists()
    else {"digests": {}}
)


def test_fixture_covers_every_source():
    expected = {f"{b}@{s}" for b in _benchmarks() for s in SEEDS}
    assert set(GOLDEN["digests"]) == expected


@pytest.mark.parametrize("key", sorted(GOLDEN["digests"]))
def test_trace_matches_golden_digest(key):
    bench, seed = key.rsplit("@", 1)
    assert record(bench, int(seed)) == GOLDEN["digests"][key]
