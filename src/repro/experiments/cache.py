"""Content-addressed on-disk result cache.

A job's cache key is the SHA-256 of the canonical JSON of everything that
determines its result: every :class:`~repro.pipeline.config.MachineConfig`
field (nested dataclasses included), the benchmark profile name, the
behavioural scale fields (``num_instructions``/``warmup`` — the scale's
*label* is cosmetic), the seed, the package version and a cache schema
version.  Changing any of these yields a different key, so stale entries
are never served; re-running an identical job is a pure disk read.

Entries live under ``<root>/<key[:2]>/<key>.json`` and hold the full job
record (config name, scale, seed, run and trace statistics).  Writes are
atomic (tempfile + rename) so an interrupted campaign never leaves a
partial entry, which is what makes campaigns resumable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

import repro
from repro.experiments.codec import config_to_dict
from repro.experiments.spec import Job

#: Bump when the record layout or simulator semantics change incompatibly.
#: 2: campaign execution clamps the warmup for traces shorter than the
#:    scale's warmup (effective_warmup), changing recorded statistics for
#:    short trace:/extern: jobs whose keys would otherwise collide with
#:    schema-1 entries.
CACHE_SCHEMA = 2

#: Default cache location (relative to the current working directory).
DEFAULT_CACHE_DIR = Path("results") / "cache"


def job_key(job: Job, memo: dict[Any, Any] | None = None) -> str:
    """Content hash addressing *job*'s result on disk.

    For trace-source benchmarks (``zoo.*``, ``prog.*``, ``trace:``/
    ``extern:`` files) the source's content id — a file hash or a
    generator version — joins the payload, so swapping the bytes behind a
    path can never be served a stale result.  Synthetic profiles
    contribute nothing extra, keeping their historical keys byte-stable.

    *memo* is a dict the caller keeps across the jobs of one plan (see
    :func:`~repro.experiments.scheduler.plan_campaign`): each config's
    and each benchmark's contribution is then computed once per plan
    rather than once per job.  The configs must not change while the
    memo is in use.  Keys are the same with or without it.
    """
    if memo is None:
        memo = {}
    # Memo entries: id(config) -> (config, its fields), holding the
    # config so its id cannot be reused; benchmark id -> source content id.
    entry = memo.get(id(job.config))
    if entry is None:
        entry = memo[id(job.config)] = (job.config,
                                        config_to_dict(job.config))
    _config, config_fields = entry
    if job.benchmark in memo:
        source = memo[job.benchmark]
    else:
        from repro.traces import source_identity

        source = memo[job.benchmark] = source_identity(job.benchmark)
    payload = {
        "schema": CACHE_SCHEMA,
        "version": repro.__version__,
        "benchmark": job.benchmark,
        "config": config_fields,
        "num_instructions": job.scale.num_instructions,
        "warmup": job.scale.warmup,
        "seed": job.seed,
    }
    if source is not None:
        payload["source"] = source
    # Every value is already plain JSON (config_to_dict converted the
    # config), so this is canonical_json(payload) without a second walk.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of content-addressed job records."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        # get() formats entry paths onto this string: a plan looks up
        # every job, and formatting is about 20x cheaper than two
        # pathlib joins.
        self._prefix = os.path.join(self.root, "")

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the cached record for *key*, or ``None`` on a miss.

        Corrupt or foreign files under the cache root count as misses.
        """
        try:
            with open(f"{self._prefix}{key[:2]}{os.sep}{key}.json") as handle:
                record = json.loads(handle.read())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "run_stats" not in record:
            return None
        return record

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Atomically persist *record* under *key*."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # dumps, not dump: dump streams through the pure-Python
                # encoder; the bytes are the same.
                handle.write(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))
