"""Parallel experiment-campaign engine with content-addressed caching.

The serial sweeps of :mod:`repro.harness.runner` express the paper's
evaluation as nested loops in one process; this package turns the same
cross products into declarative, sharded, cached, resumable *campaigns*:

* :mod:`repro.experiments.spec` — :class:`CampaignSpec`/:class:`Job`:
  declarative benchmarks x configs x seeds x scale expansion;
* :mod:`repro.experiments.scheduler` — :func:`run_campaign`: a
  ``ProcessPoolExecutor`` scheduler that shards job groups (one generated
  trace per benchmark/seed, shared across its configs) over ``--jobs N``
  workers with progress events;
* :mod:`repro.experiments.cache` — :class:`ResultCache`: content-addressed
  on-disk records (key = hash of config fields + benchmark + scale + seed
  + package version), so unchanged jobs are instant hits and interrupted
  campaigns resume;
* :mod:`repro.experiments.store` — :class:`ResultStore` (JSONL) plus
  :func:`collect_results`, the aggregation API feeding the existing
  table/figure modules;
* :mod:`repro.experiments.codec` — lossless JSON codecs for configs and
  statistics.

Quick start::

    from repro.experiments import CampaignSpec, run_campaign

    spec = CampaignSpec(["gzip", "mcf"], scale=SMOKE)  # standard configs
    result = run_campaign(spec, jobs=4, cache="results/cache",
                          store="results/campaign.jsonl")
    suite = result.suite_results()   # dict[benchmark -> BenchmarkResult]

``repro campaign run|status|report`` exposes the same engine on the
command line, and :func:`repro.api.sweep` is built on it.

The cache-key contract
----------------------

A job's cache key (:func:`repro.experiments.cache.job_key`) is the
SHA-256 of the canonical JSON of **everything that determines its
result**, and nothing else:

* every :class:`~repro.pipeline.config.MachineConfig` field, nested
  dataclasses (backend, bypass predictor, hierarchy) included — the
  config *name* participates only as an ordinary field, it is not
  special-cased;
* the benchmark id and the seed;
* for trace-source benchmarks (``zoo.*`` families, ``trace:``/
  ``extern:`` files, ``prog.*`` programs), the source's *content id*
  (:func:`repro.traces.source_identity`): a sha256 of the file bytes or
  a generator code version — so swapping the bytes behind a path, or
  bumping ``repro.traces.source.ZOO_VERSION``, misses instead of
  serving stale results;
  synthetic profiles contribute nothing extra, keeping their historical
  keys byte-stable;
* the scale's behavioural numbers ``num_instructions`` and ``warmup``
  (the scale's *label* — smoke/default/full — is cosmetic and excluded,
  so ``-n 8000 -w 3000`` and ``--scale smoke`` share entries);
* the package version (``repro.__version__``) and the cache schema
  version (:data:`~repro.experiments.cache.CACHE_SCHEMA`).

Consequences:

* changing any simulator behaviour **must** ship with a version or
  schema bump, otherwise stale entries will be served; the hot-path
  overhaul relies on bit-identity (``tests/test_perf_identity.py``)
  precisely so cached results stay valid across it;
* wiping ``results/cache/`` is never required for correctness — keys
  change when inputs change — but is the way to (a) reclaim disk,
  (b) force re-execution after an *intentional* behaviour change that
  was not version-bumped (e.g. local experiments), or (c) clear entries
  produced by abandoned working-tree states;
* entries are atomic single-job JSON files under
  ``results/cache/<key[:2]>/<key>.json``; deleting any subset is safe at
  any time, including mid-campaign.

See the README's "Running campaigns" section for the CLI view of this
contract.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, loaded on first access.
_EXPORTS = {
    "CACHE_SCHEMA": "cache",
    "DEFAULT_CACHE_DIR": "cache",
    "CampaignResult": "scheduler",
    "CampaignSpec": "spec",
    "Job": "spec",
    "JobGroup": "scheduler",
    "ProgressEvent": "scheduler",
    "ResultCache": "cache",
    "ResultStore": "store",
    "collect_results": "store",
    "job_key": "cache",
    "plan_campaign": "scheduler",
    "run_campaign": "scheduler",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
