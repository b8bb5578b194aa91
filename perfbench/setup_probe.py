"""Set-up time of one workload, measured in a fresh interpreter.

``run.py`` starts this script several times per run and derives
``setup_s`` from ``cpu_s``: the CPU seconds from the interpreter's start
until the campaign is planned, that is, interpreter start-up, ``import
repro`` (and the CLI for workloads that go through it), resolving the
configs and benchmarks, and ``plan_campaign``, which hashes every job key
and looks each one up in the cache.  The argument is the workload's plan
as JSON; the last line printed is a JSON object with ``cpu_s``,
``wall_s`` (from the script's first line) and the planned hit and pending
counts.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    plan = json.loads(sys.argv[1])
    if plan["cli"]:
        import repro.cli  # noqa: F401
    from repro import api
    from repro.experiments import CampaignSpec, ResultCache, plan_campaign
    from repro.harness.runner import ExperimentScale

    spec = CampaignSpec(
        benchmarks=plan["benchmarks"],
        configs=api.resolve_configs(plan["configs"]),
        scale=ExperimentScale(*plan["scale"]),
        seeds=(plan["seed"],),
        name="setup",
    )
    cache = ResultCache(plan["cache"]) if plan["cache"] else None
    hits, groups = plan_campaign(spec, cache)
    elapsed = time.perf_counter() - _START
    print(json.dumps({
        "cpu_s": time.process_time(),
        "wall_s": elapsed,
        "hits": len(hits),
        "pending": sum(len(group.configs) for group in groups),
    }))


if __name__ == "__main__":
    main()
