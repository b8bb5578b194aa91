"""Command-line interface.

Installed as the ``repro`` console script (``pip install -e .``);
``python -m repro`` works without installing.

::

    repro run gzip                            # one benchmark, 4 configs
    repro run nosq gzip --scale smoke         # one config spec, one benchmark
    repro run 'nosq?backend.rob_size=256' zoo.pchase --scale smoke
    repro run nosq@256 conventional@256 gzip  # several configs, one table
    repro run conventional nosq gzip vortex   # several benchmarks
    repro list                                # benchmarks, configs, sources
    repro run conventional nosq prog.memcpy   # a mini-ISA program

``run`` positionals mix freely: anything that resolves as a benchmark id
(profiles, ``zoo.*`` families, ``trace:``/``extern:`` paths) is a
workload, everything else must parse as a config spec
(``preset[@window][?key=value,...]``; see :mod:`repro.api.configs`).

Campaigns (sharded + cached sweeps; see :mod:`repro.experiments`)::

    python -m repro campaign run --scale smoke --jobs 4     # full sweep
    python -m repro campaign run gzip mcf --seed 3 --jobs 2
    python -m repro campaign run --benchmarks 'zoo.*'       # filter by glob
    python -m repro campaign run gzip --source trace:g.bt   # mix in a file
    python -m repro campaign run --configs 'nosq*'          # config globs
    python -m repro campaign run --configs 'nosq?rob_size=96,iq_size=30'
    python -m repro campaign status                         # cache coverage
    python -m repro campaign report                         # render tables

``campaign report`` renders every table, figure and ablation of the
paper that the store's runs support: ``campaign run --configs standard``
feeds Table 5 and Figures 2 and 4; ``figure3``, ``figure5`` and
``ablations`` feed the rest.

Traces (sources, formats, importers; see :mod:`repro.traces`)::

    python -m repro trace record gzip -o gzip.bt            # v2 binary
    python -m repro trace convert events.txt ext.bt         # import external
    python -m repro trace info gzip.bt
    python -m repro trace validate gzip.bt

Differential validation (oracle diffing + fuzzing; see
:mod:`repro.validate` and docs/validation.md)::

    python -m repro validate run nosq zoo.pchase --scale smoke
    python -m repro validate fuzz --budget 200 --seed 0 --out repros/
    python -m repro validate shrink repros/repro-nosq-seed0-17.bt

This module builds the parser for every command and holds the scale
helpers and the campaign handlers.  The ``run``, ``list``, ``trace`` and
``validate`` handlers live in :mod:`repro.cli_tools`, which :func:`main`
imports only when one of those commands runs (DESIGN.md §6).
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import sys
from typing import TYPE_CHECKING, Sequence

from repro.api import resolve_configs
from repro.experiments import DEFAULT_CACHE_DIR, ResultStore, collect_results
from repro.harness.report import render_table
from repro.harness.runner import NAMED_SCALES, ExperimentScale, resolve_scale
from repro.workloads.profiles import PROFILES

if TYPE_CHECKING:
    from repro.experiments import CampaignSpec


def _add_scale_args(
    parser: argparse.ArgumentParser, scale_help: str, warmup: bool = True
) -> None:
    """``--scale``/``-n``/``--seed``, plus ``-w`` for commands that use a
    warmup, read by :func:`_cli_scale`."""
    parser.add_argument(
        "--scale", choices=sorted(NAMED_SCALES), default=None,
        help=scale_help,
    )
    parser.add_argument(
        "-n", "--instructions", type=int, default=None,
        help="custom trace length (overrides --scale)",
    )
    if warmup:
        parser.add_argument(
            "-w", "--warmup", type=int, default=None,
            help="custom warmup (with -n; default n/2)",
        )
    else:
        parser.set_defaults(warmup=None)
    parser.add_argument("--seed", type=int, default=17)


def _cli_scale(args, default: str = "default") -> ExperimentScale:
    """The scale ``-n/-w/--scale`` select, else the named *default*,
    resolved like :mod:`repro.api`'s ``scale=`` argument.

    ``-n`` overrides ``--scale`` and its warmup defaults to n/2; ``-w``
    without ``-n`` raises ValueError (callers exit 2)."""
    if args.instructions is None:
        if args.warmup is not None:
            raise ValueError("-w/--warmup requires -n/--instructions")
        return resolve_scale(args.scale or default)
    scale = resolve_scale(args.instructions)
    if args.warmup is None:
        return scale
    return dataclasses.replace(scale, warmup=args.warmup)


# --------------------------------------------------------------------- #
# Campaigns
# --------------------------------------------------------------------- #


def _campaign_benchmarks(args) -> list[str]:
    """Positional ids, narrowed by ``--benchmarks`` globs, extended by
    ``--source`` ids.  With a filter but no positionals, the filter
    matches over every known id (profiles, zoo.* and prog.* sources)."""
    from repro.traces import known_benchmark_ids

    if args.benchmarks:
        selected = list(args.benchmarks)
    elif args.benchmark_filter:
        selected = list(known_benchmark_ids())
    else:
        selected = list(PROFILES)
    if args.benchmark_filter:
        patterns = [p for p in args.benchmark_filter.split(",") if p]
        selected = [
            benchmark for benchmark in selected
            if any(fnmatch.fnmatchcase(benchmark, p) for p in patterns)
        ]
        if not selected:
            raise ValueError(
                f"--benchmarks {args.benchmark_filter!r} matches no "
                "benchmark or trace source"
            )
    for source in args.sources or ():
        if source not in selected:
            selected.append(source)
    return selected


def _campaign_spec(args) -> CampaignSpec:
    from repro.experiments import CampaignSpec

    return CampaignSpec(
        benchmarks=_campaign_benchmarks(args),
        configs=resolve_configs(args.configs, window=args.window),
        scale=_cli_scale(args, "smoke"),
        seeds=(args.seed,),
        name=args.configs,
    )


def _add_campaign_spec_args(parser: argparse.ArgumentParser) -> None:
    # No argparse choices: CampaignSpec validates names (with a clear
    # message) and nargs="*" + choices rejects an empty selection.
    parser.add_argument(
        "benchmarks", nargs="*", metavar="benchmark",
        help="benchmark ids to sweep: profiles, zoo.* families, "
             "trace:<path> or extern:<path> (default: all profiles)",
    )
    parser.add_argument(
        "--benchmarks", dest="benchmark_filter", default=None,
        metavar="GLOBS",
        help="comma-separated fnmatch globs narrowing the sweep "
             "(e.g. 'mesa.*' or 'zoo.*,gzip'); without positional ids the "
             "globs match over all profiles and zoo.*/prog.* sources",
    )
    parser.add_argument(
        "--source", dest="sources", action="append", default=None,
        metavar="ID",
        help="add a trace source to the sweep (repeatable): a zoo.* or "
             "prog.* id, trace:<path> or extern:<path>",
    )
    _add_scale_args(parser, "named experiment scale (default smoke)")
    parser.add_argument(
        "--window", type=int, choices=(128, 256), default=128,
        help="machine window size (default 128)",
    )
    parser.add_argument(
        "--configs", default="standard",
        help="configs to sweep: a comma list of presets "
             "(preset[@window][?key=value,...] overrides), globs over "
             "preset names ('nosq*'), or set names (standard, table5, "
             "figure3, figure4, figure5, ablations; default standard) — "
             "see `repro list`",
    )
    parser.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help=f"content-addressed result cache (default {DEFAULT_CACHE_DIR})",
    )


def cmd_campaign_run(args) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        spec = _campaign_spec(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    from repro.experiments import ResultCache, run_campaign

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    store = ResultStore(args.store)
    progress = None if args.quiet else (lambda ev: print(ev.describe()))

    try:
        result = run_campaign(
            spec, jobs=args.jobs, cache=cache, store=store,
            progress=progress, force=args.force,
        )
    except ValueError as exc:
        # A trace:<path> file that does not load.  The codec is imported
        # only here, so planning a campaign still loads none.
        from repro.isa.tracefile import TraceFormatError

        if not isinstance(exc, TraceFormatError):
            raise
        print(exc, file=sys.stderr)
        return 2
    print(
        f"{spec.num_jobs} jobs: {result.hits} cached, "
        f"{result.executed} executed in {result.elapsed_s:.1f}s "
        f"({args.jobs} worker{'s' if args.jobs != 1 else ''}); "
        f"results appended to {args.store}"
    )
    return 0


def cmd_campaign_status(args) -> int:
    try:
        spec = _campaign_spec(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    from repro.experiments import ResultCache, plan_campaign

    hits, groups = plan_campaign(spec, ResultCache(args.cache_dir))
    cached = {}
    for job, _key, _record in hits:
        cached[job.benchmark] = cached.get(job.benchmark, 0) + 1
    pending = {g.benchmark: len(g.configs) for g in groups}
    rows = [
        [name, cached.get(name, 0), pending.get(name, 0)]
        for name in spec.benchmarks
    ]
    done = sum(cached.values())
    print(render_table(
        ["benchmark", "cached", "pending"], rows,
        title=(
            f"campaign {spec.name!r} @ {spec.scale.name}, seed {args.seed}: "
            f"{done}/{spec.num_jobs} jobs cached under {args.cache_dir}"
        ),
    ))
    return 0


def cmd_campaign_report(args) -> int:
    store = ResultStore(args.store)
    records = store.load()
    if not records:
        print(f"no records in {args.store}", file=sys.stderr)
        return 1
    # A store may accumulate several scales; report the most recent one.
    def scale_of(record):
        return (
            record["scale"]["num_instructions"], record["scale"]["warmup"]
        )

    scales = {scale_of(r) for r in records}
    current = scale_of(records[-1])
    records = [r for r in records if scale_of(r) == current]
    if len(scales) > 1:
        print(
            f"note: reporting the newest scale "
            f"({current[0]} instructions, {current[1]} warmup); "
            f"store also holds {len(scales) - 1} other scale(s)"
        )
    seeds = sorted({r["seed"] for r in records})
    seed = args.seed if args.seed is not None else seeds[0]
    if seed not in seeds:
        print(f"no records for seed {seed} (stored: {seeds})",
              file=sys.stderr)
        return 1
    results = collect_results(records, seed=seed)
    if args.benchmarks:
        missing = [b for b in args.benchmarks if b not in results]
        if missing:
            print(f"no stored results for: {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        names = args.benchmarks
    else:
        # Record order follows pool completion order; rows follow the
        # paper's Table 5 order, then the other ids sorted.
        names = [n for n in PROFILES if n in results]
        names += sorted(n for n in results if n not in PROFILES)
    results = {b: results[b] for b in names}

    # Render each section over the benchmarks whose stored runs support
    # it (stores may mix config sets across campaigns).  Every stored
    # run no section used (trace-source benchmarks, extra configs, other
    # windows) goes to the generic table.
    # Imported here: a cached `campaign run` loads no report section.
    from repro.harness.sections import SECTIONS

    used = set()
    for section in SECTIONS.values():
        covered = section.covered(results)
        if covered:
            print(section.render(covered, results))
            used.update(
                (name, config) for name in covered
                for config in section.configs().values()
            )
    rows = [
        [name, config, f"{result.runs[config].ipc:.3f}"]
        for name, result in results.items()
        for config in sorted(result.runs)
        if (name, config) not in used
    ]
    if rows:
        print(render_table(
            ["benchmark", "config", "IPC"], rows,
            title=f"stored campaign results (seed {seed})",
        ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoSQ (MICRO 2006) reproduction: cycle-level simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark profiles").set_defaults(
        func="cmd_list"
    )

    run = sub.add_parser(
        "run",
        help="simulate benchmarks on configs (the façade entry point)",
    )
    run.add_argument(
        "specs", nargs="+", metavar="spec",
        help="benchmark ids (profiles, zoo.* families, trace:/extern: "
             "paths) and/or config specs "
             "(preset[@window][?key=value,...], set names like "
             "'standard', globs like 'nosq*'); no config spec means "
             "the standard four",
    )
    _add_scale_args(
        run, "named experiment scale (default: default, as "
             "repro.api.simulate)"
    )
    run.set_defaults(func="cmd_run")

    trace = sub.add_parser(
        "trace",
        help="record, convert, inspect and validate trace files "
             "(repro.traces)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_record = trace_sub.add_parser(
        "record", help="generate a benchmark/source trace and save it"
    )
    trace_record.add_argument(
        "benchmark",
        help="benchmark id: a profile, zoo.* family or prog.* program",
    )
    trace_record.add_argument(
        "-n", "--instructions", type=int, default=30_000,
        help="trace length (default 30000; file sources keep their own)",
    )
    trace_record.add_argument("--seed", type=int, default=17)
    trace_record.add_argument(
        "-o", "--output", default=None,
        help="output path (default <benchmark>.bt)",
    )
    trace_record.set_defaults(func="cmd_trace_record")

    trace_convert = trace_sub.add_parser(
        "convert",
        help="import an external event trace (or copy a trace) to v2",
    )
    trace_convert.add_argument(
        "input",
        help="a file with the v2 magic is a trace, any other file a "
             "SynchroTrace-style event trace",
    )
    trace_convert.add_argument("output")
    trace_convert.set_defaults(func="cmd_trace_convert")

    trace_info_cmd = trace_sub.add_parser(
        "info", help="show a trace file's layout and statistics"
    )
    trace_info_cmd.add_argument("path")
    trace_info_cmd.set_defaults(func="cmd_trace_info")

    trace_validate = trace_sub.add_parser(
        "validate",
        help="load a trace and re-derive every annotation; nonzero exit "
             "on corruption or stale annotations",
    )
    trace_validate.add_argument("path")
    trace_validate.set_defaults(func="cmd_trace_validate")

    validate = sub.add_parser(
        "validate",
        help="differential validation against the in-order oracle "
             "(repro.validate)",
    )
    validate_sub = validate.add_subparsers(dest="validate_command",
                                           required=True)

    validate_run = validate_sub.add_parser(
        "run",
        help="diff config specs against the oracle over benchmarks; "
             "nonzero exit on any invariant violation",
    )
    validate_run.add_argument(
        "specs", nargs="+", metavar="spec",
        help="benchmark ids and/or config specs, mixed freely like "
             "`repro run` (no config spec means the standard set)",
    )
    _add_scale_args(
        validate_run,
        "named experiment scale (default: default, as "
        "repro.api.validate); validation measures the whole trace",
        warmup=False,
    )
    validate_run.set_defaults(func="cmd_validate_run")

    validate_fuzz = validate_sub.add_parser(
        "fuzz",
        help="run adversarial random traces through the differential "
             "runner; shrink + save the first failure",
    )
    validate_fuzz.add_argument(
        "--budget", type=int, default=100,
        help="number of random traces to try (default 100)",
    )
    validate_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="base RNG seed; (seed, trace index) reproduces any trace "
             "exactly (default 0)",
    )
    validate_fuzz.add_argument(
        "--length", type=int, default=120,
        help="instructions per fuzzed trace (default 120)",
    )
    validate_fuzz.add_argument(
        "--configs", default="nosq,conventional",
        help="config specs/globs/sets to fuzz (default nosq,conventional)",
    )
    validate_fuzz.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory to save the shrunk minimal repro into "
             "(v2 trace + JSON sidecar)",
    )
    validate_fuzz.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress lines",
    )
    validate_fuzz.set_defaults(func="cmd_validate_fuzz")

    validate_shrink = validate_sub.add_parser(
        "shrink",
        help="re-shrink a failing trace (repro case or bare trace file) "
             "to a minimal repro",
    )
    validate_shrink.add_argument(
        "path", help="repro-case .bt (with .json sidecar) or any trace file",
    )
    validate_shrink.add_argument(
        "--config", default=None,
        help="config spec to diff against (default: the sidecar's)",
    )
    validate_shrink.add_argument(
        "--max-checks", type=int, default=2000,
        help="predicate-evaluation budget for shrinking (default 2000)",
    )
    validate_shrink.add_argument(
        "-o", "--out", default=None,
        help="output path for the minimal repro (default <path>.min.bt)",
    )
    validate_shrink.set_defaults(func="cmd_validate_shrink")

    campaign = sub.add_parser(
        "campaign",
        help="sharded, cached experiment campaigns (repro.experiments)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="run (or resume) a campaign sweep"
    )
    _add_campaign_spec_args(campaign_run)
    campaign_run.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (default 1: run in-process)",
    )
    campaign_run.add_argument(
        "--store", default="results/campaign.jsonl",
        help="JSONL result store (default results/campaign.jsonl)",
    )
    campaign_run.add_argument(
        "--force", action="store_true",
        help="re-run jobs even when cached (entries are refreshed)",
    )
    campaign_run.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the result cache",
    )
    campaign_run.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-job progress lines",
    )
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_status = campaign_sub.add_parser(
        "status", help="show cache coverage for a campaign spec"
    )
    _add_campaign_spec_args(campaign_status)
    campaign_status.set_defaults(func=cmd_campaign_status)

    campaign_report = campaign_sub.add_parser(
        "report", help="render tables/figures from a JSONL result store"
    )
    campaign_report.add_argument(
        "benchmarks", nargs="*", metavar="benchmark",
        help="restrict the report to these benchmarks",
    )
    campaign_report.add_argument(
        "--store", default="results/campaign.jsonl",
        help="JSONL result store (default results/campaign.jsonl)",
    )
    campaign_report.add_argument(
        "--seed", type=int, default=None,
        help="seed to report (default: lowest stored)",
    )
    campaign_report.set_defaults(func=cmd_campaign_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    func = args.func
    if isinstance(func, str):
        # A run/list/trace/validate handler, named so that the campaign
        # commands never load the module that defines them.
        from repro import cli_tools

        func = getattr(cli_tools, func)
    return func(args)


if __name__ == "__main__":
    raise SystemExit(main())
