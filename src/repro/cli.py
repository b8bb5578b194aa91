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
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.api import ConfigSpecError, resolve_config, resolve_configs
from repro.experiments import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    ResultStore,
    collect_results,
)
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


def cmd_list(args) -> int:
    from repro.api.configs import PRESETS, SETS
    from repro.traces.source import SOURCES

    rows = [
        [p.name, p.suite, f"{p.comm_pct:.1f}", f"{p.partial_pct:.1f}",
         f"{p.base_ipc:.2f}"]
        for p in PROFILES.values()
    ]
    print(render_table(
        ["benchmark", "suite", "comm%", "partial%", "paper IPC"], rows,
        title="Available benchmark profiles (Table 5 of the paper)",
    ))
    print()
    print(render_table(
        ["source", "description"],
        [[name, source.describe()] for name, source in
         sorted(SOURCES.items())],
        title="Trace sources (also campaign benchmarks; "
              "trace:<path> and extern:<path> address files directly)",
    ))
    print()
    print(render_table(
        ["preset", "config name", "description"],
        [[name, factory(128).name, description]
         for name, (factory, description) in sorted(PRESETS.items())],
        title="Config presets (repro run / campaign --configs; "
              "spec grammar: preset[@window][?key=value,...])",
    ))
    print()
    print(render_table(
        ["config set", "specs", "description"],
        [[name, len(specs), description]
         for name, (specs, description) in sorted(SETS.items())],
        title="Config sets (expand inside --configs; "
              "repro.api.configs.SETS lists the specs)",
    ))
    from repro.validate import list_invariants

    print()
    print(render_table(
        ["invariant", "contract"],
        [[name, contract]
         for name, contract in sorted(list_invariants().items())],
        title="Differential-validation invariants (repro validate / "
              "repro.api.validate; see docs/validation.md)",
    ))
    return 0


#: Configs a bare ``repro run <benchmark>`` sweeps (the historical four;
#: the first is the relative-time baseline).
_DEFAULT_RUN_CONFIGS = (
    "conventional-perfect", "conventional", "nosq-nodelay", "nosq",
)


def _split_run_specs(specs):
    """Split mixed ``repro run``-style positionals into
    ``(configs, benchmarks)``; None after printing a one-line error
    (caller exits 2).  Shared by ``repro run`` and ``repro validate
    run`` so the spec rules and messages cannot diverge."""
    from repro.traces import resolve_source

    config_specs, benchmarks = [], []
    for spec in specs:
        try:
            resolve_source(spec)
        except FileNotFoundError as exc:
            print(exc, file=sys.stderr)
            return None
        except KeyError as key_error:
            if ":" in spec.split("?", 1)[0]:
                # trace:/extern:-shaped ids can never be config specs;
                # the trace source's message names the id forms.
                print(key_error.args[0], file=sys.stderr)
                return None
            config_specs.append(spec)
        else:
            benchmarks.append(spec)
    try:
        # resolve_configs, not resolve_config: run positionals accept
        # everything campaign --configs does, including set names
        # ('standard') and globs ('nosq*'), and aliases of one machine
        # (nosq, nosq-delay) collapse to one config.
        configs = resolve_configs(config_specs) if config_specs else []
    except ConfigSpecError as exc:
        for spec in config_specs:  # name the first one that fails alone
            try:
                resolve_configs(spec)
            except ConfigSpecError:
                break
        print(
            f"{spec!r} is neither a benchmark id nor a config spec: {exc}",
            file=sys.stderr,
        )
        return None
    if not benchmarks:
        print(
            "no benchmark among the arguments; pass a profile, zoo.* "
            "family, trace:<path> or extern:<path> id "
            "(see `repro list`)", file=sys.stderr,
        )
        return None
    return configs, benchmarks


def cmd_run(args) -> int:
    split = _split_run_specs(args.specs)
    if split is None:
        return 2
    configs, benchmarks = split
    try:
        scale = _cli_scale(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not configs:
        configs = resolve_configs(_DEFAULT_RUN_CONFIGS)
    from repro.harness.runner import run_configs
    from repro.isa.tracefile import TraceFormatError
    from repro.traces import resolve_source

    for benchmark in benchmarks:
        try:
            trace = resolve_source(benchmark).trace(scale, args.seed)
        except (TraceFormatError, OSError) as exc:
            print(f"{benchmark}: {exc}", file=sys.stderr)
            return 2
        try:
            results = {
                config.name: stats
                for config, stats, _elapsed in run_configs(
                    trace, configs, scale, args.warmup
                )
            }
        except ValueError as exc:
            print(f"{benchmark}: {exc}", file=sys.stderr)
            return 2
        baseline = next(iter(results.values()))
        # Statistics exclude the warmup, so a defaulted (possibly
        # clamped) warmup is the rest of the trace.
        warmup = args.warmup
        if warmup is None:
            warmup = len(trace) - baseline.instructions
        rows = []
        for name, stats in results.items():
            rows.append([
                name, f"{stats.ipc:.2f}",
                f"{stats.cycles / baseline.cycles:.3f}",
                f"{stats.pct_loads_bypassed:.1f}%",
                f"{stats.pct_loads_delayed:.1f}%",
                f"{stats.mispredicts_per_10k_loads:.1f}",
                stats.reexecuted_loads, stats.flushes,
            ])
        print(render_table(
            ["config", "IPC", "rel.time", "bypassed", "delayed",
             "mispred/10k", "reexec", "flushes"],
            rows,
            title=f"{benchmark}: {len(trace)} instructions "
                  f"({warmup} warmup; rel.time vs "
                  f"{baseline.config_name})",
        ))
    return 0


# --------------------------------------------------------------------- #
# Differential validation
# --------------------------------------------------------------------- #


def cmd_validate_run(args) -> int:
    from repro.isa.tracefile import TraceFormatError
    from repro.traces import resolve_source
    from repro.validate import run_validation

    split = _split_run_specs(args.specs)
    if split is None:
        return 2
    configs, benchmarks = split
    try:
        scale = _cli_scale(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not configs:
        configs = resolve_configs("standard")
    failed = False
    for benchmark in benchmarks:
        try:
            trace = resolve_source(benchmark).trace(scale, args.seed)
        except (TraceFormatError, OSError) as exc:
            print(f"{benchmark}: {exc}", file=sys.stderr)
            return 2
        result = run_validation(configs, trace, benchmark=benchmark)
        rows = [
            [report.config_name, report.instructions,
             len(report.violations),
             "OK" if report.ok else "VIOLATED"]
            for report in result.reports
        ]
        print(render_table(
            ["config", "instructions", "violations", "verdict"], rows,
            title=f"{benchmark}: differential validation vs the in-order "
                  f"oracle ({len(configs)} configs, seed {args.seed})",
        ))
        for report in result.reports:
            if not report.ok:
                print(report.describe(), file=sys.stderr)
        for violation in result.cross_violations:
            print(violation.describe(), file=sys.stderr)
        if not result.ok:
            failed = True
    if failed:
        return 1
    print("all invariants hold")
    return 0


def cmd_validate_fuzz(args) -> int:
    from repro.validate import run_fuzz

    try:
        configs = resolve_configs(args.configs)
    except ConfigSpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.budget < 1:
        print(f"--budget must be >= 1, got {args.budget}", file=sys.stderr)
        return 2
    if args.length < 1:
        # A non-positive length would "fuzz" empty traces and report an
        # all-clean run -- refuse rather than vacuously succeed.
        print(f"--length must be >= 1, got {args.length}", file=sys.stderr)
        return 2
    progress = None if args.quiet else (lambda msg: print(f"[fuzz] {msg}"))
    result = run_fuzz(
        configs, budget=args.budget, seed=args.seed, length=args.length,
        out_dir=args.out, progress=progress,
    )
    if result.ok:
        print(
            f"{result.traces_run} adversarial traces x "
            f"{len(configs)} configs: no invariant violations "
            f"(seed {args.seed})"
        )
        return 0
    print(result.failure.describe(), file=sys.stderr)
    return 1


def cmd_validate_shrink(args) -> int:
    from repro.isa.tracefile import TraceFormatError, load_trace
    from repro.traces.reprocase import (
        MissingSidecarError,
        load_repro_case,
        save_repro_case,
    )
    from repro.validate import reindex_trace, run_diff, shrink_trace

    config_spec = args.config
    try:
        case = load_repro_case(args.path)
        trace = case.trace
        if config_spec is None:
            config_spec = case.config_name
    except (TraceFormatError, FileNotFoundError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except MissingSidecarError:
        # A bare trace without a sidecar: --config selects the machine.
        if config_spec is None:
            print(
                f"{args.path} has no repro-case sidecar; pass --config",
                file=sys.stderr,
            )
            return 2
        try:
            trace = load_trace(args.path)
        except (TraceFormatError, FileNotFoundError, OSError) as exc:
            print(exc, file=sys.stderr)
            return 2
    except ValueError as exc:
        # Malformed sidecar / oracle-version mismatch.
        print(exc, file=sys.stderr)
        return 2
    try:
        config = resolve_config(config_spec)
    except ConfigSpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    # Re-derive the annotations up front: the shrinker must minimize
    # against exactly the trace its candidates are rebuilt from, and a
    # file whose *stored* annotations are stale is `repro trace
    # validate`'s problem, not a timing-model failure to minimize.
    trace = reindex_trace(trace)
    report = run_diff(config, trace, benchmark=str(args.path))
    if report.ok:
        print(
            f"{args.path}: no invariant violations under {config.name}; "
            "nothing to shrink"
        )
        return 1
    shrunk = shrink_trace(
        trace,
        lambda candidate: not run_diff(config, candidate).ok,
        max_checks=args.max_checks,
    )
    final = run_diff(config, shrunk, benchmark=f"{args.path}.min")
    output = args.out or f"{args.path}.min.bt"
    # Report the minimized failure before attempting the save, so an
    # unwritable output path cannot swallow the diagnosis.
    print(final.describe(), file=sys.stderr)
    try:
        save_repro_case(
            shrunk, output, config_name=config.name,
            violations=[v.describe() for v in final.violations],
        )
    except OSError as exc:
        print(f"cannot write {output}: {exc}", file=sys.stderr)
        return 2
    print(
        f"shrunk {len(trace)} -> {len(shrunk)} instructions; minimal "
        f"repro saved to {output}"
    )
    return 0


# --------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------- #


def _load_any_trace(path: str):
    """Load a v2 trace or import an external event trace.

    A file with the v2 magic is read as a trace and any other file is
    imported as an external event trace; a file that is neither fails
    with a message saying so, followed by the importer's detail.
    """
    from repro.isa.tracefile import TraceFormatError, load_trace
    from repro.traces import import_synchrotrace, is_binary_trace

    if is_binary_trace(path):
        return load_trace(path)
    try:
        return import_synchrotrace(path)
    except TraceFormatError as exc:
        if isinstance(exc.__cause__, OSError):
            raise
        detail = str(exc).removeprefix(f"{Path(path)}: ")
        raise TraceFormatError(
            f"{path}: neither a v2 trace file nor an external event trace "
            f"(read as an event trace: {detail})"
        ) from None


def cmd_trace_record(args) -> int:
    from repro.isa.tracefile import save_trace
    from repro.traces import resolve_source

    try:
        scale = ExperimentScale("record", args.instructions, 0)
        source = resolve_source(args.benchmark)
        trace = source.trace(scale, args.seed)
        output = args.output or f"{args.benchmark.replace(':', '_')}.bt"
        save_trace(trace, output)
    except (KeyError, FileNotFoundError, ValueError) as exc:
        # ValueError covers TraceFormatError and a bad -n.
        print(exc, file=sys.stderr)
        return 2
    size = Path(output).stat().st_size
    print(
        f"{args.benchmark}: {len(trace)} instructions -> {output} "
        f"({size} bytes, {size / max(1, len(trace)):.2f} B/inst)"
    )
    return 0


def cmd_trace_convert(args) -> int:
    from repro.isa.tracefile import TraceFormatError, save_trace

    try:
        trace = _load_any_trace(args.input)
        save_trace(trace, args.output)
    except (TraceFormatError, FileNotFoundError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    in_size = Path(args.input).stat().st_size
    out_size = Path(args.output).stat().st_size
    print(
        f"{args.input} ({in_size} bytes) -> {args.output} "
        f"({out_size} bytes): {len(trace)} instructions"
    )
    return 0


def cmd_trace_info(args) -> int:
    from repro.isa.trace import communication_stats
    from repro.isa.tracefile import TraceFormatError
    from repro.traces import is_binary_trace, trace_info

    rows = []
    try:
        if is_binary_trace(args.path):
            info = trace_info(args.path)
            rows.extend([
                ["format", f"v2 binary ({info['blocks']} blocks of "
                           f"{info['block_records']} records)"],
                ["file bytes", str(info["file_bytes"])],
                ["bytes/instruction", f"{info['bytes_per_instruction']:.2f}"],
            ])
        else:
            rows.append(["format", "external event trace (imported)"])
        trace = _load_any_trace(args.path)
    except (TraceFormatError, FileNotFoundError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    stats = communication_stats(trace)
    rows.extend([
        ["instructions", str(len(trace))],
        ["loads", str(stats.loads)],
        ["stores", str(stats.stores)],
        ["branches", str(stats.branches)],
        ["communicating loads", f"{stats.communicating_loads} "
                                f"({stats.pct_communicating:.1f}%)"],
        ["partial-word loads", f"{stats.partial_word_loads} "
                               f"({stats.pct_partial_word:.1f}%)"],
    ])
    print(render_table(["field", "value"], rows, title=str(args.path)))
    return 0


def cmd_trace_validate(args) -> int:
    from repro.isa.trace import reindex_trace
    from repro.isa.tracefile import TraceFormatError

    try:
        trace = _load_any_trace(args.path)
    except (TraceFormatError, FileNotFoundError, OSError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    # Re-derive every annotation from the raw instruction stream and
    # compare: catches stale or inconsistent annotations, not just
    # container corruption.
    rebuilt = reindex_trace(trace)
    fields = ("store_seq", "src_stores", "containing_store", "dist_insns",
              "unique_stores", "path_hist")
    bad = 0
    for original, fresh in zip(trace, rebuilt):
        for name in fields:
            if getattr(original, name) != getattr(fresh, name):
                if bad == 0:
                    print(
                        f"INVALID: instruction {original.seq}: {name} is "
                        f"{getattr(original, name)!r}, re-annotation gives "
                        f"{getattr(fresh, name)!r}", file=sys.stderr,
                    )
                bad += 1
    if bad:
        print(f"INVALID: {bad} stale annotation field(s) in "
              f"{len(trace)} instructions", file=sys.stderr)
        return 1
    print(f"OK: {args.path}: {len(trace)} instructions, "
          "annotations consistent")
    return 0


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
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    store = ResultStore(args.store)
    progress = None if args.quiet else (lambda ev: print(ev.describe()))
    from repro.experiments import run_campaign

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
    from repro.experiments import plan_campaign

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

    # Render each section over the benchmarks whose stored configs
    # support it (stores may mix config sets across campaigns).  The
    # paper tables only make sense for calibrated profiles; every stored
    # run no section used (trace-source benchmarks, extra configs, other
    # windows) goes to the generic table.
    used = set()
    for specs, render in _report_sections(results):
        required = {config.name for config in resolve_configs(specs)}
        covered = [
            name for name, result in results.items()
            if name in PROFILES and required <= set(result.runs)
        ]
        if covered:
            print(render(covered))
            used.update((name, config) for name in covered for config in required)
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


def _report_sections(results):
    """The paper's tables, figures and ablations in report order, as
    ``(config specs, render(benchmarks) -> text)`` over *results*."""
    # Imported here: a cached `campaign run` loads no figure code.
    from repro.harness import ablations, figure2, figure4, figure5, table5

    def figure5_section(columns, title):
        return (["conventional-perfect", *columns.values()], lambda names:
                figure5.render_figure5(
                    figure5.figure5_series(names, results, columns), title
                ))

    def ablation_section(columns, render):
        return (list(columns.values()), lambda names: render(
            ablations.ablation_points(names, results, columns)
        ))

    return [
        ("table5", lambda names: table5.render_table5(
            [table5.table5_row(name, results[name]) for name in names]
        )),
        ("standard", lambda names: figure2.render_figure2(
            figure2.figure2_series(names, results)
        )),
        ("figure3", lambda names: figure2.render_figure2(
            figure2.figure2_series(names, results, window=256),
            title="Figure 3: relative execution time, 256-entry window",
        )),
        ("figure4", lambda names: figure4.render_figure4(
            figure4.figure4_series(names, results)
        )),
        figure5_section(
            figure5.CAPACITY, "Figure 5 (top): predictor capacity sweep"
        ),
        figure5_section(
            figure5.HISTORY, "Figure 5 (bottom): path-history length sweep"
        ),
        *(
            ablation_section(columns, render)
            for columns, render in ablations.STUDIES
        ),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoSQ (MICRO 2006) reproduction: cycle-level simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark profiles").set_defaults(
        func=cmd_list
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
    run.set_defaults(func=cmd_run)

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
    trace_record.set_defaults(func=cmd_trace_record)

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
    trace_convert.set_defaults(func=cmd_trace_convert)

    trace_info_cmd = trace_sub.add_parser(
        "info", help="show a trace file's layout and statistics"
    )
    trace_info_cmd.add_argument("path")
    trace_info_cmd.set_defaults(func=cmd_trace_info)

    trace_validate = trace_sub.add_parser(
        "validate",
        help="load a trace and re-derive every annotation; nonzero exit "
             "on corruption or stale annotations",
    )
    trace_validate.add_argument("path")
    trace_validate.set_defaults(func=cmd_trace_validate)

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
    validate_run.set_defaults(func=cmd_validate_run)

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
    validate_fuzz.set_defaults(func=cmd_validate_fuzz)

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
    validate_shrink.set_defaults(func=cmd_validate_shrink)

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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
