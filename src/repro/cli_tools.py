"""The ``run``, ``list``, ``trace`` and ``validate`` commands of the CLI.

:mod:`repro.cli` builds the parser for every command and keeps the
campaign handlers; it imports this module only when one of these
commands runs, so a campaign command never compiles their code
(DESIGN.md §6).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.api import ConfigSpecError, resolve_config, resolve_configs
from repro.cli import _cli_scale
from repro.harness.report import render_table
from repro.harness.runner import ExperimentScale
from repro.workloads.profiles import PROFILES


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
