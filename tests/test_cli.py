"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import write_v1_file
from tests.test_api import UNRUNNABLE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self, capsys):
        # Not a benchmark, not a config spec: a runtime error (with a
        # suggestion), no longer an argparse choices SystemExit.
        assert main(["run", "quake3"]) == 2
        assert "neither a benchmark id nor a config spec" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("spec,fragment", UNRUNNABLE)
    def test_unrunnable_override_exits_2(self, spec, fragment, capsys,
                                         tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", spec, "gzip", "--scale", "smoke"]) == 2
        assert main(["campaign", "run", "gzip", "--configs", spec,
                     "--scale", "smoke", "--no-cache", "--quiet"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert all(fragment in line for line in lines)
        assert not (tmp_path / "results").exists()

    def test_scale_defaults(self):
        args = build_parser().parse_args(["run", "gzip"])
        assert args.instructions is None
        assert args.warmup is None
        assert args.scale is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "mesa.o" in out
        assert out.count("\n") > 47

    def test_run(self, capsys):
        assert main(["run", "applu", "-n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "sq-storesets" in out
        assert "nosq-delay" in out
        assert "mispred/10k" in out

    def test_compare(self, capsys):
        # The baseline and NoSQ over several benchmarks: one table each.
        assert main(["run", "conventional", "nosq", "applu", "adpcm.d",
                     "-n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "applu: 3000 instructions" in out
        assert "adpcm.d: 3000 instructions" in out
        assert out.count("rel.time vs sq-storesets") == 2

    def test_table5_subset(self, capsys, tmp_path, monkeypatch):
        # Table 5 comes from a campaign over the table5 config set.
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "run", "applu", "-n", "3000",
                     "--configs", "table5", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "applu"]) == 0
        out = capsys.readouterr().out
        assert "applu" in out and "comm%" in out

    def test_figure2_subset(self, capsys, tmp_path, monkeypatch):
        # Figure 2 comes from a campaign over the standard config set.
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "run", "applu", "-n", "3000",
                     "--configs", "standard", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "applu"]) == 0
        out = capsys.readouterr().out
        assert "nosq-delay (rel)" in out

    def test_program(self, capsys):
        # Mini-ISA programs are prog.* trace sources with an intrinsic
        # length: the default warmup is half the program.
        assert main(["run", "conventional", "nosq", "prog.memcpy"]) == 0
        out = capsys.readouterr().out
        assert "prog.memcpy: 1282 instructions (641 warmup" in out
        assert "nosq-delay" in out

    def test_program_unknown(self, capsys):
        assert main(["run", "conventional", "nosq", "prog.doom"]) == 2
        err = capsys.readouterr().err
        assert "'prog.doom' is neither a benchmark id" in err
        assert err.count("\n") == 1

    def test_explicit_warmup(self, capsys):
        assert main(["run", "applu", "-n", "3000", "-w", "1000"]) == 0
        assert "(1000 warmup" in capsys.readouterr().out

    def test_run_config_spec(self, capsys):
        assert main([
            "run", "nosq?backend.rob_size=256", "applu", "-n", "3000",
        ]) == 0
        out = capsys.readouterr().out
        assert "nosq-delay?rob_size=256" in out
        assert "sq-perfect" not in out     # explicit configs, no default set

    def test_run_accepts_sets_and_globs(self, capsys):
        assert main(["run", "table5", "applu", "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "nosq-nodelay" in out and "nosq-delay" in out
        assert main(["run", "nosq*", "applu", "-n", "2000"]) == 0
        assert "nosq-perfect" in capsys.readouterr().out

    def test_run_named_scale(self, capsys):
        assert main(["run", "nosq", "applu", "--scale", "smoke"]) == 0
        assert "8000 instructions (3000 warmup" in capsys.readouterr().out

    def test_run_bad_override_suggests(self, capsys):
        assert main(["run", "nosq?rob_sz=64", "applu", "-n", "2000"]) == 2
        assert "did you mean 'rob_size'" in capsys.readouterr().err

    def test_run_trace_file_clamps_default_warmup(self, capsys, tmp_path):
        # File sources keep their intrinsic length; the default scale's
        # warmup (12000) must not swallow a short recorded trace.
        from repro.isa.tracefile import save_trace
        from repro.workloads import generate_trace

        path = tmp_path / "short.bt"
        save_trace(generate_trace("gzip", 2_000, seed=17), path)
        assert main(["run", f"trace:{path}"]) == 0
        out = capsys.readouterr().out
        assert "(1000 warmup" in out

    def test_run_default_scale_matches_simulate(self, capsys):
        # With no scale flag `repro run` measures what the façade's
        # simulate() does at its default scale: one row, same numbers.
        from repro.api import simulate

        assert main(["run", "nosq", "gzip"]) == 0
        out = capsys.readouterr().out
        stats = simulate("nosq", "gzip").stats
        assert "gzip: 30000 instructions (12000 warmup" in out
        row = next(line.split() for line in out.splitlines()
                   if line.strip().startswith("nosq-delay"))
        assert row[1:] == [
            f"{stats.ipc:.2f}", "1.000", f"{stats.pct_loads_bypassed:.1f}%",
            f"{stats.pct_loads_delayed:.1f}%",
            f"{stats.mispredicts_per_10k_loads:.1f}",
            str(stats.reexecuted_loads), str(stats.flushes),
        ]

    def test_run_corrupt_trace_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.bt"
        bad.write_text("not a trace")
        assert main(["run", f"trace:{bad}", "-n", "2000"]) == 2
        assert "not a repro trace file" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_campaign_run_v1_trace_file(self, capsys, tmp_path, monkeypatch,
                                        jobs):
        """A trace file that does not load fails the campaign with one
        line naming the file, as `repro run` does."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "old.trace.gz"
        write_v1_file(path)
        assert main(["campaign", "run", f"trace:{path}", "-n", "500",
                     "--no-cache", "--quiet", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert str(path) in err and "not a repro trace file in the v2" in err

    def test_run_source_id_gets_registry_suggestions(self, capsys):
        # prefix:-shaped ids can never be config specs; the trace
        # source's message (naming the id forms) must survive.
        assert main(["run", "tarce:g.bt", "gzip", "-n", "2000"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'tarce:g.bt'" in err
        assert "'trace:<path>'" in err
        assert "config" not in err

    def test_run_duplicate_config_names_collapse(self, capsys):
        # nosq-delay is an alias of nosq: one row, simulated once.
        assert main(["run", "nosq", "nosq-delay", "applu",
                     "-n", "2000"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.strip().startswith("nosq-delay")]
        assert len(rows) == 1

    def test_run_requires_benchmark(self, capsys):
        assert main(["run", "nosq", "-n", "2000"]) == 2
        assert "no benchmark among the arguments" in \
            capsys.readouterr().err

    def test_list_shows_presets_and_components(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "conventional-perfect" in out
        assert "nosq-nodelay" in out
        assert "config set" in out


_SCALE_COMMANDS = (
    ["run", "nosq", "gzip"],
    ["validate", "run", "nosq", "gzip"],
    ["campaign", "run", "gzip", "--no-cache", "--quiet"],
)
_BAD_SCALES = (
    ["-n", "0"], ["-n", "-5"], ["-n", "-1"], ["-n", "2000", "-w", "-3"],
    ["-n", "100", "-w", "500"],
)


class TestScaleRejection:
    """A scale that measures nothing exits 2 with one stderr line, on every
    command that takes -n/-w (ExperimentScale is the one check)."""

    # validate run has no -w: validation measures the whole trace.
    @pytest.mark.parametrize("command,scale", [
        pytest.param(command, scale, id=f"scale{i}-command{j}")
        for i, scale in enumerate(_BAD_SCALES)
        for j, command in enumerate(_SCALE_COMMANDS)
        if command[0] != "validate" or "-w" not in scale
    ])
    def test_rejected(self, capsys, tmp_path, monkeypatch, command, scale):
        monkeypatch.chdir(tmp_path)
        assert main(command + scale) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "must be" in err

    def test_warmup_beyond_trace_rejected(self, capsys, tmp_path):
        # The trace file is shorter than the explicit warmup: nothing of
        # it is left to measure.
        from repro.isa.tracefile import save_trace
        from repro.workloads import generate_trace

        path = tmp_path / "g600.bt"
        trace = generate_trace("gzip", 600, seed=17)
        save_trace(trace, path)
        assert main(["run", "nosq", f"trace:{path}",
                     "-n", "2000", "-w", "1500"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"warmup (1500) must be less than the trace length " \
            f"({len(trace)})" in err

    def test_validate_run_has_no_warmup(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "run", "nosq", "gzip", "-n", "2000",
                  "-w", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: -w 5" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ("0", "-3"))
    def test_trace_record_rejected(self, capsys, tmp_path, count):
        out = tmp_path / "t.bt"
        assert main(["trace", "record", "gzip", "-n", count,
                     "-o", str(out)]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCLI:
    def test_run_clean(self, capsys):
        assert main(["validate", "run", "nosq", "zoo.pchase",
                     "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "nosq-delay" in out and "all invariants hold" in out

    def test_run_defaults_to_standard_set(self, capsys):
        assert main(["validate", "run", "zoo.pchase", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        for name in ("sq-perfect", "sq-storesets", "nosq-nodelay",
                     "nosq-delay", "nosq-perfect"):
            assert name in out

    def test_run_trace_file(self, capsys, tmp_path):
        # A trace file keeps its own length: no -n needed (docs/validation.md).
        from repro.isa.tracefile import save_trace
        from repro.workloads import generate_trace

        path = tmp_path / "g600.bt"
        save_trace(generate_trace("gzip", 600, seed=17), path)
        assert main(["validate", "run", "nosq", f"trace:{path}"]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_run_requires_benchmark(self, capsys):
        assert main(["validate", "run", "nosq"]) == 2
        assert "no benchmark among the arguments" in \
            capsys.readouterr().err

    def test_run_corrupt_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.bt"
        bad.write_text("not a trace")
        assert main(["validate", "run", "nosq", f"trace:{bad}"]) == 2
        assert "not a repro trace file" in capsys.readouterr().err

    def test_run_missing_trace_exits_2(self, capsys, tmp_path):
        assert main(["validate", "run", "nosq",
                     f"trace:{tmp_path}/nope.bt"]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_fuzz_clean(self, capsys):
        assert main(["validate", "fuzz", "--budget", "5", "--seed", "0",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "5 adversarial traces" in out
        assert "no invariant violations" in out

    def test_fuzz_bad_budget_exits_2(self, capsys):
        assert main(["validate", "fuzz", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_fuzz_bad_length_exits_2(self, capsys):
        # length 0 would vacuously fuzz empty traces and report success.
        assert main(["validate", "fuzz", "--budget", "5",
                     "--length", "0"]) == 2
        assert "--length" in capsys.readouterr().err

    def test_fuzz_bad_config_exits_2(self, capsys):
        assert main(["validate", "fuzz", "--configs", "nosqq"]) == 2
        assert "nosq" in capsys.readouterr().err

    def test_shrink_corrupt_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.bt"
        bad.write_text("garbage")
        assert main(["validate", "shrink", str(bad),
                     "--config", "nosq"]) == 2
        assert "not a repro trace file" in capsys.readouterr().err

    def test_shrink_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["validate", "shrink", f"{tmp_path}/nope.bt"]) == 2
        err = capsys.readouterr().err
        assert "nope.bt" in err

    def test_shrink_malformed_sidecar_exits_2(self, capsys, tmp_path):
        # A *corrupt* sidecar must be reported as such, not silently
        # treated as a bare trace.
        import shutil

        shutil.copy("tests/data/repro_svw_miss.bt", tmp_path / "c.bt")
        (tmp_path / "c.bt.json").write_text("{truncated")
        assert main(["validate", "shrink", str(tmp_path / "c.bt"),
                     "--config", "nosq"]) == 2
        assert "malformed sidecar" in capsys.readouterr().err

    def test_shrink_bare_trace_needs_config(self, capsys, tmp_path):
        from repro.isa.tracefile import save_trace
        from repro.workloads import generate_trace

        path = tmp_path / "bare.bt"
        save_trace(generate_trace("gzip", 500, seed=17), path)
        assert main(["validate", "shrink", str(path)]) == 2
        assert "pass --config" in capsys.readouterr().err

    def test_shrink_unwritable_output_exits_2(self, capsys, tmp_path, monkeypatch):
        # A real failing case (the committed fixture under a mutated
        # simulator) whose minimal repro cannot be written: the diagnosis
        # must still be printed, with a one-line exit-2 error.
        from repro.pipeline.processor import Processor

        monkeypatch.setattr(
            Processor, "_load_value_ok", lambda self, entry: True
        )
        trace_file = tmp_path / "plain.txt"
        trace_file.write_text("in the way")
        assert main([
            "validate", "shrink", "tests/data/repro_svw_miss.bt",
            "-o", str(trace_file / "nested" / "x.bt"),  # file as a dir
        ]) == 2
        err = capsys.readouterr().err
        assert "svw-completeness" in err
        assert "cannot write" in err

    def test_shrink_clean_case_exits_1(self, capsys):
        # The committed fixture replays clean on the real simulator.
        assert main(["validate", "shrink",
                     "tests/data/repro_svw_miss.bt"]) == 1
        assert "nothing to shrink" in capsys.readouterr().out

    def test_list_shows_invariants(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "svw-completeness" in out
        assert "forwarding-correctness" in out

