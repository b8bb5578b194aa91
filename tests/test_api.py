"""Tests for the `repro.api` façade.

Pins the compatibility contract — the presets resolve to configs
bit-identical (fields, names, campaign cache keys) to the historical
factories — and covers the override grammar, config sets and globs, and
the typed `simulate`/`sweep` entry points.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    ConfigSpecError,
    resolve_config,
    resolve_configs,
    resolve_scale,
    simulate,
    standard_configs,
    sweep,
)
from repro.api.configs import SETS, split_spec_list
from repro.experiments.cache import job_key
from repro.experiments.spec import CampaignSpec, Job
from repro.harness.runner import SMOKE, ExperimentScale
from repro.pipeline.config import MachineConfig, SchedulerKind
from repro.pipeline.processor import Processor
from repro.workloads import generate_trace

TINY = ExperimentScale("tiny", num_instructions=2_000, warmup=500)


# --------------------------------------------------------------------- #
# Preset identity: the presets reproduce the seed factories exactly.
# --------------------------------------------------------------------- #

FACTORY_PAIRS = [
    ("conventional", MachineConfig.conventional()),
    ("conventional-perfect",
     MachineConfig.conventional(perfect_scheduling=True)),
    ("conventional-smb", MachineConfig.conventional_smb()),
    ("nosq", MachineConfig.nosq()),
    ("nosq-nodelay", MachineConfig.nosq(delay=False)),
    ("nosq-perfect", MachineConfig.nosq(perfect=True)),
    ("conventional@256", MachineConfig.conventional(window=256)),
    ("nosq@256", MachineConfig.nosq(window=256)),
    ("nosq-perfect@256", MachineConfig.nosq(window=256, perfect=True)),
    # Historical config names answer as aliases.
    ("sq-storesets", MachineConfig.conventional()),
    ("sq-perfect", MachineConfig.conventional(perfect_scheduling=True)),
    ("nosq-delay", MachineConfig.nosq()),
]


class TestPresetIdentity:
    @pytest.mark.parametrize("spec,factory", FACTORY_PAIRS,
                             ids=[s for s, _ in FACTORY_PAIRS])
    def test_registry_matches_factory(self, spec, factory):
        resolved = resolve_config(spec)
        assert resolved == factory
        assert resolved.name == factory.name

    @pytest.mark.parametrize("spec,factory", FACTORY_PAIRS,
                             ids=[s for s, _ in FACTORY_PAIRS])
    def test_campaign_cache_keys_identical(self, spec, factory):
        """The acceptance-criteria pin: registry-resolved presets address
        exactly the seed factories' cache entries."""
        via_registry = Job("gzip", resolve_config(spec), SMOKE, 17)
        via_factory = Job("gzip", factory, SMOKE, 17)
        assert job_key(via_registry) == job_key(via_factory)

    def test_standard_configs_shim(self):
        configs = standard_configs()
        assert [c.name for c in configs] == [
            "sq-perfect", "sq-storesets", "nosq-nodelay", "nosq-delay",
            "nosq-perfect",
        ]

    def test_harness_config_sets(self):
        assert [c.name for c in resolve_configs("table5")] == \
            ["nosq-nodelay", "nosq-delay"]
        assert [c.name for c in resolve_configs("figure4")] == \
            ["sq-storesets", "nosq-delay"]
        assert resolve_configs("figure3") == standard_configs(256)
        # Figure 5: the baseline plus 13 distinct predictor variants; the
        # 2K/8-bit and unbounded/8-bit points sit on both graphs.
        figure5 = resolve_configs("figure5")
        assert figure5[0].name == "sq-perfect" and len(figure5) == 14
        # Ablations: 13 study columns, 3 of them the plain nosq preset.
        ablations = resolve_configs("ablations")
        assert len(ablations) == 11
        assert "nosq-delay" in [c.name for c in ablations]


# --------------------------------------------------------------------- #
# Override grammar
# --------------------------------------------------------------------- #

class TestOverrides:
    def test_top_level_field(self):
        config = resolve_config("nosq?rob_size=256")
        assert config.rob_size == 256
        assert config.name == "nosq-delay?rob_size=256"
        # Everything else untouched.
        assert dataclasses.replace(
            config, name="nosq-delay", rob_size=128
        ) == MachineConfig.nosq()

    def test_backend_namespace_covers_window_resources(self):
        assert resolve_config("nosq?backend.rob_size=256").rob_size == 256
        assert resolve_config("nosq?backend.depth=9").backend.depth == 9

    def test_section_aliases(self):
        config = resolve_config(
            "nosq?bypass.history_bits=10,memory.l1_size=32768"
        )
        assert config.bypass_predictor.history_bits == 10
        assert config.hierarchy.l1_size == 32768

    def test_canonical_name_sorts_and_normalizes(self):
        a = resolve_config("nosq?iq_size=30,backend.rob_size=96")
        b = resolve_config("nosq?rob_size=96,iq_size=30")
        assert a == b
        assert a.name == "nosq-delay?iq_size=30,rob_size=96"

    def test_typed_coercion(self):
        assert resolve_config("nosq?svw_enabled=false").svw_enabled is False
        assert resolve_config("nosq?lq_size=none").lq_size is None
        assert resolve_config("conventional?lq_size=none").lq_size is None
        assert resolve_config("nosq?rob_size=0x80").rob_size == 128
        config = resolve_config("conventional?scheduler=perfect")
        assert config.scheduler is SchedulerKind.PERFECT

    def test_window_plus_overrides(self):
        config = resolve_config("nosq@256?tssbf_entries=256")
        assert config.rob_size == 256          # window scaling first
        assert config.tssbf_entries == 256     # then the override
        assert config.name == "nosq-delay-w256?tssbf_entries=256"

    def test_override_derived_config_simulates(self):
        trace = generate_trace("gzip", TINY.num_instructions, seed=17)
        config = resolve_config("nosq?backend.rob_size=256")
        stats = Processor(config).run(trace, warmup=TINY.warmup)
        assert stats.instructions > 0
        assert stats.config_name == "nosq-delay?rob_size=256"


#: Overrides the pipeline cannot run (they livelock or crash it), with
#: the start of their one-line error.
UNRUNNABLE = [
    ("nosq?width=0", "width=0:"),
    ("conventional?commit_width=0", "commit_width=0:"),
    ("nosq?commit_width=0", "commit_width=0:"),
    ("conventional?max_branches_per_group=0", "max_branches_per_group=0:"),
    ("nosq?max_branches_per_group=0", "max_branches_per_group=0:"),
    ("conventional?lq_size=0", "lq_size=0:"),
    ("nosq?lq_size=0", "lq_size=0:"),
    ("conventional?sq_size=0", "sq_size=0:"),
    ("nosq?sq_size=24", "sq_size=24:"),
    ("nosq?exec_delay=-1", "exec_delay=-1:"),
    ("conventional?frontend_depth=-2", "frontend_depth=-2:"),
    ("nosq?tssbf_entries=0", "tssbf_entries=0:"),
    ("conventional?tssbf_entries=96", "tssbf_entries=96:"),
    ("nosq?tssbf_assoc=0", "tssbf_assoc=0:"),
    ("nosq?rob_size=0", "rob_size=0:"),
    ("conventional?iq_size=0", "iq_size=0:"),
    ("nosq?phys_regs=8", "phys_regs=8:"),
    ("conventional?phys_regs=64", "phys_regs=64:"),
    ("nosq?ssn_bits=2", "ssn_bits=2:"),
]


class TestValidationErrors:
    @pytest.mark.parametrize("spec,fragment", [
        ("convntional", "did you mean 'conventional'"),
        ("nosq?rob_sz=12", "did you mean 'rob_size'"),
        ("nosq?backend.rob_siz=1", "did you mean 'rob_size'"),
        ("nosq?bypas.history_bits=1", "unknown config section"),
        ("nosq?rob_size=big", "expected an integer"),
        ("nosq?svw_enabled=maybe", "expected a boolean"),
        ("nosq?scheduler=magic", "not one of"),
        ("nosq?name=x", "not overridable"),
        ("nosq?backend.name=x", "unknown key 'name'"),
        ("nosq?backend=x", "is a config section"),
        ("nosq@300", "supported window sizes"),
        ("nosq@big", "window must be an integer"),
        ("nosq?", "empty override list"),
        ("nosq?x", "expected key=value"),
        ("nosq?rob_size=1,rob_size=2", "duplicate override"),
        ("nosq?a.b.c=1", "nest at most one level"),
        ("standard", "is a config *set*"),
        ("nosq?bypass.impl=x", "unknown key 'impl'"),
    ])
    def test_error_messages(self, spec, fragment):
        with pytest.raises(ConfigSpecError) as excinfo:
            resolve_config(spec)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("spec,fragment", UNRUNNABLE)
    def test_unrunnable_override_names_key_and_value(self, spec, fragment):
        with pytest.raises(ConfigSpecError) as excinfo:
            resolve_config(spec)
        assert str(excinfo.value).startswith(fragment)

    def test_arch_register_count_matches_isa(self):
        from repro.api.configs import _ARCH_REGS
        from repro.isa.instructions import NUM_ARCH_REGS

        assert _ARCH_REGS == NUM_ARCH_REGS

    @pytest.mark.parametrize("spec", [
        "nosq?rob_size=1,iq_size=1,phys_regs=65,ssn_bits=4",
        "conventional?tssbf_entries=4",
        "nosq?tssbf_entries=1,tssbf_assoc=1",
        "nosq?tssbf_entries=24,tssbf_assoc=3",
    ])
    def test_smallest_runnable_values_construct(self, spec):
        # The resolve-time rules reject no machine the constructors build.
        Processor(resolve_config(spec))

    def test_unknown_set_suggestion(self):
        with pytest.raises(ConfigSpecError,
                           match="did you mean 'standard'"):
            resolve_configs("standrd")

    def test_campaign_spec_rejects_bad_config_string(self):
        with pytest.raises(ValueError, match="unknown config preset"):
            CampaignSpec(benchmarks=["gzip"], configs=["nosqq"], scale=TINY)


# --------------------------------------------------------------------- #
# Globs, sets and list splitting
# --------------------------------------------------------------------- #

class TestSpecLists:
    def test_split_keeps_overrides_attached(self):
        assert split_spec_list("nosq?a=1,b=2,conventional") == \
            ["nosq?a=1,b=2", "conventional"]
        assert split_spec_list("conventional,nosq?a=1") == \
            ["conventional", "nosq?a=1"]

    def test_split_opens_override_list_when_missing(self):
        # An '=' fragment after a spec with no '?' starts its override
        # list instead of producing a malformed spec.
        assert split_spec_list("nosq@256,rob_size=96") == \
            ["nosq@256?rob_size=96"]
        assert [c.name for c in resolve_configs("nosq@256,rob_size=96")] \
            == ["nosq-delay-w256?rob_size=96"]

    def test_glob_expansion(self):
        assert [c.name for c in resolve_configs("nosq*")] == \
            ["nosq-delay", "nosq-nodelay", "nosq-perfect"]

    def test_glob_with_suffix(self):
        names = [c.name for c in resolve_configs("nosq-n*@256")]
        assert names == ["nosq-nodelay-w256"]

    def test_set_expansion_with_window(self):
        assert resolve_configs("standard", window=256) == \
            standard_configs(window=256)

    def test_set_with_window_suffix(self):
        assert resolve_configs("standard@256") == \
            standard_configs(window=256)
        assert [c.name for c in resolve_configs("table5?rob_size=96")] == [
            "nosq-nodelay?rob_size=96", "nosq-delay?rob_size=96",
        ]

    def test_mixed_list(self):
        configs = resolve_configs("table5,conventional?rob_size=96")
        assert [c.name for c in configs] == [
            "nosq-nodelay", "nosq-delay", "sq-storesets?rob_size=96",
        ]

    def test_overlapping_lists_dedup(self):
        # Globs, sets and aliases may resolve the same machine twice;
        # the union sweeps once per name.
        assert [c.name for c in resolve_configs("nosq,nosq-delay")] == \
            ["nosq-delay"]
        union = resolve_configs("nosq*,standard")
        assert [c.name for c in union] == [
            "nosq-delay", "nosq-nodelay", "nosq-perfect",
            "sq-perfect", "sq-storesets",
        ]

    def test_same_name_different_config_conflicts(self):
        nosq = MachineConfig.nosq()
        with pytest.raises(ConfigSpecError, match="conflicting"):
            resolve_configs(["nosq", dataclasses.replace(nosq, rob_size=64)])

    def test_no_match_glob(self):
        with pytest.raises(ConfigSpecError, match="matches no preset"):
            resolve_configs("xyz*")

    def test_config_sets_listed(self):
        assert set(SETS) >= {"standard", "table5", "figure4"}


# --------------------------------------------------------------------- #
# Typed entry points
# --------------------------------------------------------------------- #

class TestSimulate:
    def test_matches_direct_processor_run(self):
        trace = generate_trace("gzip", TINY.num_instructions, seed=17)
        direct = Processor(MachineConfig.nosq()).run(
            trace, warmup=TINY.warmup
        )
        result = simulate("nosq", "gzip", scale=TINY)
        assert result.stats == direct
        assert result.benchmark == "gzip"
        assert result.config_name == "nosq-delay"
        assert result.ipc == direct.ipc
        assert result.trace_stats.loads > 0

    def test_accepts_trace_and_config_objects(self):
        trace = generate_trace("gzip", TINY.num_instructions, seed=17)
        result = simulate(MachineConfig.nosq(), trace, scale=TINY)
        assert result.benchmark == "<trace>"
        assert result.stats.instructions > 0

    def test_named_scale_and_warmup_override(self):
        result = simulate("nosq", "gzip", scale=2_000, warmup=0)
        # warmup=0 measures the whole trace (the generator may append a
        # final halt, so compare against the actual trace length).
        trace = generate_trace("gzip", 2_000, seed=17)
        assert result.stats.instructions == len(trace)
        assert result.scale.num_instructions == 2_000

    def test_unknown_scale(self):
        with pytest.raises(ConfigSpecError, match="unknown scale"):
            resolve_scale("smokey")

    def test_rejects_unusable_source(self):
        with pytest.raises(TypeError, match="cannot produce a trace"):
            simulate("nosq", object(), scale=TINY)

    def test_explicit_warmup_beyond_trace_rejected(self, tmp_path):
        from repro.isa.tracefile import save_trace

        path = tmp_path / "g600.bt"
        trace = generate_trace("gzip", 600, seed=17)
        save_trace(trace, path)
        with pytest.raises(ValueError, match=(
            rf"warmup \(1500\) must be less than the trace length "
            rf"\({len(trace)}\)"
        )):
            simulate("nosq", f"trace:{path}", scale=2_000, warmup=1_500)

    def test_short_file_trace_clamps_default_warmup(self, tmp_path, capsys):
        from repro.cli import main
        from repro.harness.runner import DEFAULT, run_benchmark
        from repro.isa.tracefile import save_trace

        path = tmp_path / "short.bt"
        save_trace(generate_trace("gzip", 2_000, seed=17), path)
        source = f"trace:{path}"
        # DEFAULT scale's warmup (12000) exceeds the file length; the
        # defaulted warmup clamps so statistics stay meaningful.
        result = simulate("nosq", source)
        assert result.stats.instructions > 500
        # An explicit warmup is honored as given.
        explicit = simulate("nosq", source, warmup=100)
        assert explicit.stats.instructions > result.stats.instructions
        # The campaign path, run_benchmark and `repro run` apply the same
        # clamp, so every entry point reports identical statistics.
        swept = sweep("nosq", [source])
        assert swept.stats(source, "nosq") == result.stats
        benchmark = run_benchmark(source, [resolve_config("nosq")], DEFAULT)
        assert benchmark.runs["nosq-delay"] == result.stats

        def cli_row(*args):
            assert main(["run", "nosq", source, *args]) == 0
            out = capsys.readouterr().out
            return next(line.split() for line in out.splitlines()
                        if line.strip().startswith("nosq-delay"))

        def row(stats):
            return [
                "nosq-delay", f"{stats.ipc:.2f}", "1.000",
                f"{stats.pct_loads_bypassed:.1f}%",
                f"{stats.pct_loads_delayed:.1f}%",
                f"{stats.mispredicts_per_10k_loads:.1f}",
                str(stats.reexecuted_loads), str(stats.flushes),
            ]

        assert cli_row() == row(result.stats)
        assert cli_row("-n", "2000", "-w", "100") == row(explicit.stats)


class TestSweep:
    def test_cached_rerun_executes_nothing(self, tmp_path):
        kwargs = dict(scale=TINY, cache=str(tmp_path / "cache"))
        first = sweep("nosq*,conventional?rob_size=96",
                      ["gzip", "zoo.pchase"], **kwargs)
        assert first.executed == 8 and first.hits == 0
        second = sweep("nosq*,conventional?rob_size=96",
                       ["gzip", "zoo.pchase"], **kwargs)
        assert second.executed == 0 and second.hits == 8
        assert second.stats("gzip", "nosq") == first.stats("gzip", "nosq")
        # Spec strings, config names and configs all address the runs.
        runs = second.results()["gzip"].runs
        assert "sq-storesets?rob_size=96" in runs
        assert second.stats("gzip", "nosq-delay").ipc == \
            second.stats("gzip", MachineConfig.nosq()).ipc

    def test_campaign_spec_accepts_spec_strings(self):
        spec = CampaignSpec(
            benchmarks=["gzip"],
            configs=["nosq?backend.rob_size=256", MachineConfig.nosq()],
            scale=TINY,
        )
        assert [c.name for c in spec.configs] == [
            "nosq-delay?rob_size=256", "nosq-delay",
        ]
        assert all(isinstance(c, MachineConfig) for c in spec.configs)
