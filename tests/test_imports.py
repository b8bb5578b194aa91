"""Import boundaries: what importing a package or a cached campaign loads.

Package ``__init__`` files export their names lazily
(:mod:`repro._lazy`), and the simulator is imported where it runs, so a
campaign served from the cache never loads the cycle-level model.  The
boundary checks run in fresh interpreters, because this test process has
long since imported everything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cli_tools
import repro.experiments
import repro.experiments.cache
from repro.cli import build_parser, main

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules that only executing (or validating) loads.
HEAVY = (
    "repro.pipeline.processor",
    "repro.workloads.generator",
    "repro.validate",
    "concurrent.futures.process",
)

#: Modules that planning a campaign never needs: the simulator's
#: components, the trace code (``repro.isa``), the trace codecs,
#: importer and repro-case files, and the generator families behind the
#: ``zoo.*`` and ``prog.*`` ids.
NOT_PLANNED = (
    r"repro\.(core|memory|isa)(\..*)?"
    r"|repro\.traces\.(binformat|importers|reprocase)"
    r"|repro\.workloads\.(zoo|programs)"
)

#: Per command served from the store, the modules it must not load
#: (DESIGN.md, "Import boundaries"): a cached run builds no stats
#: object, and a report plans nothing and reads no cache.  Neither needs
#: the façade or the handlers of the other commands (``repro.cli_tools``).
NOT_LOADED = {
    "run": re.compile(
        rf"{NOT_PLANNED}|repro\.pipeline\.(processor|stats)|repro\.api\.facade"
        r"|repro\.cli_tools"
    ),
    "report": re.compile(
        rf"{NOT_PLANNED}|repro\.pipeline\.processor"
        r"|repro\.experiments\.(scheduler|cache|spec)|repro\.api\.facade"
        r"|repro\.cli_tools"
    ),
}

#: The ``repro`` modules a cached ``campaign run`` and its ``campaign
#: report`` load (DESIGN.md, "Import boundaries").  A change that loads
#: more must justify it here.
CACHED_MODULES = {"run": 20, "report": 17}

#: Every package of the library, by dotted name.
PACKAGES = sorted(
    ".".join(("repro", *path.parent.relative_to(SRC / "repro").parts))
    for path in (SRC / "repro").rglob("__init__.py")
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=_env(), capture_output=True,
        text=True, check=True,
    )


@pytest.mark.parametrize(
    "module", ["repro", "repro.api", "repro.experiments", "repro.cli"]
)
def test_import_loads_no_simulator(module):
    done = _python("-c", (
        f"import sys, {module}\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    ))
    assert done.stdout.strip() == "[]"


def test_root_package_loads_nothing():
    # `repro` is the package map and the version: the entry points live
    # in repro.api and the packages it names.
    done = _python("-c", (
        "import sys, repro\n"
        "print([m for m in sys.modules if m.startswith('repro.')])\n"
        "print(repro.__all__)\n"
    ))
    assert done.stdout.splitlines() == ["[]", "['__version__']"]


def test_api_scale_names_load_no_facade():
    # repro.api resolves the scale names to harness.runner, where they
    # are defined, so they load neither the façade nor a trace module.
    done = _python("-c", (
        "import json, sys\n"
        "from repro.api import NAMED_SCALES, effective_warmup, resolve_scale\n"
        "import repro.harness.runner as runner\n"
        "assert resolve_scale is runner.resolve_scale\n"
        "assert NAMED_SCALES is runner.NAMED_SCALES\n"
        "assert effective_warmup is runner.effective_warmup\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('repro.')]))\n"
    ))
    loaded = json.loads(done.stdout)
    assert [m for m in loaded if re.fullmatch(
        r"repro\.(api\.facade|isa(\..*)?|pipeline\.stats)", m
    )] == []


def _cli_commands(parser, prefix=()):
    """``(argv prefix, parser)`` for the CLI and every (sub)command."""
    yield list(prefix), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _cli_commands(sub, (*prefix, name))


CLI_COMMANDS = dict(
    (" ".join(argv) or "repro", (argv, sub))
    for argv, sub in _cli_commands(build_parser())
)


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_every_command_prints_help(command, capsys):
    # The parser names every command, including those whose handlers
    # repro.cli_tools defines; each handler name resolves there.
    argv, parser = CLI_COMMANDS[command]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: repro {' '.join(argv)}")
    if not argv:
        assert "{list,run,trace,validate,campaign}" in out
    handler = parser.get_default("func")
    if isinstance(handler, str):
        assert callable(getattr(repro.cli_tools, handler))


def test_cached_campaign_never_loads_processor(tmp_path):
    run = [
        "-m", "repro", "campaign", "run", "gzip", "zoo.pchase",
        "--configs", "nosq,conventional", "-n", "600", "-w", "300",
        "--cache-dir", "cache", "--store", "campaign.jsonl", "--quiet",
    ]
    _python(*run, cwd=tmp_path)  # fills the cache (simulates)
    cached = _python("-X", "importtime", *run, cwd=tmp_path)
    assert "4 cached, 0 executed" in cached.stdout
    report = _python(
        "-X", "importtime", "-m", "repro", "campaign", "report",
        "--store", "campaign.jsonl", cwd=tmp_path,
    )
    assert "zoo.pchase" in report.stdout
    for command, done in (("run", cached), ("report", report)):
        # -X importtime logs one "... | <module>" line per import.
        loaded = re.findall(
            r"\|\s*(repro(?:\.[\w.]+)?)$", done.stderr, re.MULTILINE
        )
        assert "repro.cli" in loaded
        banned = [m for m in loaded if NOT_LOADED[command].fullmatch(m)]
        assert banned == [], command
        assert len(loaded) == CACHED_MODULES[command], (command, loaded)


def test_planning_loads_no_simulator_or_codec(tmp_path):
    # Resolving the standard set and planning a profile campaign against
    # a cache: the config records live in repro.pipeline.config, and the
    # trace package exports its codecs lazily.
    done = _python("-c", (
        "import json, sys\n"
        "from repro.api import resolve_configs\n"
        "from repro.experiments import CampaignSpec, ResultCache, plan_campaign\n"
        "from repro.harness import SMOKE\n"
        "spec = CampaignSpec(benchmarks=['gzip', 'mcf', 'applu'],\n"
        "                    configs=resolve_configs('standard'),\n"
        "                    scale=SMOKE, seeds=(17,))\n"
        "hits, groups = plan_campaign(spec, ResultCache('cache'))\n"
        "print(sum(len(group.keys) for group in groups))\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('repro')]))\n"
    ), cwd=tmp_path)
    planned, loaded = done.stdout.splitlines()
    assert planned == "15"
    modules = json.loads(loaded)
    assert "repro.experiments.scheduler" in modules
    assert [m for m in modules if re.fullmatch(NOT_PLANNED, m)] == []


def test_source_names_resolve_without_generators():
    # repro.traces.source names the zoo.* and prog.* sources; a fresh
    # interpreter lists, filters and plans them without loading their
    # generator modules, and producing a trace loads the one it runs.
    done = _python("-c", (
        "import sys\n"
        "from repro.cli import _campaign_spec, build_parser\n"
        "from repro.harness import SMOKE\n"
        "from repro.traces import known_benchmark_ids, resolve_source\n"
        "families = ('repro.workloads.zoo', 'repro.workloads.programs')\n"
        "ids = list(known_benchmark_ids())\n"
        "args = build_parser().parse_args(\n"
        "    ['campaign', 'run', '--benchmarks', 'zoo.*'])\n"
        "spec = _campaign_spec(args)\n"
        "from repro.experiments import plan_campaign\n"
        "hits, groups = plan_campaign(spec, None)\n"
        "print(len(ids), len(groups), sum(len(g.keys) for g in groups),\n"
        "      [m for m in families if m in sys.modules])\n"
        "trace = resolve_source('zoo.pchase').trace(SMOKE, 17)\n"
        "print(len(trace), [m for m in families if m in sys.modules])\n"
    ))
    assert done.stdout.splitlines() == [
        "60 8 40 []", "8000 ['repro.workloads.zoo']",
    ]
    listed = _python("-m", "repro", "list").stdout
    rows = [line.split(None, 1) for line in map(str.strip, listed.splitlines())
            if line.startswith(("zoo.", "prog."))]
    assert len(rows) == 13
    assert ["zoo.pchase", "pointer chasing, serialized cache-miss loads"] \
        in rows


def test_program_sources_load_no_assembler():
    # prog.* sources register on import and resolve without the mini-ISA
    # toolchain; only building a trace assembles and executes.
    done = _python("-c", (
        "import sys\n"
        "from repro.harness import SMOKE\n"
        "from repro.traces import resolve_source\n"
        "source = resolve_source('prog.memcpy')\n"
        "tools = ('repro.isa.assembler', 'repro.isa.executor')\n"
        "print([m for m in tools if m in sys.modules])\n"
        "source.trace(SMOKE, 17)\n"
        "print([m for m in tools if m in sys.modules])\n"
    ))
    assert done.stdout.split("\n")[:2] == [
        "[]", "['repro.isa.assembler', 'repro.isa.executor']",
    ]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    namespace: dict[str, object] = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_api_exports():
    import repro.api

    assert sorted(repro.api.__all__) == [
        "ConfigSpecError", "NAMED_SCALES", "SimResult", "SweepResult",
        "effective_warmup", "resolve_config", "resolve_configs",
        "resolve_scale", "simulate", "standard_configs", "sweep",
        "validate",
    ]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'job_kye'"):
        repro.experiments.job_kye


def test_exports_are_not_cached(monkeypatch):
    """A package export always reads its module's current binding, so a
    function rebound on its module and later restored (a profiler's
    wrapper, a monkeypatch) never stays stale in the package."""
    original = repro.experiments.cache.job_key
    assert repro.experiments.job_key is original

    def replacement(job, memo=None):
        return "replaced"

    monkeypatch.setattr(repro.experiments.cache, "job_key", replacement)
    assert repro.experiments.job_key is replacement
    monkeypatch.undo()
    assert repro.experiments.job_key is original
    assert "job_key" not in vars(repro.experiments)
