"""String-addressable machine configurations: presets, overrides, sets.

This module makes every :class:`~repro.pipeline.config.MachineConfig` the
campaign engine can run addressable by a *config spec* string, exactly as
benchmark ids address trace sources (:mod:`repro.traces`)::

    spec      :=  preset [ "@" window ] [ "?" overrides ]
    overrides :=  key "=" value { "," key "=" value }
    key       :=  field | section "." field

Examples::

    conventional                     the associative-SQ baseline
    nosq@256                         NoSQ on the 256-entry window machine
    nosq?rob_size=256                one dotted-path override
    nosq?backend.rob_size=256        same (window resources answer to
                                     the ``backend.`` namespace too)
    nosq?bypass.history_bits=10,hierarchy.l1_size=32768

Sections are the nested config dataclasses — ``backend``
(:class:`BackendConfig`), ``bypass_predictor``
(:class:`BypassPredictorConfig`, alias ``bypass``) and ``hierarchy``
(:class:`HierarchyConfig`, alias ``memory``).  Values are coerced to the
field's declared type (``none`` for optional fields, ``true``/``false``
for booleans, enums by value); unknown presets and keys fail with a
did-you-mean suggestion.

The presets, their historical aliases and the config sets are the fixed
tables :data:`PRESETS`, :data:`ALIASES` and :data:`SETS`.  The presets
build configs *identical* to the ``MachineConfig.conventional()``/
``nosq()`` factories — same fields, same ``name`` — so campaign cache
keys do not depend on the spelling (pinned by ``tests/test_api.py``).  Override-derived configs get a
canonical name (``nosq-delay?rob_size=256``) and hash into cache keys
through their full field set like any other config.

In list contexts (``repro campaign run --configs``,
:func:`resolve_configs`) a comma separates *specs*; a fragment that looks
like a bare override (contains ``=`` but no ``?``) re-attaches to the
preceding spec, so ``nosq?a=1,b=2,conventional`` means two specs.  Name
parts may use ``*``/``[...]`` globs over preset names (``nosq*``), and
config *set* names (``standard``, ``table5``, ``figure3``, ``figure4``,
``figure5``, ``ablations``) expand to their member specs.
"""

from __future__ import annotations

import dataclasses
import enum
import fnmatch
import re
import types
import typing
from typing import Any, Callable, Iterable, Union

from repro.pipeline.config import (
    BackendConfig,
    BypassPredictorConfig,
    HierarchyConfig,
    MachineConfig,
    check_runnable,
)


class ConfigSpecError(ValueError):
    """A config spec failed to parse, resolve or validate."""


_SPEC_RE = re.compile(
    r"^(?P<name>[^@?]+)(?:@(?P<window>[^?]+))?(?:\?(?P<overrides>.*))?$"
)

#: Section name -> (MachineConfig field, section dataclass).
_SECTIONS: dict[str, type] = {
    "backend": BackendConfig,
    "bypass_predictor": BypassPredictorConfig,
    "hierarchy": HierarchyConfig,
}
_SECTION_ALIASES = {"bypass": "bypass_predictor", "memory": "hierarchy"}

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}
_NONE = {"none", "null"}


def _type_hints(cls: type) -> dict[str, Any]:
    hints = getattr(cls, "__repro_hints__", None)
    if hints is None:
        hints = typing.get_type_hints(cls)
        cls.__repro_hints__ = hints
    return hints


def _suggest(word: str, candidates: Iterable[str]) -> str:
    # Imported here: only a spec that fails to resolve needs it.
    import difflib

    guess = difflib.get_close_matches(word, list(candidates), n=1)
    return f"; did you mean {guess[0]!r}?" if guess else ""


def _coerce(key: str, raw: str, hint: Any) -> Any:
    """Coerce the raw override token to the field's declared type."""
    origin = typing.get_origin(hint)
    if origin is Union or origin is types.UnionType:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) != len(typing.get_args(hint)):  # Optional[...]
            if raw.strip().lower() in _NONE:
                return None
            hint = args[0] if len(args) == 1 else args
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        token = raw.strip().lower()
        for member in hint:
            if member.value == token:
                return member
        values = [m.value for m in hint]
        raise ConfigSpecError(
            f"{key}: {raw!r} is not one of {values}{_suggest(token, values)}"
        )
    if hint is bool:
        token = raw.strip().lower()
        if token in _TRUE:
            return True
        if token in _FALSE:
            return False
        raise ConfigSpecError(
            f"{key}: expected a boolean (true/false), got {raw!r}"
        )
    if hint is int:
        try:
            return int(raw.strip(), 0)
        except ValueError:
            raise ConfigSpecError(
                f"{key}: expected an integer, got {raw!r}"
            ) from None
    if hint is float:
        try:
            return float(raw.strip())
        except ValueError:
            raise ConfigSpecError(
                f"{key}: expected a number, got {raw!r}"
            ) from None
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        raise ConfigSpecError(
            f"{key}: is a config section; set one of its fields instead "
            f"(e.g. {key}.{dataclasses.fields(hint)[0].name}=...)"
        )
    raise ConfigSpecError(f"{key}: cannot coerce {raw!r} to {hint}")


def _render(value: Any) -> str:
    """Canonical token for a coerced override value (for config names)."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


def _resolve_key(key: str) -> tuple[str | None, str]:
    """Resolve a (possibly aliased) dotted key to its storage location.

    Returns ``(section_field, field)`` where ``section_field`` is ``None``
    for top-level :class:`MachineConfig` fields.
    """
    top_fields = _type_hints(MachineConfig)
    parts = key.split(".")
    if len(parts) == 1:
        field = parts[0]
        if field == "name":
            raise ConfigSpecError(
                "name: derived from the spec, not overridable"
            )
        if field in _SECTIONS:
            raise ConfigSpecError(
                f"{field}: is a config section; set one of its fields "
                f"(e.g. {field}.{dataclasses.fields(_SECTIONS[field])[0].name}=...)"
            )
        if field not in top_fields:
            candidates = list(top_fields) + list(_SECTIONS) + \
                list(_SECTION_ALIASES)
            raise ConfigSpecError(
                f"unknown config key {field!r}{_suggest(field, candidates)}"
            )
        return None, field
    if len(parts) == 2:
        head, leaf = parts
        section = _SECTION_ALIASES.get(head, head)
        if section in _SECTIONS:
            section_fields = _type_hints(_SECTIONS[section])
            if leaf in section_fields:
                return section, leaf
            if section == "backend" and leaf in top_fields \
                    and leaf != "name":
                # The paper's window resources (rob_size, iq_size, ...)
                # are back-end machinery; let them answer to backend.*
                # ('name' stays non-overridable through every spelling).
                return None, leaf
            candidates = list(section_fields)
            if section == "backend":
                candidates += [f for f in top_fields if f != "name"]
            raise ConfigSpecError(
                f"unknown key {leaf!r} in section {head!r}"
                f"{_suggest(leaf, candidates)}"
            )
        raise ConfigSpecError(
            f"unknown config section {head!r}"
            f"{_suggest(head, list(_SECTIONS) + list(_SECTION_ALIASES))}"
        )
    raise ConfigSpecError(
        f"config keys nest at most one level (field or section.field), "
        f"got {key!r}"
    )


def parse_overrides(text: str) -> dict[str, Any]:
    """Parse ``k=v,k=v`` into ``{canonical_key: coerced_value}``."""
    overrides: dict[str, Any] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigSpecError(
                f"override {item!r}: expected key=value"
            )
        key, raw = item.split("=", 1)
        key = key.strip()
        section, field = _resolve_key(key)
        cls = _SECTIONS[section] if section else MachineConfig
        value = _coerce(key, raw, _type_hints(cls)[field])
        canonical = f"{section}.{field}" if section else field
        if canonical in overrides:
            raise ConfigSpecError(f"duplicate override for {canonical!r}")
        overrides[canonical] = value
    if not overrides:
        raise ConfigSpecError("empty override list after '?'")
    return overrides


def apply_overrides(
    config: MachineConfig, overrides: dict[str, Any]
) -> MachineConfig:
    """Apply parsed *overrides* and derive a canonical config name."""
    top: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for canonical, value in overrides.items():
        if "." in canonical:
            section, field = canonical.split(".", 1)
            nested.setdefault(section, {})[field] = value
        else:
            top[canonical] = value
    for section, changes in nested.items():
        top[section] = dataclasses.replace(
            getattr(config, section), **changes
        )
    suffix = ",".join(
        f"{key}={_render(value)}" for key, value in sorted(overrides.items())
    )
    return dataclasses.replace(
        config, name=f"{config.name}?{suffix}", **top
    )


# --------------------------------------------------------------------- #
# The paper's presets and config sets.
# --------------------------------------------------------------------- #

#: Preset name -> (``factory(window) -> MachineConfig``, description).
PRESETS: dict[str, tuple[Callable[[int], MachineConfig], str]] = {
    "conventional": (
        lambda window: MachineConfig.conventional(window=window),
        "associative SQ + StoreSets scheduling (Figure 2 bar 1)",
    ),
    "conventional-perfect": (
        lambda window: MachineConfig.conventional(
            window=window, perfect_scheduling=True
        ),
        "associative SQ + perfect scheduling (the normalization baseline)",
    ),
    "conventional-smb": (
        lambda window: MachineConfig.conventional_smb(window=window),
        "associative SQ + opportunistic SMB (Table 1 background)",
    ),
    "nosq": (
        lambda window: MachineConfig.nosq(window=window),
        "NoSQ with delay (Figure 2 bar 3, the paper's design)",
    ),
    "nosq-nodelay": (
        lambda window: MachineConfig.nosq(window=window, delay=False),
        "NoSQ without delay (Figure 2 bar 2)",
    ),
    "nosq-perfect": (
        lambda window: MachineConfig.nosq(window=window, perfect=True),
        "idealized NoSQ: perfect bypassing prediction (Figure 2 bar 4)",
    ),
}

#: Historical config names -> the preset they answer as.
ALIASES = {
    "sq-storesets": "conventional",
    "sq-perfect": "conventional-perfect",
    "sq-smb": "conventional-smb",
    "nosq-delay": "nosq",
}

#: The five-configuration sweep behind Table 5 and Figures 2 and 4 (and,
#: at ``@256``, Figure 3).
STANDARD = (
    "conventional-perfect", "conventional", "nosq-nodelay", "nosq",
    "nosq-perfect",
)
#: Figure 5 (top): 512/1K/2K/4K/unbounded total bypassing-predictor
#: entries (two tables) at 8 history bits.
FIGURE5_CAPACITY = tuple(
    f"nosq?bypass.{size},bypass.history_bits=8" for size in (
        "entries_per_table=256", "entries_per_table=512",
        "entries_per_table=1024", "entries_per_table=2048", "unbounded=true",
    )
)
#: Figure 5 (bottom): 4-12 history bits at 2K entries, then unbounded.
FIGURE5_HISTORY = tuple(
    f"nosq?bypass.{size},bypass.history_bits={bits}"
    for size in ("entries_per_table=1024", "unbounded=true")
    for bits in (4, 6, 8, 10, 12)
)
#: The ablation studies' NoSQ variants, one tuple per study (rendered,
#: with their column labels, by :mod:`repro.harness.sections`).
ABLATIONS = {
    "load_queue": ("nosq?lq_size=48", "nosq"),
    "tssbf": tuple(f"nosq?tssbf_entries={n}" for n in (32, 64, 128, 256)),
    "confidence": tuple(f"nosq?bypass.conf_dec={d}" for d in (16, 64, 127)),
    "svw": ("nosq", "nosq?svw_enabled=false"),
    "hybrid": ("nosq", "nosq?bypass.history_bits=0"),
}

#: Config set name -> (member specs, description).
SETS: dict[str, tuple[tuple[str, ...], str]] = {
    "standard": (
        STANDARD, "the sweep behind Table 5 and Figures 2 and 4",
    ),
    "table5": (
        ("nosq-nodelay", "nosq"), "the two NoSQ variants Table 5 measures",
    ),
    "figure3": (
        tuple(f"{spec}@256" for spec in STANDARD),
        "the standard sweep on the 256-entry window (Figure 3)",
    ),
    "figure4": (
        ("conventional", "nosq"),
        "baseline vs NoSQ-with-delay (Figure 4 cache bandwidth)",
    ),
    "figure5": (
        tuple(dict.fromkeys(
            ("conventional-perfect", *FIGURE5_CAPACITY, *FIGURE5_HISTORY)
        )),
        "the baseline plus the bypassing-predictor capacity and history "
        "sweeps (Figure 5)",
    ),
    "ablations": (
        tuple(dict.fromkeys(
            spec for study in ABLATIONS.values() for spec in study
        )),
        "the NoSQ variants of the load-queue, T-SSBF, confidence, SVW and "
        "hybrid-predictor ablations",
    ),
}


# --------------------------------------------------------------------- #
# Resolution
# --------------------------------------------------------------------- #

def resolve_config(
    spec: str | MachineConfig, window: int = 128
) -> MachineConfig:
    """Resolve one config spec to a :class:`MachineConfig` (a config
    passes through).  An explicit ``@N`` in the spec wins over *window*.
    Every config returned passes
    :func:`~repro.pipeline.config.check_runnable`.
    """
    config = spec if isinstance(spec, MachineConfig) else _build(spec, window)
    try:
        check_runnable(config)
    except ValueError as exc:
        raise ConfigSpecError(str(exc)) from None
    return config


def _build(spec: str, window: int) -> MachineConfig:
    """The config a spec string names."""
    match = _SPEC_RE.match(spec.strip())
    if not match or not match.group("name").strip():
        raise ConfigSpecError(
            f"malformed config spec {spec!r} "
            "(expected preset[@window][?key=value,...])"
        )
    name = match.group("name").strip()
    if match.group("window") is not None:
        try:
            window = int(match.group("window"))
        except ValueError:
            raise ConfigSpecError(
                f"{spec!r}: window must be an integer, "
                f"got {match.group('window')!r}"
            ) from None
    if name in SETS:
        raise ConfigSpecError(
            f"{name!r} is a config *set* "
            f"({', '.join(SETS[name][0])}); set names expand in "
            "list contexts — resolve_configs() or --configs — "
            f"where {name!r} or '{name}@256' work"
        )
    preset = ALIASES.get(name, name)
    if preset not in PRESETS:
        raise ConfigSpecError(
            f"unknown config preset {name!r} "
            f"(known: {', '.join(sorted(PRESETS))})"
            f"{_suggest(name, [*PRESETS, *ALIASES, *SETS])}"
        )
    try:
        config = PRESETS[preset][0](window)
    except ValueError as exc:
        raise ConfigSpecError(f"{preset}@{window}: {exc}") from None
    if match.group("overrides") is not None:
        config = apply_overrides(
            config, parse_overrides(match.group("overrides"))
        )
    return config


def resolve_configs(
    specs: str | Iterable[str | MachineConfig], window: int = 128
) -> list[MachineConfig]:
    """Resolve a spec list: set names, globs and plain specs.

    A string is first split on commas (bare-override fragments
    re-attach to the spec before them, see :func:`split_spec_list`).
    """
    if isinstance(specs, str):
        items: list[str | MachineConfig] = split_spec_list(specs)
    else:
        items = []
        for spec in specs:
            if isinstance(spec, str):
                items.extend(split_spec_list(spec))
            else:
                items.append(spec)
    configs: list[MachineConfig] = []
    for item in items:
        if isinstance(item, MachineConfig):
            configs.append(resolve_config(item))
            continue
        item = item.strip()
        match = _SPEC_RE.match(item)
        name = match.group("name").strip() if match else item
        suffix = item[len(match.group("name")):] if match else ""
        if name in SETS:
            # Set names expand with the suffix applied to every
            # member: 'standard@256', 'table5?rob_size=96'.
            for member in SETS[name][0]:
                if suffix and ("@" in member or "?" in member):
                    raise ConfigSpecError(
                        f"{item!r}: set member {member!r} already "
                        "carries a window/override suffix"
                    )
                configs.append(resolve_config(member + suffix, window))
            continue
        if match and any(ch in name for ch in "*["):
            hits = sorted(
                preset for preset in PRESETS
                if fnmatch.fnmatchcase(preset, name)
            )
            if not hits:
                raise ConfigSpecError(
                    f"config glob {name!r} matches no preset "
                    f"(known: {', '.join(sorted(PRESETS))})"
                )
            configs.extend(
                resolve_config(hit + suffix, window) for hit in hits
            )
            continue
        configs.append(resolve_config(item, window))
    if not configs:
        raise ConfigSpecError(f"empty config spec list: {specs!r}")
    # Overlapping globs/sets/aliases legitimately resolve the same
    # machine more than once (nosq* + standard); keep the first of
    # each name.  Same-named but *different* configs are a conflict,
    # not a duplicate.
    unique: dict[str, MachineConfig] = {}
    for config in configs:
        existing = unique.get(config.name)
        if existing is None:
            unique[config.name] = config
        elif existing != config:
            raise ConfigSpecError(
                f"specs resolve to conflicting configs both named "
                f"{config.name!r}"
            )
    return list(unique.values())


def split_spec_list(text: str) -> list[str]:
    """Split a comma-separated spec list, keeping overrides attached.

    A fragment containing ``=`` but no ``?`` cannot start a new spec, so
    it belongs to the previous spec's override list — opening it if the
    previous spec has none yet::

        nosq?a=1,b=2,conventional  ->  ['nosq?a=1,b=2', 'conventional']
        nosq@256,rob_size=96       ->  ['nosq@256?rob_size=96']
    """
    specs: list[str] = []
    for fragment in text.split(","):
        if specs and "=" in fragment and "?" not in fragment:
            specs[-1] += ("," if "?" in specs[-1] else "?") + fragment
        elif fragment.strip():
            specs.append(fragment.strip())
    return specs


def standard_configs(window: int = 128) -> list[MachineConfig]:
    """The four configurations of Figures 2 and 3, plus the normalization
    baseline (associative SQ + perfect scheduling)."""
    return resolve_configs("standard", window)
