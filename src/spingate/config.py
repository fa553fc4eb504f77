"""INI-style run configuration.

Four sections feed the toolkit:

    [model]                          [train]
    spin0 = 1.0, 12.0, NV ms0        rep_rate = 20e6
    spin1 = 1.0, 8.0, NV ms1         reference_rate = 40e6
    background = 20.8, 1.7, SiV      power_mode = constant-pulse-energy
    dark_rate = 0.0
    irf_sigma = 0.0                  [sweep]
    pulse_time = 0.0                 integration_time = 10
    c_sat = 0.15                     mw_duty = 0.5
                                     tau_c_step = 0.1
    [io]                             tau_c_max = 35
    seed = 7                         linewidth = 1e7
    out = sweep.csv                  rate_grid = 1e7, 2e7, 4e7

Component keys (spin0/spin1/background) repeat, one `amplitude, lifetime
[, label]` triple per line. Instead of explicit background components,
`background_ratio`, `background_ratio_mode` (amplitude|integrated) and
`background_lifetime` derive the amplitude from a background:signal ratio.
`period_grid = start:stop:step` (ns) is the reciprocal alternative to
rate_grid. Unknown sections or keys are rejected with their line number, as
is any value that violates a model invariant: a config either parses into
valid domain objects or fails loudly.
"""

from __future__ import annotations

import numpy as np

from .decay import DecayComponent, FluorescenceModel, PulseTrain
from .errors import ConfigError
from .presets import background_amplitude
from .record import Record
from .sweep import POWER_MODES, SweepConfig

_COMPONENT_KEYS = ("spin0", "spin1", "background")

_SECTION_KEYS = {
    "model": set(_COMPONENT_KEYS)
    | {
        "background_ratio",
        "background_ratio_mode",
        "background_lifetime",
        "dark_rate",
        "irf_sigma",
        "pulse_time",
        "c_sat",
    },
    "train": {"rep_rate", "reference_rate", "power_mode"},
    "sweep": {
        "integration_time",
        "mw_duty",
        "tau_c_step",
        "tau_c_max",
        "linewidth",
        "rate_grid",
        "period_grid",
    },
    "io": {"seed", "out"},
}


class RunConfig(Record):
    """Parsed and validated configuration."""

    model: FluorescenceModel
    train: PulseTrain
    sweep: SweepConfig
    seed: int | None = None
    out: str | None = None

    @property
    def c_sat(self) -> float:
        return self.sweep.c_sat


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def parse_config(text: str) -> RunConfig:
    entries = _tokenize(text)
    model = _build_model(entries)
    train = _build_train(entries)
    sweep = _build_sweep(entries, model, train)
    seed = _get_scalar(entries, "io", "seed", _parse_int, default=None)
    out = _get_scalar(entries, "io", "out", str, default=None)
    _reject_unused(entries)
    return RunConfig(model=model, train=train, sweep=sweep, seed=seed, out=out)


class _Entry:
    __slots__ = ("value", "line", "used")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line
        self.used = False


def _tokenize(text: str) -> dict[str, list[_Entry]]:
    """Flatten to {"section.key": [entries]}, rejecting unknown names."""
    entries: dict[str, list[_Entry]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", line=lineno)
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ConfigError(
                    f"unknown section [{section}], expected one of "
                    f"{sorted(_SECTION_KEYS)}",
                    line=lineno,
                )
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in [{section}]", line=lineno)
        if key not in _COMPONENT_KEYS and f"{section}.{key}" in entries:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", line=lineno)
        entries.setdefault(f"{section}.{key}", []).append(_Entry(value, lineno))
    return entries


def _get_scalar(entries, section, key, convert, default=None, required=False):
    slot = entries.get(f"{section}.{key}")
    if slot is None:
        if required:
            raise ConfigError(f"missing required key '{key}' in [{section}]")
        return default
    entry = slot[0]
    entry.used = True
    try:
        return convert(entry.value)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {exc}", line=entry.line) from exc


def _parse_float(text: str) -> float:
    return float(text)


def _parse_int(text: str) -> int:
    value = int(text, 0)
    if value < 0:
        raise ValueError("seed must be non-negative")
    return value


def _parse_components(entries, section, key) -> tuple[DecayComponent, ...]:
    comps = []
    for entry in entries.get(f"{section}.{key}", []):
        entry.used = True
        parts = entry.value.split(",", 2)
        if len(parts) < 2:
            raise ConfigError(
                f"component needs 'amplitude, lifetime[, label]', got {entry.value!r}",
                line=entry.line,
            )
        try:
            amplitude = float(parts[0])
            lifetime = float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad component numbers: {exc}", line=entry.line) from exc
        label = parts[2].strip() if len(parts) == 3 else ""
        try:
            comps.append(DecayComponent(amplitude, lifetime, label))
        except ValueError as exc:
            raise ConfigError(str(exc), line=entry.line) from exc
    return tuple(comps)


def _build_model(entries) -> FluorescenceModel:
    spin0 = _parse_components(entries, "model", "spin0")
    spin1 = _parse_components(entries, "model", "spin1")
    if not spin0 or not spin1:
        raise ConfigError("[model] requires at least one spin0 and one spin1 component")
    background = _parse_components(entries, "model", "background")

    ratio = _get_scalar(entries, "model", "background_ratio", _parse_float)
    if ratio is not None:
        if background:
            raise ConfigError(
                "give either explicit background components or background_ratio, not both"
            )
        mode = _get_scalar(entries, "model", "background_ratio_mode", str, default="amplitude")
        lifetime = _get_scalar(
            entries, "model", "background_lifetime", _parse_float, required=True
        )
        rep_rate = _get_scalar(entries, "train", "rep_rate", _parse_float, required=True)
        try:
            amp = background_amplitude(
                ratio, lifetime, spin0, PulseTrain(rep_rate).period, mode
            )
            background = (DecayComponent(amp, lifetime, "background"),)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    dark = _get_scalar(entries, "model", "dark_rate", _parse_float, default=0.0)
    sigma = _get_scalar(entries, "model", "irf_sigma", _parse_float, default=0.0)
    pulse_time = _get_scalar(entries, "model", "pulse_time", _parse_float, default=0.0)
    try:
        return FluorescenceModel(
            spin0=spin0,
            spin1=spin1,
            background=background,
            dark_rate=dark,
            irf_sigma=sigma,
            pulse_time=pulse_time,
        )
    except ValueError as exc:
        raise ConfigError(f"[model] invalid: {exc}") from exc


def _build_train(entries) -> PulseTrain:
    rep_rate = _get_scalar(entries, "train", "rep_rate", _parse_float, required=True)
    try:
        return PulseTrain(rep_rate)
    except ValueError as exc:
        raise ConfigError(f"[train] invalid: {exc}") from exc


def _parse_grid(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("empty grid")
    return values


def _parse_period_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("period_grid must be 'start:stop:step' in ns")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start or start <= 0:
        raise ValueError("period_grid needs 0 < start <= stop and step > 0")
    periods = np.arange(start, stop + 0.5 * step, step)
    return tuple(1e9 / p for p in periods)


def _build_sweep(entries, model: FluorescenceModel, train: PulseTrain) -> SweepConfig:
    rate_grid = _get_scalar(entries, "sweep", "rate_grid", _parse_grid)
    period_grid = _get_scalar(entries, "sweep", "period_grid", _parse_period_grid)
    if rate_grid is not None and period_grid is not None:
        raise ConfigError("give either rate_grid or period_grid, not both")
    kwargs = dict(
        integration_time=_get_scalar(
            entries, "sweep", "integration_time", _parse_float, default=1.0
        ),
        mw_duty=_get_scalar(entries, "sweep", "mw_duty", _parse_float, default=0.5),
        tau_c_resolution=_get_scalar(
            entries, "sweep", "tau_c_step", _parse_float, default=0.1
        ),
        tau_c_max=_get_scalar(entries, "sweep", "tau_c_max", _parse_float),
        rate_grid=rate_grid if rate_grid is not None else period_grid,
        linewidth=_get_scalar(entries, "sweep", "linewidth", _parse_float),
        c_sat=_get_scalar(entries, "model", "c_sat", _parse_float, default=0.15),
        power_mode=_get_scalar(
            entries, "train", "power_mode", str, default="constant-pulse-energy"
        ),
        reference_rate=_get_scalar(
            entries, "train", "reference_rate", _parse_float, default=40e6
        ),
    )
    if kwargs["power_mode"] not in POWER_MODES:
        raise ConfigError(
            f"[train] power_mode must be one of {POWER_MODES}, got {kwargs['power_mode']!r}"
        )
    try:
        return SweepConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[sweep] invalid: {exc}") from exc


def _reject_unused(entries) -> None:
    for name, slots in entries.items():
        for entry in slots:
            if not entry.used:
                section, key = name.split(".", 1)
                raise ConfigError(
                    f"key '{key}' in [{section}] has no effect without its companion keys",
                    line=entry.line,
                )
