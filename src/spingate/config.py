"""INI-style run configuration.

Three sections describe the model a command computes from:

    [model]                          [train]
    spin0 = 1.0, 12.0, NV ms0        rep_rate = 20e6
    spin1 = 1.0, 8.0, NV ms1         reference_rate = 40e6
    background = 20.8, 1.7, SiV      power_mode = constant-pulse-energy
    dark_rate = 0.0
    irf_sigma = 0.0                  [sweep]
    pulse_time = 0.0                 integration_time = 10
    c_sat = 0.15                     mw_duty = 0.5
                                     tau_c_step = 0.1
                                     tau_c_max = 35
                                     linewidth = 1e7
                                     rate_grid = 1e7, 2e7, 4e7

Component keys (spin0/spin1/background) repeat, one `amplitude, lifetime
[, label]` triple per line. Instead of explicit background components,
`background_ratio`, `background_ratio_mode` (amplitude|integrated) and
`background_lifetime` derive the amplitude from a background:signal ratio.
`period_grid = start:stop:step` (ns) is the reciprocal alternative to
rate_grid. A line starting with `#` or `;` is a comment; a value holds no
comment. The seed and the output path are not config values: they come
only from the command line's --seed and --out.

A key the file omits takes the default of the record field it sets (see
`_KEYS`), and every number must be finite. Each value is converted on its
line, so an unknown section or key, or a value that does not convert, is
rejected with the number of the first such line. The records are then built
from the keys the file gave, and a value that violates a record invariant is
rejected there: a config either parses into valid domain objects or fails
loudly.
"""

from __future__ import annotations

import math

import numpy as np

from .decay import DecayComponent, FluorescenceModel, PulseTrain
from .errors import ConfigError
from .presets import background_amplitude
from .record import Record, require_finite

POWER_MODES = ("constant-pulse-energy", "constant-mean-power")


class SweepConfig(Record):
    """The acquisition's channel rule, and the knobs of the gate and
    repetition-rate sweeps.

    The MW drive alternates the two channels, off and on, over an
    acquisition of integration_time; each channel integrates for
    channel_time. Every command takes its per-channel time from here.
    """

    integration_time: float = 1.0  # s, total acquisition time
    mw_duty: float = 0.5  # fraction of integration_time on each channel
    tau_c_resolution: float = 0.1  # ns
    tau_c_max: float | None = None  # ns; None -> 0.8 * period
    rate_grid: tuple[float, ...] | None = None  # Hz
    linewidth: float | None = None  # Hz; enables sensitivity columns
    c_sat: float = 0.15  # MW-on mixture weight
    power_mode: str = "constant-pulse-energy"
    reference_rate: float = 40e6  # Hz; amplitude anchor for constant-mean-power

    def __post_init__(self):
        if not self.integration_time > 0:
            raise ValueError("integration_time must be > 0")
        if not 0 < self.mw_duty <= 0.5:
            raise ValueError(
                f"mw_duty must be in (0, 0.5], got {self.mw_duty}: the MW-off and MW-on "
                "channels alternate, so each counts at most half of integration_time"
            )
        if not self.tau_c_resolution > 0:
            raise ValueError("tau_c_resolution must be > 0")
        if self.tau_c_max is not None and not self.tau_c_max >= 0:
            raise ValueError("tau_c_max must be >= 0")
        if not 0 <= self.c_sat < 1:
            raise ValueError("c_sat must be in [0, 1)")
        if self.power_mode not in POWER_MODES:
            raise ValueError(f"power_mode must be one of {POWER_MODES}, got {self.power_mode!r}")
        if self.linewidth is not None and not self.linewidth > 0:
            raise ValueError("linewidth must be > 0 when given")
        if not self.reference_rate > 0:
            raise ValueError("reference_rate must be > 0")
        require_finite(
            self, "integration_time", "tau_c_resolution", "tau_c_max", "linewidth",
            "reference_rate",
        )
        if self.rate_grid is not None:
            grid = tuple(float(r) for r in self.rate_grid)
            if any(r <= 0 for r in grid):
                raise ValueError("rate_grid entries must be > 0")
            if not np.isfinite(grid).all():
                raise ValueError("rate_grid entries must be finite")
            object.__setattr__(self, "rate_grid", grid)

    @property
    def channel_time(self) -> float:
        """Integration time of each MW channel, off and on, in s.

        integration_time * mw_duty: the one rule that turns the duty into a
        per-channel time, used by the sweeps and by the simulate, mc and
        hw-sim commands.
        """
        return self.integration_time * self.mw_duty


class RunConfig(Record):
    """Parsed and validated configuration."""

    model: FluorescenceModel
    train: PulseTrain
    sweep: SweepConfig


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _component(text: str) -> DecayComponent:
    parts = text.split(",", 2)
    if len(parts) < 2:
        raise ValueError(f"component needs 'amplitude, lifetime[, label]', got {text!r}")
    try:
        amplitude, lifetime = _number(parts[0]), _number(parts[1])
    except ValueError as exc:
        raise ValueError(f"bad component numbers: {exc}") from exc
    label = parts[2].strip() if len(parts) == 3 else ""
    return DecayComponent(amplitude, lifetime, label)


def _rate_grid(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty entry in {text!r}" if text else "empty grid")
    return tuple(_number(part) for part in parts)


def _period_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("period_grid must be 'start:stop:step' in ns")
    start, stop, step = (_number(p) for p in parts)
    if step <= 0 or stop < start or start <= 0:
        raise ValueError("period_grid needs 0 < start <= stop and step > 0")
    periods = np.arange(start, stop + 0.5 * step, step)
    return tuple(1e9 / p for p in periods)


# "section.key" -> (target, field, parser). The targets are the records
# FluorescenceModel ("model"), PulseTrain ("train") and SweepConfig
# ("sweep") and background_amplitude's arguments ("ratio"). A component key
# repeats and collects a tuple.
_KEYS = {
    "model.spin0": ("model", "spin0", _component),
    "model.spin1": ("model", "spin1", _component),
    "model.background": ("model", "background", _component),
    "model.background_ratio": ("ratio", "ratio", _number),
    "model.background_ratio_mode": ("ratio", "mode", str),
    "model.background_lifetime": ("ratio", "bg_lifetime", _number),
    "model.dark_rate": ("model", "dark_rate", _number),
    "model.irf_sigma": ("model", "irf_sigma", _number),
    "model.pulse_time": ("model", "pulse_time", _number),
    "model.c_sat": ("sweep", "c_sat", _number),
    "train.rep_rate": ("train", "rep_rate", _number),
    "train.reference_rate": ("sweep", "reference_rate", _number),
    "train.power_mode": ("sweep", "power_mode", str),
    "sweep.integration_time": ("sweep", "integration_time", _number),
    "sweep.mw_duty": ("sweep", "mw_duty", _number),
    "sweep.tau_c_step": ("sweep", "tau_c_resolution", _number),
    "sweep.tau_c_max": ("sweep", "tau_c_max", _number),
    "sweep.linewidth": ("sweep", "linewidth", _number),
    "sweep.rate_grid": ("sweep", "rate_grid", _rate_grid),
    "sweep.period_grid": ("sweep", "rate_grid", _period_grid),
}
_SECTIONS = {name.split(".")[0] for name in _KEYS}

# pairs of keys that exclude each other, and how the message names them
_EITHER = (
    (
        "model.background",
        "model.background_ratio",
        "explicit background components or background_ratio",
    ),
    ("sweep.rate_grid", "sweep.period_grid", "rate_grid or period_grid"),
)


def _tokenize(text: str) -> tuple[dict[str, dict], dict[str, int]]:
    """The converted values by target and field, and each key's first line."""
    given: dict[str, dict] = {target: {} for target, _, _ in _KEYS.values()}
    lines: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", line=lineno)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{section}], expected one of {sorted(_SECTIONS)}",
                    line=lineno,
                )
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        name = f"{section}.{key}"
        if name not in _KEYS:
            raise ConfigError(f"unknown key '{key}' in [{section}]", line=lineno)
        target, field, parse = _KEYS[name]
        repeats = parse is _component
        if name in lines and not repeats:
            raise ConfigError(f"duplicate key '{key}' in [{section}]", line=lineno)
        lines.setdefault(name, lineno)
        for first, second, either in _EITHER:
            if name in (first, second) and first in lines and second in lines:
                raise ConfigError(f"give either {either}, not both", line=lineno)
        try:
            value = parse(value)
        except ValueError as exc:
            message = str(exc) if repeats else f"bad value for '{key}': {exc}"
            raise ConfigError(message, line=lineno) from exc
        fields = given[target]
        fields[field] = fields.get(field, ()) + (value,) if repeats else value
    return given, lines


def _record(cls, fields: dict, target: str, lines: dict[str, int]):
    """cls(**fields) for a _KEYS target; a rejected value names the section
    and line of the key that set it, since a record's message starts with
    its field."""
    try:
        return cls(**fields)
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        given = (name for name, (t, f, _) in _KEYS.items() if (t, f) == (target, field))
        key = next((name for name in given if name in lines), None)
        section, line = (target, None) if key is None else (key.split(".")[0], lines[key])
        raise ConfigError(f"[{section}] invalid: {exc}", line=line) from exc


def parse_config(text: str) -> RunConfig:
    given, lines = _tokenize(text)
    model, ratio = given["model"], given["ratio"]
    if ratio and "ratio" not in ratio:
        # lines holds the keys in file order, so this names the first orphan
        name = next(name for name in lines if _KEYS[name][0] == "ratio")
        raise ConfigError(
            f"key '{name.split('.')[1]}' in [model] has no effect without its companion keys",
            line=lines[name],
        )
    if "spin0" not in model or "spin1" not in model:
        raise ConfigError("[model] requires at least one spin0 and one spin1 component")
    if ratio and "bg_lifetime" not in ratio:
        raise ConfigError("missing required key 'background_lifetime' in [model]")
    if "rep_rate" not in given["train"]:
        raise ConfigError("missing required key 'rep_rate' in [train]")
    train = _record(PulseTrain, given["train"], "train", lines)
    if ratio:
        try:
            amplitude = background_amplitude(spin0=model["spin0"], period=train.period, **ratio)
            model["background"] = (DecayComponent(amplitude, ratio["bg_lifetime"], "background"),)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    model = _record(FluorescenceModel, model, "model", lines)
    if not model.pulse_time < train.period:  # so only a given pulse_time fails
        raise ConfigError(
            f"[model] invalid: pulse_time {model.pulse_time:g} ns must lie within the "
            f"{train.period:g} ns period",
            line=lines["model.pulse_time"],
        )
    sweep = _record(SweepConfig, given["sweep"], "sweep", lines)
    # rep-sweep and joint-opt run a train at each grid rate
    short = [1e9 / rate for rate in sweep.rate_grid or () if not model.pulse_time < 1e9 / rate]
    if short:
        key = "sweep.period_grid" if "sweep.period_grid" in lines else "sweep.rate_grid"
        raise ConfigError(
            f"[sweep] invalid: pulse_time {model.pulse_time:g} ns must lie within every "
            f"{key[6:]} period, got {short[0]:g} ns",
            line=lines[key],
        )
    return RunConfig(model=model, train=train, sweep=sweep)
