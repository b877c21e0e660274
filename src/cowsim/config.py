"""Flat key = value run configuration with file loading and CLI overrides.

Unknown keys are rejected. The fully resolved configuration is echoed into
every output's metadata block so reruns are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import fields

from .rates import PnsModel, Protocol, RateMode
from .attacks import AttackKind
from .experiment import FRAME_PATTERNS

__all__ = ["ConfigError", "RunConfig", "EXPERIMENT_PRESET"]


class ConfigError(ValueError):
    pass


def _member(what: str, names):
    """A parser admitting only the given names; it stores the text."""
    def parse(text: str) -> str:
        if text not in names:
            raise ConfigError(f"unknown {what} {text!r} (use {'|'.join(names)})")
        return text
    return parse


def _split(text: str) -> list[str]:
    """The non-blank comma-separated items of a list key's text."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _items(parse):
    """A parser checking one or more comma-separated items; it stores the one-line text."""
    def parse_all(text: str) -> str:
        if "\n" in text or "\r" in text:
            raise ConfigError(f"a list may not hold a line break: {text!r}")
        items = _split(text)
        if not items:
            raise ValueError("a list needs at least one item")
        for item in items:
            parse(item)
        return text
    return parse_all


_PROTOCOL = _member("protocol", [p.value for p in Protocol])

# key -> (default, parser); each value is checked by its key's parser when set
DEFAULTS = {
    "mu": (0.5, float),
    "loss_db": (0.0, float),
    "f": (0.1, float),
    "t_b": (0.9, float),
    "eta": (0.1, float),
    "p_d": (1e-5, float),
    "v": (1.0, float),
    "pulse_period_ns": (1.0, float),
    "insertion_loss": (0.5, float),
    "gate_ns": (25.0, float),
    "deadtime_ns": (0.0, float),
    "background": (0.0, float),
    "protocol": ("cow", _PROTOCOL),
    "protocols": ("cow,bb84-decoy,bb84", _items(_PROTOCOL)),
    "pns_model": ("printed", _member("pns model", [m.value for m in PnsModel])),
    "rate_mode": ("linearized", _member("rate mode", [m.value for m in RateMode])),
    "n_symbols": (100000, int),
    "seed": (12345, int),
    "attack": ("none", _member("attack", [k.value for k in AttackKind])),
    "p_ir": (0.0, float),
    "tolerance_sigmas": (3.0, float),
    "mu_min": (1e-4, float),
    "mu_max": (1.0, float),
    "grid_points": (2000, int),
    "refine_tolerance": (1e-6, float),
    "loss_grid": ("0,5,10,15,20,25,30,35,40,45,50", _items(float)),
    "visibilities": ("1.0,0.9,0.8", _items(float)),
    "n_frames": (600000, int),
    "frame_period_ns": (1e9 / 600e3, float),
    "frame_pattern": ("D010", _member("frame pattern", FRAME_PATTERNS)),
}

# proof-of-principle bundle: 434 MHz pulse clock, 600 kHz sequence clock,
# repeating D010 frame, per-slot dark probability 2.5e-5/ns * 1.7 ns window,
# and the raw visibility 0.92 (the net 0.98 is --set v=0.98).
# The tap splitting ratio is not reported for the setup; 0.85 keeps a usable
# monitoring line while staying close to the t_B ~ 1 design intent.
EXPERIMENT_PRESET = {
    "mu": 0.5,
    "loss_db": 5.0,
    "eta": 0.1,
    "p_d": 2.5e-5 * 1.7,
    "t_b": 0.85,
    "pulse_period_ns": 1e9 / 434e6,
    "gate_ns": 25.0,
    "deadtime_ns": 10000.0,
    "insertion_loss": 0.5,
    "frame_period_ns": 1e9 / 600e3,
    "frame_pattern": "D010",
    "v": 0.92,
}


def _read_file(path: str) -> list[tuple[str, str]]:
    """The (key, text) pairs of a flat key = value file, in order."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = text.partition("=")
            pairs.append((key.strip(), val.strip()))
    return pairs


class RunConfig:
    """Typed view over the flat key space."""

    def __init__(self):
        self.values = {k: d for k, (d, _) in DEFAULTS.items()}

    @classmethod
    def from_sources(cls, path: str | None = None,
                     overrides: list[str] | None = None,
                     experiment: bool = False) -> "RunConfig":
        """Resolve defaults, then the experiment preset, then the file, then
        each key=value override in order; later sources win."""
        cfg = cls()
        for key, value in (EXPERIMENT_PRESET if experiment else {}).items():
            cfg.set(key, value)
        given = _read_file(path) if path else []
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, _, val = item.partition("=")
            given.append((key.strip(), val.strip()))
        for key, text in given:
            cfg.set(key, text)
        return cfg

    def set(self, key: str, text):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            self.values[key] = DEFAULTS[key][1](text)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    def __getitem__(self, key: str):
        return self.values[key]

    def build(self, cls, **given):
        """A cls whose every field is the key of the same name, unless given
        supplies it. A field with no key (KeyError) or a given name that is not
        a field (TypeError) is an error, so no field falls back to its default."""
        return cls(**{f.name: self[f.name] for f in fields(cls) if f.name not in given},
                   **given)

    def protocol(self) -> Protocol:
        return Protocol(self["protocol"])

    def protocol_list(self) -> list[Protocol]:
        return [Protocol(p) for p in _split(self["protocols"])]

    def pns_model(self) -> PnsModel:
        return PnsModel(self["pns_model"])

    def rate_mode(self) -> RateMode:
        return RateMode(self["rate_mode"])

    def float_list(self, key: str) -> list[float]:
        return [float(x) for x in _split(self[key])]

    def metadata_lines(self) -> list[str]:
        return [f"# {key} = {repr(val) if isinstance(val, float) else val}"
                for key, val in sorted(self.values.items())]
