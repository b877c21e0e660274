"""Flat key = value run configuration with file loading and CLI overrides.

Unknown keys are rejected. The fully resolved configuration is echoed into
every output's metadata block so reruns are reproducible byte for byte.
"""

from __future__ import annotations

from .rates import PnsKind, PnsModel, Protocol, ProtocolParams, RateMode
from .simulation import OpticsConfig
from .optimize import OptimizationSpec
from .attacks import AttackConfig, AttackKind
from .experiment import ExperimentConfig

__all__ = ["ConfigError", "RunConfig", "EXPERIMENT_PRESET"]


class ConfigError(ValueError):
    pass


def _member(kind, what: str, name: str):
    """The member of the enum `kind` whose value is name."""
    try:
        return kind(name)
    except ValueError:
        raise ConfigError(f"unknown {what} {name!r} "
                          f"(use {'|'.join(m.value for m in kind)})") from None


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# key -> (default, parser)
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
    "protocol": ("cow", str),
    "protocols": ("cow,bb84-decoy,bb84", str),
    "pns_model": ("printed", str),
    "pns_clamp": (True, _bool),
    "rate_mode": ("linearized", str),
    "n_symbols": (100000, int),
    "seed": (12345, int),
    "attack": ("none", str),
    "p_ir": (0.0, float),
    "tolerance_sigmas": (3.0, float),
    "mu_min": (1e-4, float),
    "mu_max": (1.0, float),
    "grid_points": (2000, int),
    "refine_tolerance": (1e-6, float),
    "loss_grid": ("0,5,10,15,20,25,30,35,40,45,50", str),
    "visibilities": ("1.0,0.9,0.8", str),
    "n_frames": (600000, int),
    "frame_period_ns": (1e9 / 600e3, float),
    "frame_pattern": ("D010", str),
    "experiment_visibility": ("raw", str),
}

# proof-of-principle bundle: 434 MHz pulse clock, 600 kHz sequence clock,
# repeating D010 frame, per-slot dark probability 2.5e-5/ns * 1.7 ns window.
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
}

EXPERIMENT_VISIBILITIES = {"raw": 0.92, "net": 0.98}


class RunConfig:
    """Typed view over the flat key space."""

    def __init__(self):
        self.values = {k: d for k, (d, _) in DEFAULTS.items()}
        self.explicit: set[str] = set()

    @classmethod
    def from_sources(cls, path: str | None = None,
                     overrides: list[str] | None = None,
                     preset: dict | None = None) -> "RunConfig":
        """Resolve defaults, then the preset, then the file, then each
        key=value override in order; later sources win."""
        cfg = cls()
        for key, value in (preset or {}).items():
            cfg.set(key, value, raw=False, explicit=False)
        if path:
            cfg.load_file(path)
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, _, val = item.partition("=")
            cfg.set(key.strip(), val.strip())
        return cfg

    def set(self, key: str, value, raw: bool = True, explicit: bool = True):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        parser = DEFAULTS[key][1]
        try:
            self.values[key] = parser(value) if raw else value
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
        if explicit:
            self.explicit.add(key)

    def load_file(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = text.partition("=")
                self.set(key.strip(), val.strip())

    def __getitem__(self, key: str):
        return self.values[key]

    # ---- typed accessors -------------------------------------------------

    def params(self) -> ProtocolParams:
        return ProtocolParams(
            mu=self["mu"], loss_db=self["loss_db"], f=self["f"],
            t_b=self["t_b"], eta=self["eta"], p_d=self["p_d"], v=self["v"],
            pulse_period_ns=self["pulse_period_ns"])

    def optics(self) -> OpticsConfig:
        return OpticsConfig(
            params=self.params(), insertion_loss=self["insertion_loss"],
            gate_ns=self["gate_ns"], deadtime_ns=self["deadtime_ns"],
            background=self["background"])

    def protocol(self) -> Protocol:
        return _member(Protocol, "protocol", self["protocol"])

    def protocol_list(self) -> list[Protocol]:
        return [_member(Protocol, "protocol", p.strip())
                for p in self["protocols"].split(",") if p.strip()]

    def pns_model(self) -> PnsModel:
        return PnsModel(kind=_member(PnsKind, "pns model", self["pns_model"]),
                        clamp=self["pns_clamp"])

    def rate_mode(self) -> RateMode:
        return _member(RateMode, "rate mode", self["rate_mode"])

    def attack_config(self) -> AttackConfig:
        return AttackConfig(kind=_member(AttackKind, "attack", self["attack"]),
                            p_ir=self["p_ir"])

    def optimization_spec(self) -> OptimizationSpec:
        return OptimizationSpec(
            mu_min=self["mu_min"], mu_max=self["mu_max"],
            grid_points=self["grid_points"],
            refine_tolerance=self["refine_tolerance"])

    def float_list(self, key: str) -> list[float]:
        items = [x.strip() for x in self[key].split(",") if x.strip()]
        try:
            return [float(x) for x in items]
        except ValueError as exc:
            raise ConfigError(f"bad value in {key}: {exc}") from exc

    def resolve_experiment_visibility(self):
        """Map the raw/net preset selector onto v unless v was set explicitly."""
        name = self["experiment_visibility"]
        if name not in EXPERIMENT_VISIBILITIES:
            raise ConfigError("experiment_visibility must be raw or net")
        if "v" not in self.explicit:
            self.set("v", EXPERIMENT_VISIBILITIES[name], raw=False, explicit=False)

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            params=self.params(), insertion_loss=self["insertion_loss"],
            gate_ns=self["gate_ns"], deadtime_ns=self["deadtime_ns"],
            frame_period_ns=self["frame_period_ns"],
            n_frames=self["n_frames"], pattern=self["frame_pattern"],
            background=self["background"])

    def metadata_lines(self) -> list[str]:
        lines = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, float):
                text = repr(val)
            else:
                text = str(val)
            lines.append(f"# {key} = {text}")
        return lines
