"""Pipeline configuration: one JSON file, validated at load time.

Environment overrides exist only for the worker count (``SEISGOF_WORKERS``)
and the output directory (``SEISGOF_OUTPUT_DIR``). Both are runtime-only
settings: they decide how and where a run is written, not its output bytes,
so the manifest's config echo leaves them out (criterion 8).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gof_anderson import AndersonConfig, BandSpec, default_bands
from .gof_tf import TfConfig
from .imeasures import default_periods

ENV_WORKERS = "SEISGOF_WORKERS"
ENV_OUTPUT_DIR = "SEISGOF_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    scenario_path: Path | None = None
    reference_path: Path | None = None
    output_dir: Path = Path("out")
    workers: int = 1
    grid_deltas: tuple[float, float, float] = (5.0, 5.0, 10.0)
    alpha: float = 0.05
    anderson: AndersonConfig = field(default_factory=AndersonConfig)
    tf: TfConfig = field(default_factory=TfConfig)
    base_dir: Path = Path(".")


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def _number(value, name: str, cast=float):
    # A value of the wrong type is a ConfigError that names its key.
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _object(raw: dict, key: str) -> dict:
    value = raw[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def load_config(path) -> PipelineConfig:
    """Parse and validate a config JSON file; apply environment overrides."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    base = path.parent
    cfg = PipelineConfig(base_dir=base)

    for key, attr in (("scenario", "scenario_path"),
                      ("reference", "reference_path")):
        if key in raw:
            p = _resolve(base, str(raw[key]))
            if not p.exists():
                raise ConfigError(f"{key} file not found: {p}")
            setattr(cfg, attr, p)

    if "output_dir" in raw:
        cfg.output_dir = _resolve(base, str(raw["output_dir"]))
    if "workers" in raw:
        cfg.workers = _number(raw["workers"], "workers", int)
    if "alpha" in raw:
        cfg.alpha = _number(raw["alpha"], "alpha")
        if not 0.0 < cfg.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {cfg.alpha}")

    if "grid" in raw:
        g = _object(raw, "grid")
        cfg.grid_deltas = tuple(
            _number(g.get(key, default), f"grid.{key}")
            for key, default in (("strike_delta", 5.0), ("dip_delta", 5.0),
                                 ("rake_delta", 10.0)))
        if any(d < 0 for d in cfg.grid_deltas):
            raise ConfigError("grid deltas must be non-negative")

    anderson = AndersonConfig()
    if "bands" in raw:
        try:
            anderson.bands = BandSpec(tuple((float(lo), float(hi))
                                            for lo, hi in raw["bands"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid bands: {exc}") from exc
    else:
        anderson.bands = default_bands()
    if "damping" in raw:
        anderson.damping = _number(raw["damping"], "damping")
        if not 0.0 < anderson.damping < 1.0:
            raise ConfigError("damping must be in (0, 1)")
    if "duration_thresholds" in raw:
        pair = raw["duration_thresholds"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError("duration_thresholds must be a list [lo, hi]")
        lo, hi = (_number(v, "duration_thresholds") for v in pair)
        if not 0.0 <= lo < hi <= 1.0:
            raise ConfigError("duration thresholds must satisfy 0 <= lo < hi <= 1")
        anderson.duration_lo, anderson.duration_hi = lo, hi
    if "max_lag" in raw:
        anderson.max_lag = _number(raw["max_lag"], "max_lag")
        if anderson.max_lag < 0:
            raise ConfigError("max_lag must be non-negative")
    if "periods" in raw:
        p = _object(raw, "periods")
        t_min = _number(p.get("min", 0.02), "periods.min")
        t_max = _number(p.get("max", 10.0), "periods.max")
        count = _number(p.get("count", 50), "periods.count", int)
        if not 0 < t_min < t_max or count < 1:
            raise ConfigError("periods must satisfy 0 < min < max, count >= 1")
        anderson.periods = default_periods(count, t_min, t_max)
    cfg.anderson = anderson

    tf = TfConfig()
    if "tf" in raw:
        t = _object(raw, "tf")
        for key, attr, cast in (
                ("fmin", "f_min", float), ("fmax", "f_max", float),
                ("nfreq", "n_freqs", int), ("omega0", "wavelet_omega0", float),
                ("amplitude", "amplitude", float), ("decay", "decay", float)):
            if key in t:
                setattr(tf, attr, _number(t[key], f"tf.{key}", cast))
        if not 0 < tf.f_min < tf.f_max or tf.n_freqs < 2:
            raise ConfigError("tf grid must satisfy 0 < fmin < fmax, nfreq >= 2")
        if tf.amplitude <= 0 or tf.decay <= 0:
            raise ConfigError("tf amplitude and decay must be positive")
    cfg.tf = tf

    if ENV_WORKERS in os.environ:
        cfg.workers = _number(os.environ[ENV_WORKERS], ENV_WORKERS, int)
    if ENV_OUTPUT_DIR in os.environ:
        cfg.output_dir = Path(os.environ[ENV_OUTPUT_DIR])
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    return cfg


def config_echo(cfg: PipelineConfig) -> dict:
    """JSON-ready snapshot of the settings that decide the output bytes.

    Runtime-only settings (the worker count and the output location) are
    left out, so that the trees of one sweep written with different worker
    counts or to different directories are byte-identical (criterion 8).
    Input paths are echoed as written in the config file, relative to its
    directory, so the echo does not depend on where the inputs sit.
    """
    return {
        "scenario": _as_written(cfg.scenario_path, cfg.base_dir),
        "reference": _as_written(cfg.reference_path, cfg.base_dir),
        "grid_deltas": list(cfg.grid_deltas),
        "alpha": cfg.alpha,
        "bands": [list(b) for b in cfg.anderson.bands.edges],
        "damping": cfg.anderson.damping,
        "duration_thresholds": [cfg.anderson.duration_lo,
                                cfg.anderson.duration_hi],
        "max_lag": cfg.anderson.max_lag,
        "periods": {"min": float(np.min(cfg.anderson.periods)),
                    "max": float(np.max(cfg.anderson.periods)),
                    "count": int(np.size(cfg.anderson.periods))},
        "tf": {"fmin": cfg.tf.f_min, "fmax": cfg.tf.f_max,
               "nfreq": cfg.tf.n_freqs, "omega0": cfg.tf.wavelet_omega0,
               "amplitude": cfg.tf.amplitude, "decay": cfg.tf.decay},
    }


def _as_written(path: Path | None, base: Path) -> str | None:
    # Undo _resolve: a relative config entry was joined onto base.
    if path is None:
        return None
    try:
        return str(path.relative_to(base))
    except ValueError:
        return str(path)
