"""Pipeline configuration: one JSON file. Each config type checks its own
fields; :func:`load_config` maps and type-checks the JSON.

Every command resolves its settings through :func:`load_config`, with or
without a config file. A setting is taken from the first of: the command's
flag, the environment, the config file, the default.

Environment overrides exist only for the worker count (``SEISGOF_WORKERS``)
and the output directory (``SEISGOF_OUTPUT_DIR``). Both are runtime-only
settings: they decide how and where a run is written, not its output bytes,
so the manifest's config echo leaves them out (criterion 8).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ensemble import DEFAULT_GRID_DELTAS
from .gof_anderson import AndersonConfig, BandSpec
from .gof_tf import TfConfig
from .imeasures import DEFAULT_PERIOD_RANGE, default_periods

ENV_WORKERS = "SEISGOF_WORKERS"
ENV_OUTPUT_DIR = "SEISGOF_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    scenario_path: Path | None = None
    reference_path: Path | None = None
    output_dir: Path = Path("out")
    workers: int = 1
    grid_deltas: tuple[float, float, float] = DEFAULT_GRID_DELTAS
    alpha: float = 0.05
    anderson: AndersonConfig = field(default_factory=AndersonConfig)
    tf: TfConfig = field(default_factory=TfConfig)
    base_dir: Path = Path(".")
    # periods.min and periods.max as read. config_echo gives them while
    # they generate anderson.periods, whose ends can differ by an ulp.
    period_range: tuple[float, float] = DEFAULT_PERIOD_RANGE

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        significance_level(self.alpha)
        if any(d < 0 for d in self.grid_deltas):
            raise ConfigError("grid deltas must be non-negative")


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p


def _number(value, name: str, cast=float):
    # A value of the wrong type, or one that is not finite (JSON's NaN and
    # Infinity), is a ConfigError that names its key.
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{name}: {number} is not finite")
    return number


def significance_level(value) -> float:
    """A config's or a sweep manifest's ``alpha``: a number in (0, 1)."""
    alpha = _number(value, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def _object(raw: dict, key: str) -> dict:
    value = raw[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


# The "tf" block: (JSON key, TfConfig field, cast), read by load_config and
# written back by config_echo.
_TF_KEYS = (("fmin", "f_min", float), ("fmax", "f_max", float),
           ("nfreq", "n_freqs", int), ("omega0", "wavelet_omega0", float),
           ("amplitude", "amplitude", float), ("decay", "decay", float))


def _built(config_type, fields: dict, prefix: str = ""):
    try:
        return config_type(**fields)
    except ValueError as exc:  # a field outside the type's own range
        raise ConfigError(f"{prefix}{exc}") from exc


def _file_fields(path: Path) -> dict:
    # The fields a config file sets, type-checked; ranges are checked by
    # the config types.
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    base = path.parent
    fields = {"base_dir": base}

    for key, attr in (("scenario", "scenario_path"),
                      ("reference", "reference_path")):
        if key in raw:
            p = _resolve(base, str(raw[key]))
            if not p.exists():
                raise ConfigError(f"{key} file not found: {p}")
            fields[attr] = p

    if "output_dir" in raw:
        fields["output_dir"] = _resolve(base, str(raw["output_dir"]))
    if "workers" in raw:
        fields["workers"] = _number(raw["workers"], "workers", int)
    if "alpha" in raw:
        fields["alpha"] = _number(raw["alpha"], "alpha")

    if "grid" in raw:
        g = _object(raw, "grid")
        fields["grid_deltas"] = tuple(
            _number(g.get(key, default), f"grid.{key}")
            for key, default in zip(("strike_delta", "dip_delta",
                                     "rake_delta"), DEFAULT_GRID_DELTAS))

    anderson = {}
    if "bands" in raw:
        try:
            anderson["bands"] = BandSpec(tuple(
                (_number(lo, f"bands[{i}]"), _number(hi, f"bands[{i}]"))
                for i, (lo, hi) in enumerate(raw["bands"])))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid bands: {exc}") from exc
    for key in ("damping", "max_lag"):
        if key in raw:
            anderson[key] = _number(raw[key], key)
    if "duration_thresholds" in raw:
        pair = raw["duration_thresholds"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError("duration_thresholds must be a list [lo, hi]")
        anderson["duration_lo"], anderson["duration_hi"] = (
            _number(v, "duration_thresholds") for v in pair)
    if "periods" in raw:
        p = _object(raw, "periods")
        t_min = _number(p.get("min", DEFAULT_PERIOD_RANGE[0]), "periods.min")
        t_max = _number(p.get("max", DEFAULT_PERIOD_RANGE[1]), "periods.max")
        count = _number(p.get("count", 50), "periods.count", int)
        if not 0 < t_min < t_max or count < 1:
            raise ConfigError("periods must satisfy 0 < min < max, count >= 1")
        anderson["periods"] = default_periods(count, t_min, t_max)
        fields["period_range"] = (t_min, t_max)
    fields["anderson"] = _built(AndersonConfig, anderson)

    t = _object(raw, "tf") if "tf" in raw else {}
    fields["tf"] = _built(TfConfig, {
        attr: _number(t[key], f"tf.{key}", cast)
        for key, attr, cast in _TF_KEYS if key in t}, "tf: ")
    return fields


def load_config(path=None, *, workers: int | None = None,
                output_dir: str | Path | None = None) -> PipelineConfig:
    """The run settings: the defaults, overridden by the config file at
    ``path`` if one is given, those by the environment, and those by a
    command's flags ``workers`` and ``output_dir`` where they are not None.
    The config is built, and checked, once from the winning values, so an
    environment value a flag replaces is never read."""
    fields = _file_fields(Path(path)) if path is not None else {}
    if workers is not None:
        fields["workers"] = workers
    elif ENV_WORKERS in os.environ:
        fields["workers"] = _number(os.environ[ENV_WORKERS], ENV_WORKERS, int)
    if output_dir is not None:
        fields["output_dir"] = Path(output_dir)
    elif ENV_OUTPUT_DIR in os.environ:
        fields["output_dir"] = Path(os.environ[ENV_OUTPUT_DIR])
    return PipelineConfig(**fields)


def _echoed_periods(cfg: PipelineConfig) -> dict:
    # The range as read where it generates the scored grid; otherwise, as
    # for a grid set in code, the grid's own ends.
    periods = np.asarray(cfg.anderson.periods, dtype=float)
    t_min, t_max = cfg.period_range
    if not np.array_equal(default_periods(periods.size, t_min, t_max),
                          periods):
        t_min, t_max = float(periods.min()), float(periods.max())
    return {"min": t_min, "max": t_max, "count": int(periods.size)}


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
        "periods": _echoed_periods(cfg),
        "tf": {key: getattr(cfg.tf, attr) for key, attr, _ in _TF_KEYS},
    }


def _as_written(path: Path | None, base: Path) -> str | None:
    # Undo _resolve: a relative config entry was joined onto base.
    if path is None:
        return None
    try:
        return str(path.relative_to(base))
    except ValueError:
        return str(path)
