"""seisgof: point-source seismogram synthesis and two-framework
goodness-of-fit scoring for ground-motion validation studies."""

from .earthmodel import default_crustal_model, layer_at, vp_basin, vs_basin
from .ensemble import build_grid, p_value, pearson, significant
from .gof_anderson import (QualityLevel, aggregate, quality, score_pair,
                           score_scalar)
from .gof_tf import record_tf_gof, tf_gof
from .imeasures import arias_duration, arias_intensity, response_spectrum
from .signal import TimeSeries, Unit
from .source import (FocalMechanism, default_scenario, moment_tensor,
                     radiation_pattern, synth_fullspace)

__version__ = "0.1.0"

__all__ = [
    "FocalMechanism", "QualityLevel", "TimeSeries", "Unit", "aggregate",
    "arias_duration", "arias_intensity", "build_grid",
    "default_crustal_model", "default_scenario", "layer_at",
    "moment_tensor", "p_value", "pearson", "quality", "radiation_pattern",
    "record_tf_gof", "response_spectrum", "score_pair", "score_scalar",
    "significant", "synth_fullspace", "tf_gof", "vp_basin", "vs_basin",
]
