"""seisgof: point-source seismogram synthesis and two-framework
goodness-of-fit scoring for ground-motion validation studies."""

from .earthmodel import (BasinProfile, CrustalLayer, CrustalModel,
                         default_crustal_model, layer_at, vp_basin, vs_basin)
from .ensemble import (CorrelationTable, GroupedScores, RunResult, SweepGrid,
                       build_grid, correlation_tables, group_report, pearson,
                       p_value, run_sweep, significant)
from .gof_anderson import (AndersonConfig, AndersonScores, BandSpec,
                           QualityLevel, aggregate, default_bands, quality,
                           score_pair, score_scalar)
from .gof_tf import (TfConfig, TfGof, TFPlane, TfMisfits, cwt, log_freqs,
                     record_tf_gof, tf_gof, tf_misfits, to_gof)
from .imeasures import (IntensityVector, arias_duration, arias_intensity,
                        compute_intensity_vector, cross_correlation,
                        default_periods, energy_duration, energy_integral,
                        peaks, response_spectra, response_spectrum)
from .signal import (Record3C, Spectrum, TimeSeries, Unit, UnitError, align,
                     align_records, bandpass, detrend, differentiate,
                     fourier_amplitude, integrate, taper)
from .source import (FocalMechanism, Medium, MomentTensor,
                     PointSourceScenario, SourceTimeFunction, boxcar_stf,
                     default_medium, default_scenario, liu_stf,
                     moment_tensor, radiation_pattern, synth_fullspace)
from .traceio import read_record, write_record

__version__ = "0.1.0"

__all__ = [
    "AndersonConfig", "AndersonScores", "BandSpec", "BasinProfile",
    "CorrelationTable", "CrustalLayer", "CrustalModel", "FocalMechanism",
    "GroupedScores", "IntensityVector", "Medium", "MomentTensor",
    "PointSourceScenario", "QualityLevel", "Record3C", "RunResult",
    "SourceTimeFunction", "Spectrum", "SweepGrid", "TFPlane", "TfConfig",
    "TfGof", "TfMisfits", "TimeSeries", "Unit", "UnitError", "aggregate",
    "align", "align_records", "arias_duration", "arias_intensity",
    "bandpass", "boxcar_stf", "build_grid", "compute_intensity_vector",
    "correlation_tables", "cross_correlation", "cwt", "default_bands",
    "default_crustal_model", "default_medium", "default_periods",
    "default_scenario", "detrend", "differentiate", "energy_duration",
    "energy_integral", "fourier_amplitude", "group_report", "integrate",
    "layer_at", "liu_stf", "log_freqs", "moment_tensor", "p_value",
    "peaks", "pearson", "quality", "radiation_pattern", "read_record",
    "record_tf_gof", "response_spectra", "response_spectrum", "run_sweep",
    "score_pair", "score_scalar", "significant", "synth_fullspace", "taper",
    "tf_gof", "tf_misfits", "to_gof", "vp_basin", "vs_basin",
    "write_record",
]
