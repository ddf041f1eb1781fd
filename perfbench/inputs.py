"""Seeded input files for the benchmark workloads.

The program under test only ever sees the files written here. One seed
drives both the reference mechanism and the coda noise, so the same seed
always gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from seisgof.signal import Record3C
from seisgof.source import (FocalMechanism, default_scenario,
                            scenario_to_dict, synth_fullspace)
from seisgof.traceio import write_record

DEFAULT_SEED = 0
CENTER = (45.0, 55.0, 90.0)       # criterion-8 grid center
REFERENCE = (47.0, 57.0, 95.0)    # criterion-8 reference mechanism
GRID_DELTAS = (5.0, 5.0, 10.0)    # the default grid: 27 mechanisms

# The sweeps keep the criterion-8 geometry and 12-s record but sample at
# 50 Hz (601 samples) instead of 200 Hz: a 200-Hz serial sweep takes about
# a minute, more than one benchmark run may spend.
SWEEP_DT = 0.02
# gof-long: 180 s, long enough to resolve the 0.05-0.1 Hz band, at 25 Hz
# (4,501 samples) so that one run fits several invocations; 10 Hz, the top
# of the highest band, stays below the 12.5-Hz Nyquist frequency.
GOF_DURATION = 180.0
GOF_DT = 0.04
CODA_DECAY_S = 40.0
CODA_LEVEL = 0.1                  # coda peak as a share of the record PGA


def reference_mechanism(seed: int) -> tuple[float, float, float]:
    """Criterion-8 reference at the default seed, a seeded draw otherwise."""
    if seed == DEFAULT_SEED:
        return REFERENCE
    offsets = np.random.default_rng(seed).uniform(-1.0, 1.0, 3)
    return tuple(round(c + d * o, 1)
                 for c, d, o in zip(CENTER, GRID_DELTAS, offsets))


def with_coda(record: Record3C, onset: float, rng) -> Record3C:
    """Add exponentially decaying Gaussian noise after ``onset`` seconds."""
    t = record.ew.times
    envelope = np.where(t > onset, np.exp(-(t - onset) / CODA_DECAY_S), 0.0)
    pga = max(float(np.abs(ts.samples).max()) for _, ts in record.components())
    noisy = {name: ts.with_samples(ts.samples + CODA_LEVEL * pga * envelope
                                   * rng.standard_normal(ts.n))
             for name, ts in record.components()}
    return Record3C(**noisy, station_id=record.station_id,
                    epicentral_distance=record.epicentral_distance)


def write_sweep_inputs(seed: int, work: Path) -> list[str]:
    scenario = default_scenario(dt=SWEEP_DT)
    (work / "scenario.json").write_text(json.dumps(
        scenario_to_dict(scenario, FocalMechanism(*CENTER)), indent=2) + "\n")
    reference = synth_fullspace(scenario,
                                FocalMechanism(*reference_mechanism(seed)))
    write_record(reference, work / "recorded.csv")
    (work / "config.json").write_text(json.dumps(
        {"scenario": "scenario.json", "reference": "recorded.csv"},
        indent=2) + "\n")
    return ["config.json", "scenario.json", "recorded.csv",
            "recorded.meta.json"]


def write_gof_inputs(seed: int, work: Path) -> list[str]:
    scenario = default_scenario(duration=GOF_DURATION, dt=GOF_DT)
    onset = scenario.hypocentral_distance / scenario.medium.vs
    rng = np.random.default_rng([seed, 1])
    for name, angles in (("recorded.csv", reference_mechanism(seed)),
                         ("synthetic.csv", CENTER)):
        record = synth_fullspace(scenario, FocalMechanism(*angles))
        write_record(with_coda(record, onset, rng), work / name)
    (work / "config.json").write_text("{}\n")
    return ["config.json", "recorded.csv", "recorded.meta.json",
            "synthetic.csv", "synthetic.meta.json"]


def write_inputs(workload: str, seed: int, work: Path) -> dict[str, str]:
    """Write the workload's input files; returns {file name: sha256}."""
    work.mkdir(parents=True, exist_ok=True)
    writer = write_gof_inputs if workload == "gof-long" else write_sweep_inputs
    names = writer(seed, work)
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in names}
