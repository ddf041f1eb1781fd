import numpy as np
import pytest

from seisgof import (FocalMechanism, TimeSeries, Unit, default_scenario,
                     synth_fullspace)
from seisgof.signal import Record3C


def sine_series(freq=1.0, dt=0.005, duration=10.0, amplitude=1.0, t0=0.0,
                unit=Unit.ACCELERATION, phase=0.0):
    t = np.arange(int(round(duration / dt)) + 1) * dt
    return TimeSeries(dt, t0, amplitude * np.sin(2 * np.pi * freq * t + phase),
                      unit)


def burst_series(freq=1.0, dt=0.005, duration=12.0, center=6.0, width=1.5,
                 unit=Unit.ACCELERATION):
    """Gaussian-windowed sine; band-limited and time-localized."""
    t = np.arange(int(round(duration / dt)) + 1) * dt
    x = np.sin(2 * np.pi * freq * t) * np.exp(-0.5 * ((t - center) / width) ** 2)
    return TimeSeries(dt, 0.0, x, unit)


def random_series(rng, n=512, dt=0.01, unit=Unit.ACCELERATION, t0=0.0):
    return TimeSeries(dt, t0, rng.standard_normal(n), unit)


def record_from_arrays(ew, ns, ud, dt=0.005, unit=Unit.ACCELERATION):
    mk = lambda x: TimeSeries(dt, 0.0, x, unit)
    return Record3C(ew=mk(ew), ns=mk(ns), ud=mk(ud), station_id="TST")


@pytest.fixture(scope="session")
def default_synthetic():
    """One synthesized record at the default scenario, shared across tests."""
    scenario = default_scenario()
    return synth_fullspace(scenario, FocalMechanism(45.0, 55.0, 90.0))
