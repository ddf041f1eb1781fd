"""How fast the host runs a fixed kernel right now, on given CPUs.

On a shared host the neighbours' load changes how fast the same code runs,
by up to half within seconds and by more over minutes, and differently on
each vCPU. The benchmark runs the CLI on fixed CPUs, times this kernel on
the same CPUs between invocations, and scales the run's times to a fixed
reference speed, so that what is left is the program's own cost.

The kernel has the shape of the program's hottest loop, the Newmark step
of ``imeasures.response_spectrum``: a Python loop over samples doing small
numpy operations on one value per oscillator period.
"""

from __future__ import annotations

import os
import time

import numpy as np

BLOCKS = 100              # kernel calls in one window, about 0.3-0.5 s
REFERENCE_S = 0.003       # seconds per kernel call at the reference speed

_FORCING = np.sin(0.1 * np.arange(601))
_OMEGA = np.linspace(0.5, 50.0, 44)


def _kernel() -> np.ndarray:
    u = np.zeros_like(_OMEGA)
    v = np.zeros_like(_OMEGA)
    peak = np.zeros_like(_OMEGA)
    for i in range(1, _FORCING.size):
        du = (_FORCING[i - 1] - _FORCING[i] + 2.0 * v) / (_OMEGA + 1.0)
        u = u + du
        v = 0.5 * v + du
        peak = np.maximum(peak, np.abs(u))
    return peak


def window(cpus: list[int]) -> float:
    """Mean seconds per kernel call over ``BLOCKS`` calls shared by ``cpus``.

    The calling process runs on each CPU in turn and gets its own CPU set
    back afterwards.
    """
    own = os.sched_getaffinity(0)
    per_cpu = BLOCKS // len(cpus)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            for _ in range(per_cpu):
                _kernel()
            total += time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, own)
    return total / (per_cpu * len(cpus))


def scale(windows: list[float]) -> float:
    """Factor from seconds measured among ``windows`` to reference seconds."""
    return REFERENCE_S * len(windows) / sum(windows)
