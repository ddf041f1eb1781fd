"""The benchmark's tracer must still find everything it wraps.

``perfbench/spans.py`` looks up each traced function by name, reads some
of their arguments by parameter name and patches two names of
``seisgof.ensemble``. Deleting or renaming any of them breaks the traced
runs, so it must wait for a change that re-points the benchmark.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Parameters that the counter hooks in spans.py read by name.
HOOK_PARAMETERS = {
    ("seisgof.signal", "bandpass"): ("ts", "f_lo", "f_hi", "order",
                                     "zero_phase"),
    ("seisgof.imeasures", "compute_intensity_vector"): ("acc", "periods"),
    ("seisgof.imeasures", "response_spectrum"): ("acc", "periods"),
    ("seisgof.imeasures", "cross_correlation"): ("a", "max_lag"),
    ("seisgof.gof_tf", "cwt"): ("ts", "freqs", "wavelet_omega0",
                                "taper_fraction"),
    ("seisgof.traceio", "read_record"): ("path",),
    ("seisgof.ensemble", "run_sweep"): ("workers",),
}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    return [(module, name) for module, name, _, _ in spans.TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("module,name", TARGETS)
def test_traced_function_resolves(module, name):
    func = getattr(importlib.import_module(module), name)
    assert callable(func)
    params = inspect.signature(func).parameters
    for param in HOOK_PARAMETERS.get((module, name), ()):
        assert param in params, f"{module}.{name} lost {param!r}"


def test_hooked_parameters_belong_to_targets():
    assert set(HOOK_PARAMETERS) <= set(TARGETS)


@pytest.mark.parametrize("name", ["_execute_run", "ProcessPoolExecutor"])
def test_patched_ensemble_names_resolve(name):
    assert callable(getattr(importlib.import_module("seisgof.ensemble"),
                            name))
