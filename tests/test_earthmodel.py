import json

import numpy as np
import pytest

from seisgof import default_crustal_model, layer_at, vp_basin, vs_basin
from seisgof.earthmodel import CrustalLayer, CrustalModel

EXPECTED_ROWS = [
    (0.0, 2500.0, 3366.0, 2047.0, 400.0, 180.0),
    (628.0, 2600.0, 5995.0, 3645.0, 400.0, 180.0),
    (1197.0, 2300.0, 1967.0, 1200.0, 400.0, 180.0),
    (1416.0, 2500.0, 3831.0, 2291.0, 400.0, 180.0),
    (2026.0, 2500.0, 3908.0, 2314.0, 400.0, 180.0),
    (2194.0, 2600.0, 5819.0, 3457.0, 400.0, 180.0),
    (5956.0, 2600.0, 5951.0, 3616.0, 400.0, 180.0),
]


class TestBasinProfiles:
    def test_surface_values(self):
        assert vs_basin(0.0) == 300.0
        assert vp_basin(0.0) == 550.0

    def test_exact_arithmetic_points(self):
        assert vs_basin(100.0) == 300.0 + 53.7 * 10.0
        assert vp_basin(400.0) == 550.0 + 78.3 * 20.0

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            vs_basin(-1.0)
        with pytest.raises(ValueError):
            vp_basin(-1.0)

    def test_basin_slower_than_crust_top(self):
        # vs_basin(z) < 2047 for every depth below the crossover
        crossover = ((2047.0 - 300.0) / 53.7) ** 2
        for z in np.linspace(0.0, crossover * 0.999, 50):
            assert vs_basin(z) < 2047.0


class TestCrustalModel:
    def test_default_rows_verbatim(self):
        model = default_crustal_model()
        rows = [(l.depth_top, l.rho, l.vp, l.vs, l.qp, l.qs)
                for l in model.layers]
        assert rows == EXPECTED_ROWS

    def test_layer_lookup(self):
        model = default_crustal_model()
        top = layer_at(model, 0.0)
        assert (top.rho, top.vp, top.vs, top.qp, top.qs) == \
            (2500.0, 3366.0, 2047.0, 400.0, 180.0)
        mid = layer_at(model, 1000.0)
        assert mid.depth_top == 628.0
        assert (mid.rho, mid.vp, mid.vs) == (2600.0, 5995.0, 3645.0)
        deep = layer_at(model, 10_000.0)
        assert deep.depth_top == 5956.0

    def test_lookup_total_on_positive_depths(self):
        model = default_crustal_model()
        for depth in (0.0, 500.0, 628.0, 1197.0, 3000.0, 1e7):
            assert layer_at(model, depth) in model.layers
        with pytest.raises(ValueError):
            layer_at(model, -5.0)

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            CrustalLayer(0.0, 2500.0, 1000.0, 2000.0, 400.0, 180.0)
        with pytest.raises(ValueError):
            CrustalModel((CrustalLayer(10.0, 2500, 3000, 2000, 400, 180),))
