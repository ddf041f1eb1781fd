"""Crustal layer table and depth-dependent basin velocity profiles.

The built-in crustal model is read-only after construction and can be shared
freely across workers. Quality factors are stored but not applied anywhere
(attenuation is out of scope for the analytical synthesizer).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CrustalLayer:
    depth_top: float  # m
    rho: float        # kg/m^3
    vp: float         # m/s
    vs: float         # m/s
    qp: float
    qs: float

    def __post_init__(self):
        if not (self.vp > self.vs > 0):
            raise ValueError(f"layer at {self.depth_top} m must satisfy vp > vs > 0")
        if self.rho <= 0 or self.qp <= 0 or self.qs <= 0:
            raise ValueError(f"layer at {self.depth_top} m has non-positive rho/qp/qs")


@dataclass(frozen=True)
class CrustalModel:
    layers: tuple[CrustalLayer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("crustal model needs at least one layer")
        tops = [layer.depth_top for layer in self.layers]
        if tops[0] != 0.0:
            raise ValueError("first layer must start at depth 0")
        if any(b <= a for a, b in zip(tops, tops[1:])):
            raise ValueError("layer depth_top values must be strictly increasing")


# Default bedrock model. The low-velocity row at 1197 m is kept verbatim
# from the source table; no correction is applied.
_DEFAULT_ROWS = (
    (0.0, 2500.0, 3366.0, 2047.0, 400.0, 180.0),
    (628.0, 2600.0, 5995.0, 3645.0, 400.0, 180.0),
    (1197.0, 2300.0, 1967.0, 1200.0, 400.0, 180.0),
    (1416.0, 2500.0, 3831.0, 2291.0, 400.0, 180.0),
    (2026.0, 2500.0, 3908.0, 2314.0, 400.0, 180.0),
    (2194.0, 2600.0, 5819.0, 3457.0, 400.0, 180.0),
    (5956.0, 2600.0, 5951.0, 3616.0, 400.0, 180.0),
)


def default_crustal_model() -> CrustalModel:
    return CrustalModel(tuple(CrustalLayer(*row) for row in _DEFAULT_ROWS))


def layer_at(model: CrustalModel, depth: float) -> CrustalLayer:
    """Layer whose depth_top is the greatest value <= depth."""
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    chosen = model.layers[0]
    for layer in model.layers:
        if layer.depth_top <= depth:
            chosen = layer
        else:
            break
    return chosen


@dataclass(frozen=True)
class BasinProfile:
    """Sediment velocity-vs-depth law: v(z) = v0 + coef * z**exponent."""

    vs0: float = 300.0
    vs_coef: float = 53.7
    vp0: float = 550.0
    vp_coef: float = 78.3
    exponent: float = 0.5


def vs_basin(z: float, profile: BasinProfile = BasinProfile()) -> float:
    """Basin S-wave speed at depth z metres."""
    if z < 0:
        raise ValueError(f"depth must be non-negative, got {z}")
    return profile.vs0 + profile.vs_coef * z ** profile.exponent


def vp_basin(z: float, profile: BasinProfile = BasinProfile()) -> float:
    """Basin P-wave speed at depth z metres."""
    if z < 0:
        raise ValueError(f"depth must be non-negative, got {z}")
    return profile.vp0 + profile.vp_coef * z ** profile.exponent
