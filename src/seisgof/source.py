"""Double-couple point source: mechanism, moment tensor, source-time function
and the analytical full-space synthesizer.

Coordinates are north-east-down (x = north, y = east, z = down). Geographic
output components map as EW = u_y, NS = u_x, UD = -u_z.

The synthesizer evaluates the complete displacement field of a moment-tensor
point source in a homogeneous isotropic elastic full space: near-field,
intermediate-field and far-field P and S terms. The output is acceleration:
both time derivatives are taken of the source-time function, so arrivals
stay causal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .earthmodel import default_crustal_model
from .signal import Record3C, TimeSeries, Unit


@dataclass(frozen=True)
class FocalMechanism:
    """Strike/dip/rake in degrees.

    Strike and rake are periodic and get normalized into [0, 360) and
    (-180, 180]; a dip outside [0, 90] is an error.
    """

    strike: float
    dip: float
    rake: float

    def __post_init__(self):
        if not 0.0 <= self.dip <= 90.0:
            raise ValueError(f"dip must be in [0, 90], got {self.dip}")
        # A tiny negative strike rounds to 360 under the modulo.
        strike = float(self.strike) % 360.0
        object.__setattr__(self, "strike", strike if strike < 360.0 else 0.0)
        rake = float(self.rake) % 360.0
        if rake > 180.0:
            rake -= 360.0
        object.__setattr__(self, "rake", rake)


@dataclass(frozen=True)
class MomentTensor:
    """Symmetric 3x3 moment tensor in N*m, north-east-down axes."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("moment tensor must be 3x3")
        if not np.allclose(m, m.T, rtol=0, atol=1e-9 * max(1.0, np.abs(m).max())):
            raise ValueError("moment tensor must be symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))

    @property
    def mzz(self): return float(self.matrix[2, 2])

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted ascending; a double couple gives {-M0, 0, +M0}."""
        return np.linalg.eigvalsh(self.matrix)


def moment_tensor(fm: FocalMechanism, m0: float) -> MomentTensor:
    """Double-couple tensor for a strike/dip/rake mechanism of moment m0."""
    if m0 <= 0:
        raise ValueError(f"scalar moment must be positive, got {m0}")
    th = np.radians(fm.strike)
    de = np.radians(fm.dip)
    la = np.radians(fm.rake)
    ss, cs = np.sin(th), np.cos(th)
    s2s, c2s = np.sin(2 * th), np.cos(2 * th)
    sd, cd = np.sin(de), np.cos(de)
    s2d, c2d = np.sin(2 * de), np.cos(2 * de)
    sl, cl = np.sin(la), np.cos(la)
    mxx = -m0 * (sd * cl * s2s + s2d * sl * ss ** 2)
    mxy = m0 * (sd * cl * c2s + 0.5 * s2d * sl * s2s)
    mxz = -m0 * (cd * cl * cs + c2d * sl * ss)
    myy = m0 * (sd * cl * s2s - s2d * sl * cs ** 2)
    myz = -m0 * (cd * cl * ss - c2d * sl * cs)
    mzz = m0 * s2d * sl
    return MomentTensor(np.array([[mxx, mxy, mxz],
                                  [mxy, myy, myz],
                                  [mxz, myz, mzz]]))


def radiation_pattern(fm: FocalMechanism, direction) -> tuple[float, float]:
    """(A_P, A_S) for a unit-moment tensor along a take-off direction.

    A_P is the signed longitudinal contraction gamma.M.gamma; A_S is the
    magnitude of the transverse projection of M.gamma. ``direction`` is any
    non-zero vector in north-east-down coordinates.
    """
    g = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(g)
    if norm == 0:
        raise ValueError("direction must be a non-zero vector")
    g = g / norm
    m = moment_tensor(fm, 1.0).matrix
    a_p = float(g @ m @ g)
    transverse = m @ g - a_p * g
    return a_p, float(np.linalg.norm(transverse))


@dataclass(frozen=True)
class SourceTimeFunction:
    """Normalized moment-rate history on a uniform grid starting at t = 0.

    Samples are non-negative, integrate to 1 (trapezoidal) and are supported
    inside [0, rise_time].
    """

    rise_time: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.rise_time <= 0 or self.dt <= 0:
            raise ValueError("rise_time and dt must be positive")
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("samples must be a 1-D array with at least 2 values")
        if s.min() < 0:
            raise ValueError("moment-rate samples must be non-negative")
        if (s.size - 1) * self.dt > self.rise_time + self.dt:
            raise ValueError("samples extend beyond the rise time")
        area = np.trapezoid(s, dx=self.dt)
        if abs(area - 1.0) > 1e-6:
            raise ValueError(f"samples must integrate to 1, got {area}")
        object.__setattr__(self, "samples", s)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.dt


def _stf_grid(rise_time: float, dt: float) -> np.ndarray:
    if dt > rise_time / 20.0:
        raise ValueError(f"dt={dt} too coarse for rise_time={rise_time}; "
                         f"need dt <= rise_time/20")
    n = int(np.floor(rise_time / dt + 1e-9)) + 1
    return np.arange(n) * dt


def liu_stf(rise_time: float = 1.0, dt: float = 0.005) -> SourceTimeFunction:
    """Piecewise-cosine moment-rate shape: fast rise, gentle decay.

    Single-peaked with the peak at 0.13 * rise_time; starts and ends at zero.
    """
    t = _stf_grid(rise_time, dt)
    tau1 = 0.13 * rise_time
    tau2 = rise_time - tau1
    cn = np.pi / (1.4 * np.pi * tau1 + 1.2 * tau1 + 0.3 * np.pi * tau2)
    s = np.zeros_like(t)
    m1 = t < tau1
    s[m1] = (0.7 - 0.7 * np.cos(np.pi * t[m1] / tau1)
             + 0.6 * np.sin(0.5 * np.pi * t[m1] / tau1))
    m2 = (t >= tau1) & (t < 2 * tau1)
    s[m2] = (1.0 - 0.7 * np.cos(np.pi * t[m2] / tau1)
             + 0.3 * np.cos(np.pi * (t[m2] - tau1) / tau2))
    m3 = t >= 2 * tau1
    s[m3] = 0.3 * (1.0 + np.cos(np.pi * (t[m3] - tau1) / tau2))
    s = np.clip(cn * s, 0.0, None)
    s /= np.trapezoid(s, dx=dt)
    return SourceTimeFunction(rise_time, dt, s)


def boxcar_stf(rise_time: float, dt: float) -> SourceTimeFunction:
    """Constant moment rate over the rise time.

    Useful for displacement-level sanity checks only: its onset/offset jumps
    are not differentiable, so far-field velocity/acceleration vanish in the
    interior under the classical-derivative semantics used by the
    synthesizer.
    """
    t = _stf_grid(rise_time, dt)
    s = np.ones_like(t)
    s /= np.trapezoid(s, dx=dt)
    return SourceTimeFunction(rise_time, dt, s)


@dataclass(frozen=True)
class Medium:
    """Homogeneous isotropic elastic medium."""

    rho: float  # kg/m^3
    vp: float   # m/s
    vs: float   # m/s

    def __post_init__(self):
        if not self.vp > self.vs > 0:
            raise ValueError("must satisfy vp > vs > 0")
        if self.rho <= 0:
            raise ValueError("density must be positive")


def default_medium() -> Medium:
    """Top layer of the built-in crustal model."""
    top = default_crustal_model().layers[0]
    return Medium(rho=top.rho, vp=top.vp, vs=top.vs)


@dataclass(frozen=True)
class PointSourceScenario:
    """Buried point source observed by one surface receiver.

    ``hypocenter`` is (x north, y east, depth) in metres with depth > 0;
    ``receiver`` is (x, y) at the free surface (the full-space solution has
    no free-surface effect; z = 0 is just the receiver datum).
    """

    hypocenter: tuple[float, float, float]
    receiver: tuple[float, float]
    medium: Medium = field(default_factory=default_medium)
    m0: float = 2.81e16
    duration: float = 12.0
    dt: float = 0.005

    def __post_init__(self):
        hx, hy, hz = (float(v) for v in self.hypocenter)
        rx, ry = (float(v) for v in self.receiver)
        if hz <= 0:
            raise ValueError(f"hypocenter depth must be positive, got {hz}")
        if self.m0 <= 0 or self.duration <= 0 or self.dt <= 0:
            raise ValueError("m0, duration and dt must be positive")
        object.__setattr__(self, "hypocenter", (hx, hy, hz))
        object.__setattr__(self, "receiver", (rx, ry))

    @property
    def separation(self) -> np.ndarray:
        """Vector from source to receiver in north-east-down coordinates."""
        hx, hy, hz = self.hypocenter
        rx, ry = self.receiver
        return np.array([rx - hx, ry - hy, -hz])

    @property
    def hypocentral_distance(self) -> float:
        return float(np.linalg.norm(self.separation))

    @property
    def epicentral_distance(self) -> float:
        hx, hy, _ = self.hypocenter
        rx, ry = self.receiver
        return float(np.hypot(rx - hx, ry - hy))


def default_scenario(hypocentral_distance: float = 15000.0,
                     depth: float = 1000.0, azimuth_deg: float = 0.0,
                     m0: float = 2.81e16, duration: float = 12.0,
                     dt: float = 0.005,
                     medium: Medium | None = None) -> PointSourceScenario:
    """Source at the origin, receiver at the given hypocentral distance."""
    if hypocentral_distance <= depth:
        raise ValueError("hypocentral distance must exceed the source depth")
    horiz = np.sqrt(hypocentral_distance ** 2 - depth ** 2)
    az = np.radians(azimuth_deg)
    receiver = (horiz * np.cos(az), horiz * np.sin(az))
    return PointSourceScenario(
        hypocenter=(0.0, 0.0, depth), receiver=receiver,
        medium=medium if medium is not None else default_medium(),
        m0=m0, duration=duration, dt=dt)


def synth_fullspace(scenario: PointSourceScenario, fm: FocalMechanism,
                    stf: SourceTimeFunction | None = None) -> Record3C:
    """Three-component acceleration synthetic at the receiver.

    The five field terms share four shifted scalar time series (the moment
    rate's first and second derivatives at the P and S travel times) plus
    the near-field integral; components differ only in their
    radiation coefficients, and the scalar moment multiplies the assembled
    field exactly once so the output is linear in m0 to the last bit. The
    source-time function must be sampled at the scenario's ``dt``.
    """
    if stf is None:
        stf = liu_stf(1.0, scenario.dt)
    if stf.dt != scenario.dt:
        raise ValueError(f"source-time function dt {stf.dt} differs from "
                         f"the scenario dt {scenario.dt}")

    sep = scenario.separation
    r = float(np.linalg.norm(sep))
    if r == 0.0:
        raise ValueError("receiver coincides with the hypocenter")
    gamma = sep / r
    med = scenario.medium
    alpha, beta, rho = med.vp, med.vs, med.rho

    if scenario.duration < r / beta + 2.0 * stf.rise_time:
        raise ValueError(
            f"duration {scenario.duration} s does not cover the S arrival "
            f"plus twice the rise time ({r / beta + 2 * stf.rise_time:.2f} s)")

    # Radiation coefficients for a unit-moment tensor (trace kept for
    # generality even though a double couple has none).
    m_unit = moment_tensor(fm, 1.0).matrix
    q = float(gamma @ m_unit @ gamma)
    mg = m_unit @ gamma
    tr = float(np.trace(m_unit))
    coef_near = 15.0 * q * gamma - 3.0 * tr * gamma - 6.0 * mg
    coef_int_p = 6.0 * q * gamma - tr * gamma - 2.0 * mg
    coef_int_s = -(6.0 * q * gamma - tr * gamma - 3.0 * mg)
    coef_far_p = q * gamma
    coef_far_s = mg - q * gamma

    # Source history and its derivatives on the scenario grid. Derivatives
    # are one-sided at the support edges: onset/offset jumps are treated as
    # classical (pointwise) derivatives, never as distributional spikes.
    s_dot = np.gradient(stf.samples, stf.dt)
    s_ddot = np.gradient(s_dot, stf.dt)

    n = int(round(scenario.duration / scenario.dt)) + 1
    t = np.arange(n) * scenario.dt

    def shifted(series, shift):
        return np.interp(t - shift, stf.times, series, left=0.0, right=0.0)

    t_p = r / alpha
    t_s = r / beta

    # Near-field integral over tau in [r/alpha, r/beta] of tau * F0(t - tau),
    # with F0 the moment rate's first derivative.
    n_tau = max(2, int(np.ceil((t_s - t_p) / scenario.dt)) + 1)
    taus = np.linspace(t_p, t_s, n_tau)
    d_tau = taus[1] - taus[0]
    near = np.zeros(n)
    for i, tau in enumerate(taus):
        w = 0.5 if i in (0, n_tau - 1) else 1.0
        near += w * tau * shifted(s_dot, tau)
    near *= d_tau

    series_p0 = shifted(s_dot, t_p)
    series_s0 = shifted(s_dot, t_s)
    series_p1 = shifted(s_ddot, t_p)
    series_s1 = shifted(s_ddot, t_s)

    u = (np.outer(coef_near, near) / r ** 4
         + np.outer(coef_int_p, series_p0) / (alpha ** 2 * r ** 2)
         + np.outer(coef_int_s, series_s0) / (beta ** 2 * r ** 2)
         + np.outer(coef_far_p, series_p1) / (alpha ** 3 * r)
         + np.outer(coef_far_s, series_s1) / (beta ** 3 * r))
    u *= scenario.m0 / (4.0 * np.pi * rho)

    make = lambda x: TimeSeries(scenario.dt, 0.0, x, Unit.ACCELERATION)
    return Record3C(ew=make(u[1]), ns=make(u[0]), ud=make(-u[2]),
                    station_id="SYN",
                    epicentral_distance=scenario.epicentral_distance)


def scenario_from_dict(cfg: dict):
    """(scenario, mechanism, stf) from the scenario JSON schema."""
    sections = {key: cfg.get(key, {}) for key in ("medium", "mechanism",
                                                  "stf")}
    for key, value in sections.items():
        if not isinstance(value, dict):
            raise TypeError(f"{key!r} must be an object, got {value!r}")
    med, mech, stf_cfg = sections.values()
    medium = (Medium(rho=float(med["rho"]), vp=float(med["vp"]),
                     vs=float(med["vs"])) if med else default_medium())
    scenario = PointSourceScenario(
        hypocenter=tuple(float(v) for v in cfg["hypocenter"]),
        receiver=tuple(float(v) for v in cfg["receiver"][:2]),
        medium=medium, m0=float(cfg.get("m0", 2.81e16)),
        duration=float(cfg.get("duration", 12.0)),
        dt=float(cfg.get("dt", 0.005)))
    fm = FocalMechanism(strike=float(mech.get("strike", 45.0)),
                        dip=float(mech.get("dip", 55.0)),
                        rake=float(mech.get("rake", 90.0)))
    kind = stf_cfg.get("kind", "liu")
    rise = float(stf_cfg.get("rise_time", 1.0))
    if kind == "liu":
        stf = liu_stf(rise, scenario.dt)
    elif kind == "boxcar":
        stf = boxcar_stf(rise, scenario.dt)
    else:
        raise ValueError(f"unknown stf kind: {kind!r}")
    return scenario, fm, stf


def scenario_to_dict(scenario: PointSourceScenario, fm: FocalMechanism,
                     stf_kind: str = "liu", rise_time: float = 1.0) -> dict:
    return {
        "hypocenter": list(scenario.hypocenter),
        "receiver": list(scenario.receiver),
        "medium": {"rho": scenario.medium.rho, "vp": scenario.medium.vp,
                   "vs": scenario.medium.vs},
        "m0": scenario.m0,
        "duration": scenario.duration,
        "dt": scenario.dt,
        "mechanism": {"strike": fm.strike, "dip": fm.dip, "rake": fm.rake},
        "stf": {"kind": stf_kind, "rise_time": rise_time},
    }
