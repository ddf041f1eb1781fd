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
from functools import lru_cache

import numpy as np

from .earthmodel import default_crustal_model
from .signal import Record3C, TimeSeries, Unit


def _check_finite(**fields) -> None:
    # json.loads reads NaN and Infinity; every comparison with NaN is false.
    for name, value in fields.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class FocalMechanism:
    """Strike/dip/rake in degrees.

    Strike and rake are periodic and get normalized into [0, 360) and
    (-180, 180]; a non-finite angle or a dip outside [0, 90] is an error.
    """

    strike: float
    dip: float
    rake: float

    def __post_init__(self):
        _check_finite(strike=self.strike, dip=self.dip, rake=self.rake)
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


def _stf_grid(rise_time: float, dt: float) -> np.ndarray:
    _check_finite(rise_time=rise_time, dt=dt)
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


@dataclass(frozen=True)
class Medium:
    """Homogeneous isotropic elastic medium."""

    rho: float  # kg/m^3
    vp: float   # m/s
    vs: float   # m/s

    def __post_init__(self):
        _check_finite(rho=self.rho, vp=self.vp, vs=self.vs)
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
        _check_finite(hypocenter=(hx, hy, hz), receiver=(rx, ry), m0=self.m0,
                      duration=self.duration, dt=self.dt)
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


@dataclass(frozen=True)
class FullspaceField:
    """The mechanism-free part of the full-space field at a receiver.

    ``gamma`` is the unit source-receiver direction and ``r`` the distance.
    The series are the near-field integral (``near``) and the moment
    rate's first (``p0``, ``s0``) and second (``p1``, ``s1``) derivatives
    shifted to the P and S travel times. Arrays are read-only: a field is
    shared by every mechanism synthesized from it.
    """

    gamma: np.ndarray
    r: float
    near: np.ndarray
    p0: np.ndarray
    s0: np.ndarray
    p1: np.ndarray
    s1: np.ndarray


def fullspace_field(scenario: PointSourceScenario,
                    stf: SourceTimeFunction) -> FullspaceField:
    """The scalar time series every mechanism's synthetic is assembled from.

    The field of the last (scenario, source-time function) is kept, so a
    sweep builds it once. The separation's bytes join the key because
    scenarios compare their coordinates with ``==``, which does not tell
    0.0 from -0.0.
    """
    return _fullspace_field(scenario, scenario.separation.tobytes(),
                            stf.rise_time, stf.dt, stf.samples.tobytes())


@lru_cache(maxsize=1)
def _fullspace_field(scenario: PointSourceScenario, separation: bytes,
                     rise_time: float, dt: float,
                     samples: bytes) -> FullspaceField:
    if dt != scenario.dt:
        raise ValueError(f"source-time function dt {dt} differs from "
                         f"the scenario dt {scenario.dt}")
    sep = np.frombuffer(separation)
    r = float(np.linalg.norm(sep))
    if r == 0.0:
        raise ValueError("receiver coincides with the hypocenter")
    med = scenario.medium
    alpha, beta = med.vp, med.vs

    if scenario.duration < r / beta + 2.0 * rise_time:
        raise ValueError(
            f"duration {scenario.duration} s does not cover the S arrival "
            f"plus twice the rise time ({r / beta + 2 * rise_time:.2f} s)")

    # Source history and its derivatives on the scenario grid. Derivatives
    # are one-sided at the support edges: onset/offset jumps are treated as
    # classical (pointwise) derivatives, never as distributional spikes.
    samples = np.frombuffer(samples)
    stf_times = np.arange(samples.size) * dt
    s_dot = np.gradient(samples, dt)
    s_ddot = np.gradient(s_dot, dt)

    n = int(round(scenario.duration / scenario.dt)) + 1
    t = np.arange(n) * scenario.dt

    def shifted(series, shift):
        return np.interp(t - shift, stf_times, series, left=0.0, right=0.0)

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

    wavefield = FullspaceField(
        gamma=sep / r, r=r, near=near,
        p0=shifted(s_dot, t_p), s0=shifted(s_dot, t_s),
        p1=shifted(s_ddot, t_p), s1=shifted(s_ddot, t_s))
    for array in (wavefield.gamma, near, wavefield.p0, wavefield.s0,
                  wavefield.p1, wavefield.s1):
        array.flags.writeable = False
    return wavefield


def synth_fullspace(scenario: PointSourceScenario, fm: FocalMechanism,
                    stf: SourceTimeFunction | None = None) -> Record3C:
    """Three-component acceleration synthetic at the receiver.

    The mechanism-free :func:`fullspace_field` (kept for the last scenario
    and source-time function) holds four shifted scalar time series plus
    the near-field integral; the five field terms assembled here differ
    only in their radiation coefficients, and the scalar moment multiplies
    the assembled field exactly once so the output is linear in m0 to the
    last bit. The source-time function must be sampled at the scenario's
    ``dt``.
    """
    if stf is None:
        stf = liu_stf(1.0, scenario.dt)
    wavefield = fullspace_field(scenario, stf)
    gamma, r = wavefield.gamma, wavefield.r
    med = scenario.medium
    alpha, beta, rho = med.vp, med.vs, med.rho

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

    u = (np.outer(coef_near, wavefield.near) / r ** 4
         + np.outer(coef_int_p, wavefield.p0) / (alpha ** 2 * r ** 2)
         + np.outer(coef_int_s, wavefield.s0) / (beta ** 2 * r ** 2)
         + np.outer(coef_far_p, wavefield.p1) / (alpha ** 3 * r)
         + np.outer(coef_far_s, wavefield.s1) / (beta ** 3 * r))
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
    # What the JSON leaves out takes PointSourceScenario's default.
    given = {key: float(cfg[key]) for key in ("m0", "duration", "dt")
             if key in cfg}
    if med:
        given["medium"] = Medium(rho=float(med["rho"]), vp=float(med["vp"]),
                                 vs=float(med["vs"]))
    scenario = PointSourceScenario(
        hypocenter=tuple(float(v) for v in cfg["hypocenter"]),
        receiver=tuple(float(v) for v in cfg["receiver"][:2]), **given)
    fm = FocalMechanism(strike=float(mech.get("strike", 45.0)),
                        dip=float(mech.get("dip", 55.0)),
                        rake=float(mech.get("rake", 90.0)))
    kind = stf_cfg.get("kind", "liu")
    rise = float(stf_cfg.get("rise_time", 1.0))
    if kind != "liu":
        raise ValueError(f"unknown stf kind: {kind!r}")
    return scenario, fm, liu_stf(rise, scenario.dt)


def scenario_to_dict(scenario: PointSourceScenario, fm: FocalMechanism,
                     rise_time: float = 1.0) -> dict:
    return {
        "hypocenter": list(scenario.hypocenter),
        "receiver": list(scenario.receiver),
        "medium": {"rho": scenario.medium.rho, "vp": scenario.medium.vp,
                   "vs": scenario.medium.vs},
        "m0": scenario.m0,
        "duration": scenario.duration,
        "dt": scenario.dt,
        "mechanism": {"strike": fm.strike, "dip": fm.dip, "rake": fm.rake},
        "stf": {"kind": "liu", "rise_time": rise_time},
    }
