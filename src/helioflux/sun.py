"""Sun position, ephemeris, and sunshape radiance kernels.

Azimuth is measured from due South, positive toward West; elevation is the
angle above the horizon.  Both are stored in degrees.  The corresponding
unit vector in world coordinates is

    S = (-cos(el) cos(az), cos(el) sin(az), sin(el))

so a noon sun in the northern hemisphere has a negative X' component.
"""

import math
from dataclasses import dataclass
from datetime import timezone

import numpy as np

from .errors import ConfigError, DegenerateGeometry, KernelAliasingError
from .geometry import cross, normalize

# Default solar half-angle: 4.65 mrad, the nominal angular radius of the
# solar disc.  Configurable through SunshapeModel.
SOLAR_HALF_ANGLE = 4.65e-3

# Default edge-dimming coefficient of the limb-darkened radiance profile
# B(rho) = 1 - c4 rho^4.
LIMB_COEFFICIENT = 0.5138


@dataclass(frozen=True)
class SunPosition:
    """Sun direction in horizon coordinates (degrees)."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not math.isfinite(self.azimuth):
            raise ConfigError(f"azimuth {self.azimuth} is not finite")
        if not -90.0 <= self.elevation <= 90.0:
            raise ConfigError(f"elevation {self.elevation} outside [-90, 90] degrees")


@dataclass(frozen=True)
class SiteSpec:
    """Geographic site, degrees North / degrees East."""

    latitude: float = 45.37
    longitude: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ConfigError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ConfigError(f"longitude {self.longitude} outside [-180, 180]")


@dataclass(frozen=True)
class ScheduleEntry:
    """A labelled sun position inside a day schedule."""

    label: str
    position: SunPosition


def sun_vector(pos):
    """Unit vector pointing from the scene toward the sun centre.

    Requires a sun above the horizon; tracing makes no sense otherwise.
    """
    if pos.elevation <= 0.0:
        raise ValueError(f"sun elevation {pos.elevation} deg is not above the horizon")
    a = math.radians(pos.azimuth)
    h = math.radians(pos.elevation)
    return np.array([-math.cos(h) * math.cos(a), math.cos(h) * math.sin(a), math.sin(h)])


def _fractional_hour(t):
    return t.hour + t.minute / 60.0 + t.second / 3600.0 + t.microsecond / 3.6e9


def _almanac_angles(t):
    """Solar declination [rad] and equation of time [deg of hour angle].

    Low-precision formulas from the Astronomer's Almanac (good to about
    0.01 degrees between 1950 and 2050, drifting slowly outside).
    """
    ftime = _fractional_hour(t)
    delta = t.year - 1949
    leap = (delta) // 4
    jd = 32916.5 + delta * 365.0 + leap + t.timetuple().tm_yday + ftime / 24.0
    time = jd - 51545.0

    mnlong = (280.460 + 0.9856474 * time) % 360.0
    mnanom = math.radians((357.528 + 0.9856003 * time) % 360.0)
    eclong = math.radians((mnlong + 1.915 * math.sin(mnanom)
                           + 0.020 * math.sin(2.0 * mnanom)) % 360.0)
    oblqec = math.radians(23.439 - 0.0000004 * time)
    ra = math.degrees(math.atan2(math.cos(oblqec) * math.sin(eclong),
                                 math.cos(eclong))) % 360.0
    declination = math.asin(math.sin(oblqec) * math.sin(eclong))
    gmst = (6.697375 + 0.0657098242 * time + ftime) % 24.0
    eot = ((gmst * 15.0 - ra - (ftime - 12.0) * 15.0) + 180.0) % 360.0 - 180.0
    return declination, eot


def equation_of_time(t):
    """Apparent-minus-mean solar time in minutes at instant ``t`` (UTC)."""
    _, eot_deg = _almanac_angles(_as_utc(t))
    return eot_deg * 4.0


def _as_utc(t):
    if t.tzinfo is None:
        return t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


def _horizon_position(latitude, declination, hour_angle):
    """Horizon coordinates of a sun at ``declination`` and ``hour_angle``
    (radians) seen from ``latitude`` (degrees North)."""
    lat = math.radians(latitude)
    sin_el = (math.sin(lat) * math.sin(declination)
              + math.cos(lat) * math.cos(declination) * math.cos(hour_angle))
    elevation = math.asin(min(1.0, max(-1.0, sin_el)))
    azimuth = math.atan2(math.sin(hour_angle),
                         math.cos(hour_angle) * math.sin(lat)
                         - math.tan(declination) * math.cos(lat))
    return SunPosition(azimuth=math.degrees(azimuth), elevation=math.degrees(elevation))


def ephemeris(site, t):
    """Sun position at ``t`` (UTC) seen from ``site``.

    Declination and the equation of time come from the Astronomer's Almanac
    low-precision series; the hour angle is mean solar time plus that
    correction.  Agreement with independent algorithms is better than 0.05
    degrees over the supported 1950-2100 range.  A sun below the horizon is
    returned as-is (negative elevation) and rejected downstream.
    """
    t = _as_utc(t)
    if not 1950 <= t.year <= 2100:
        raise ValueError(f"year {t.year} outside the supported range 1950-2100")
    declination, eot = _almanac_angles(t)
    hour_angle = math.radians((_fractional_hour(t) - 12.0) * 15.0 + site.longitude + eot)
    return _horizon_position(site.latitude, declination, hour_angle)


def ideal_equinox_position(latitude, hour):
    """Idealized equinox sun path: zero declination, mean solar time.

    ``hour`` is the local mean solar hour (12.0 = solar noon).  This is the
    reference path used for day schedules and the "equinox-noon" canting
    reference; it is exactly symmetric about noon, with noon elevation
    90 - latitude.
    """
    return _horizon_position(latitude, 0.0, math.radians(15.0 * (hour - 12.0)))


def hour_label(hour):
    """Format 10.5 -> '10h30' for schedule and file naming."""
    minutes = int(round(hour * 60.0))
    return f"{minutes // 60:02d}h{minutes % 60:02d}"


@dataclass(frozen=True)
class SunshapeModel:
    """Angular radiance profile across the solar disc.

    kind 'pillbox' is uniform; 'limb_darkened' dims toward the rim as
    B(rho) = 1 - c4 rho^4 with rho the fractional angular radius.
    """

    kind: str = "limb_darkened"
    half_angle: float = SOLAR_HALF_ANGLE  # radians
    limb_coefficient: float = LIMB_COEFFICIENT

    def __post_init__(self):
        if self.kind not in ("pillbox", "limb_darkened"):
            raise ConfigError(f"unknown sunshape kind {self.kind!r}")
        if not 0.0 < self.half_angle < 0.02:
            raise ConfigError(f"half angle {self.half_angle} rad outside (0, 0.02)")
        if not 0.0 <= self.limb_coefficient <= 1.0:
            raise ConfigError("limb coefficient must stay in [0, 1] for a "
                              "non-negative radiance profile")


def sunshape_radiance(model, rho):
    """Relative radiance at fractional disc radius ``rho`` in [0, 1]."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0) or np.any(rho > 1.0):
        raise ValueError("rho outside [0, 1]")
    if model.kind == "pillbox":
        return np.ones_like(rho)
    # rho^4 as two squares: numpy's float64 power takes its last bits from
    # the host's SIMD level (AVX-512 and AVX2 differ), a product does not
    return 1.0 - model.limb_coefficient * np.square(np.square(rho))


def perpendicular_basis(axis):
    """Deterministic pair of unit vectors orthogonal to ``axis``."""
    if abs(axis[2]) < 0.99:
        e1 = normalize(cross(np.array([0.0, 0.0, 1.0]), axis))
    else:
        e1 = normalize(cross(np.array([1.0, 0.0, 0.0]), axis))
    return e1, cross(axis, e1)


def cone_directions(model, axis, radial, azimuthal):
    """Deterministic quadrature over the sun cone around ``axis``.

    Midpoint nodes in fractional radius; A azimuth nodes at
    psi_k = (k + 1/2 + (A mod 2)/4) 2 pi / A about ``perpendicular_basis``.
    Each node weight is proportional to sin(theta) B(rho), then the set is
    normalized to unit total weight.  Returns (directions (R*A, 3),
    weights (R*A,)).

    The quadrature is mirror symmetric by construction: the X'-mirror
    M = diag(1, -1, 1) takes the basis about S to (-e1, e2) about MS, so
    the node at psi about S lands on the node at pi - psi about MS, and
    the node set is closed under psi -> pi - psi for every count (node k
    of an even count pairs with node A/2 - 1 - k, of an odd one with node
    (A - 3)/2 - k mod A).  The directions about MS are those about S
    mirrored, with the same weights.
    """
    rho = (np.arange(radial) + 0.5) / radial
    theta = rho * model.half_angle
    ring_weight = np.sin(theta) * sunshape_radiance(model, rho)
    psi = (np.arange(azimuthal) + 0.5 + azimuthal % 2 / 4.0) * (2.0 * math.pi / azimuthal)

    e1, e2 = perpendicular_basis(axis)
    lateral = (np.cos(psi)[None, :, None] * e1[None, None, :]
               + np.sin(psi)[None, :, None] * e2[None, None, :])
    dirs = (np.cos(theta)[:, None, None] * axis[None, None, :]
            + np.sin(theta)[:, None, None] * lateral)
    weights = np.repeat(ring_weight, azimuthal)
    weights = weights / weights.sum()
    return dirs.reshape(-1, 3), weights


def build_kernel(model, path_length, beam_dir, grid):
    """Projected sunshape kernel on the receiver grid.

    The cone of half-angle theta_s around ``beam_dir`` lands on the
    receiver plane as an ellipse with semi-minor axis L theta_s (across the
    beam tilt) and semi-major axis L theta_s / cos(beta) along it, where
    cos(beta) = |beam . normal|.  The kernel samples that elliptical
    radiance footprint at grid-cell resolution (3x3 subsamples per cell)
    and normalizes to unit sum.  The result is an odd-sided square centred
    on the beam; a sun smaller than a cell gives the 1x1 delta [[1.0]].

    The receiver plane is the world Y'Z' plane with normal +X' (see
    ``receiver``), so cos(beta) = -beam_x; the beam must hit the front
    face (beam_x < 0).
    """
    if path_length <= 0.0:
        raise ValueError("path length must be positive")
    cos_beta = -float(beam_dir[0])  # Python float: a grazing beam makes r_major inf, no warning
    if cos_beta <= 0.0:
        raise DegenerateGeometry("beam does not hit the receiver front face")

    r_minor = path_length * model.half_angle
    r_major = r_minor / cos_beta
    if 2.0 * r_major > 0.5 * grid.extent:
        raise KernelAliasingError(
            f"kernel support {2.0 * r_major:.3f} m exceeds half the grid extent")

    # In-plane direction of the beam tilt = major axis of the ellipse.
    tilt = np.array([beam_dir[1], beam_dir[2]])
    tilt_len = np.hypot(tilt[0], tilt[1])
    if tilt_len < 1e-12:
        p = np.array([1.0, 0.0])  # normal incidence: kernel is circular
    else:
        p = tilt / tilt_len
    q = np.array([-p[1], p[0]])

    cell = grid.cell_size
    half = int(math.ceil(r_major / cell)) + 1
    size = 2 * half + 1

    offsets = (np.arange(size) - half) * cell
    sub = (np.arange(3) - 1.0) * (cell / 3.0)
    d = (offsets[:, None] + sub[None, :]).ravel()  # (size*3,), along y' and z' alike

    dp = d[:, None] * p[0] + d[None, :] * p[1]
    dq = d[:, None] * q[0] + d[None, :] * q[1]
    rho = np.hypot(dp * cos_beta, dq) / r_minor
    values = np.zeros_like(rho)
    inside = rho <= 1.0
    values[inside] = sunshape_radiance(model, rho[inside])
    kernel = values.reshape(size, 3, size, 3).mean(axis=(1, 3))
    kernel = kernel / kernel.sum()

    # trim the all-zero border so a sub-cell kernel collapses to 1x1 and the
    # convolution with it degenerates to the exact identity; the centre
    # subsample sits at rho = 0 exactly, where B = 1, so the centre cell is
    # never zero
    nonzero = np.nonzero(kernel)
    reach = int(max(np.abs(nonzero[0] - half).max(), np.abs(nonzero[1] - half).max()))
    return kernel[half - reach:half + reach + 1, half - reach:half + reach + 1]
