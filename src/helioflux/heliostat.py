"""Facet-grid geometry and canting of a multi-module heliostat.

A heliostat is an m x n grid of identical spherical mirror modules.
Canting gives each module a pair of small fixed tilts (a, h) about the
heliostat Z and Y axes.  "Spherical" canting makes the module normals
coincide with a single sphere focused at the receiver distance; "off-axis"
canting makes them tangent to the paraboloid whose focus is the receiver
and whose axis is parallel to a fixed reference sun direction.  Both are
one linear law of the module centre (y, z) at focusing distance d:

    a = y/(2d) A - z/(4d) S,    h = -y/(4d) S + z/(2d) C

Spherical canting is (A, C, S) = (1, 1, 0); off-axis canting takes A, C
and S from the reference sun (``off_axis_canting``).

Angle bookkeeping: stored angles are physical mirror-normal rotations in
radians.  A positive ``a`` tilts the module normal toward -Y, a positive
``h`` toward -Z, so a module sitting at positive (y, z) aims its image back
toward the heliostat axis with positive angles.  Tilt tables are
conventionally quoted as twice the mirror-normal rotation (the reflected
ray deflection) in milliradians; ``canting_report`` applies that factor.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateGeometry, require_integer
from .geometry import bisector_normal, heliostat_frame
from .sun import sun_vector

CANTING_LIMIT = 0.1  # rad; beyond this the small-angle canting formulas are meaningless
MAX_DISTANCE = 1e4  # m from the receiver; several times the largest tower field


def _require_focal_length(focal_length):
    if focal_length is not None and not 0.0 < focal_length < math.inf:
        raise ConfigError("focal length must be positive and finite; "
                          "a flat facet has focal length None")


@dataclass(frozen=True)
class HeliostatSpec:
    """Heliostat position and facet-grid geometry (meters, world frame)."""

    position: tuple = (86.6, 50.0, 0.0)
    width: float = 3.4
    height: float = 3.0
    modules_across: int = 4
    modules_up: int = 2
    module_width: float = 0.7
    module_height: float = 1.4
    focal_length: float = 100.0
    reflectivity: float = 1.0
    name: str = "heliostat"

    def __post_init__(self):
        if len(self.position) != 3 or not all(map(math.isfinite, self.position)):
            raise ConfigError("position needs three finite coordinates")
        # a hashable tuple of floats: the day course's memos key on the spec
        object.__setattr__(self, "position", tuple(map(float, self.position)))
        if not self.position[0] > 0.0:
            raise ConfigError("position: X' must be positive so the receiver front face "
                              "sees the heliostat")
        # hypot, unlike the squares in slant_distance, cannot overflow
        distance = math.hypot(*self.position)
        if distance > MAX_DISTANCE:
            raise ConfigError(f"position: {distance} m from the receiver, "
                              f"beyond the {MAX_DISTANCE:g} m bound")
        require_integer("modules_across", self.modules_across)
        require_integer("modules_up", self.modules_up)
        if not (self.modules_across > 0 and self.modules_up > 0):
            raise ConfigError("module counts must be positive")
        if not (self.module_width > 0.0 and self.module_height > 0.0):
            raise ConfigError("module sizes must be positive")
        if not self.modules_across * self.module_width <= self.width + 1e-9:
            raise ConfigError("modules are wider than the heliostat")
        if not self.modules_up * self.module_height <= self.height + 1e-9:
            raise ConfigError("modules are taller than the heliostat")
        _require_focal_length(self.focal_length)
        if not 0.0 < self.reflectivity <= 1.0:
            raise ConfigError("reflectivity must be in (0, 1]")

    @property
    def position_array(self):
        return np.asarray(self.position, dtype=float)

    @property
    def slant_distance(self):
        """Distance from the heliostat centre to the receiver at the origin."""
        p = self.position_array
        return float(np.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2]))

    def target_direction(self):
        """Unit vector from the heliostat centre toward the receiver."""
        return -self.position_array / self.slant_distance

    def mirrored(self):
        """The X'-symmetric twin of this heliostat (Y' position negated)."""
        x, y, z = self.position
        return replace(self, position=(x, -y, z), name=self.name + "_mirror")


@dataclass(frozen=True)
class ModuleLayout:
    """Per-module centre coordinates in the heliostat YZ plane.

    Index (1, 1) is the (+y, +z) corner; i runs toward -y, j toward -z.
    ``y`` has one entry per column index i, ``z`` one per row index j.
    """

    y: np.ndarray
    z: np.ndarray


def module_centres(spec):
    """Regular symmetric grid of module centres with pitches w/m and h/n."""
    m, n = spec.modules_across, spec.modules_up
    pitch_y = spec.width / m
    pitch_z = spec.height / n
    y = ((m - 1) / 2.0 - np.arange(m)) * pitch_y
    z = ((n - 1) / 2.0 - np.arange(n)) * pitch_z
    return ModuleLayout(y=y, z=z)


@dataclass(frozen=True)
class CantingSet:
    """Mirror-normal rotation angles per module, radians.

    ``a[i, j]`` rotates about the heliostat Z axis, ``h[i, j]`` about the
    Y axis, with the sign convention described in the module docstring.
    """

    a: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        # written so that a NaN angle fails the test
        if not (np.all(np.abs(self.a) < CANTING_LIMIT) and np.all(np.abs(self.h) < CANTING_LIMIT)):
            raise ValueError("canting angles outside the small-angle regime (|angle| < 0.1 rad)")
        self.a.setflags(write=False)
        self.h.setflags(write=False)


def canting_law(layout, distance, along, across, skew):
    """Canting of the module docstring's law with coefficients (A, C, S) =
    (``along``, ``across``, ``skew``), focused at ``distance`` d, which must
    be positive."""
    if not distance > 0.0:
        raise ValueError("focusing distance must be positive")
    y = layout.y[:, None] / (2.0 * distance)
    z = layout.z[None, :] / (2.0 * distance)
    # halving y/(2d) gives y/(4d) bit for bit
    return CantingSet(a=y * along - z / 2.0 * skew, h=-y / 2.0 * skew + z * across)


def spherical_canting(spec, layout, distance):
    """Canting that matches a monolithic sphere of focal length ``distance``.

    The local slope of a sphere of curvature radius 2d at lateral offset
    (y, z) tilts the mirror normal by y/(2d) and z/(2d) toward the axis:
    the law at (A, C, S) = (1, 1, 0).
    """
    return canting_law(layout, distance, 1.0, 1.0, 0.0)


@dataclass(frozen=True)
class OffAxisContext:
    """Reference-sun quantities entering the off-axis canting formulas.

    ``incidence0`` is the reference sun's incidence angle i0 on the
    heliostat; ``phi`` the angle of the sun's projection on the heliostat
    plane, measured from the Y axis toward Z, so the sun's direction
    cosines on Y and Z are sin(i0) cos(phi) and sin(i0) sin(phi).
    """

    incidence0: float  # radians
    phi: float  # radians


def off_axis_context(spec, sun0):
    """Build the reference-sun context for a heliostat at its position.

    ``sun0`` is the reference SunPosition (typically noon at the autumnal
    equinox).  The heliostat frame at the reference is the tracking frame
    for that sun.
    """
    s0 = sun_vector(sun0)
    geom = bisector_normal(s0, spec.target_direction())
    frame = heliostat_frame(geom.normal)
    on_y, on_z = (float(s0 @ frame[:, k]) for k in (1, 2))
    return OffAxisContext(incidence0=geom.incidence, phi=math.atan2(on_z, on_y))


def off_axis_canting(spec, layout, ctx, distance):
    """Canting tangent to the ideal paraboloid for the reference sun.

    The module docstring's law with

        A = (cos^2(i0) cos^2(phi) + sin^2(phi)) / cos(i0)
        C = (cos^2(i0) sin^2(phi) + cos^2(phi)) / cos(i0)
        S = sin(2 phi) sin^2(i0) / cos(i0)

    which reduces to the spherical canting when the reference incidence i0
    vanishes.  Incidences with cos(i0) <= 0.5 sit outside the regime where
    the first-order tangency argument holds and are rejected, as are a NaN
    incidence and a non-finite phi.
    """
    cos_i0 = math.cos(ctx.incidence0)
    if not (cos_i0 > 0.5 and math.isfinite(ctx.phi)):
        raise DegenerateGeometry(
            f"reference incidence {math.degrees(ctx.incidence0):.2f} deg (phi {ctx.phi}) too "
            "extreme for off-axis canting (cos i0 <= 0.5 or phi not finite)")
    sin_i0 = math.sin(ctx.incidence0)
    cos_phi = math.cos(ctx.phi)
    sin_phi = math.sin(ctx.phi)

    along = (cos_i0 * cos_i0 * cos_phi * cos_phi + sin_phi * sin_phi) / cos_i0
    across = (cos_i0 * cos_i0 * sin_phi * sin_phi + cos_phi * cos_phi) / cos_i0
    skew = math.sin(2.0 * ctx.phi) * sin_i0 * sin_i0 / cos_i0
    return canting_law(layout, distance, along, across, skew)


def canting_report(canting):
    """Reported tilt angles in milliradians: twice the mirror-normal rotation."""
    return np.stack((2000.0 * canting.a, 2000.0 * canting.h), axis=-1)


def canting_table(layout, spherical, off_axis):
    """Rows (i, j, sph_a, sph_h, oa_a, oa_h, diff_a, diff_h), reported mrad.

    Row order: j (rows of modules) outermost, i innermost, both ascending,
    matching the conventional presentation of tilt tables.
    """
    sph, oa = canting_report(spherical), canting_report(off_axis)
    angles = np.concatenate((sph, oa, oa - sph), axis=-1)
    return [(i + 1, j + 1, *angles[i, j].tolist())
            for j in range(len(layout.z)) for i in range(len(layout.y))]


def _rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def canting_rotation(a, h):
    """Module rotation: about Z by the canting angle a, then about Y by h.

    Signs chosen so the local normal X tilts toward -Y for positive a and
    toward -Z for positive h (see the module docstring).  The two rotations
    fail to commute only at order a*h ~ 1e-4 rad for realistic angles; the
    Z-then-Y order is fixed for determinism.
    """
    return _rot_y(h) @ _rot_z(-a)


@functools.lru_cache(maxsize=4)
def _local_sample_grid(width, height, focal_length, samples):
    """Facet-local midpoint grid of a module shape: points (sag, u, v), unit
    normals and cell area of the cap described in ``Facet``, shared read-only
    by all facets of that shape: only the rotation into world axes differs."""
    du = width / samples
    dv = height / samples
    u = (np.arange(samples) + 0.5) * du - 0.5 * width
    v = (np.arange(samples) + 0.5) * dv - 0.5 * height
    uu, vv = np.repeat(u, samples), np.tile(v, samples)  # the raveled ij meshgrid
    if focal_length is None:
        sag = np.zeros_like(uu)
        n_local = np.stack((np.ones_like(uu), sag, sag), axis=-1)
    else:
        r_curv = 2.0 * focal_length
        sag = r_curv - np.sqrt(r_curv * r_curv - uu * uu - vv * vv)
        n_local = np.stack(((r_curv - sag) / r_curv, -uu / r_curv, -vv / r_curv), axis=-1)
    p_local = np.stack((sag, uu, vv), axis=-1)
    p_local.setflags(write=False)
    n_local.setflags(write=False)
    return p_local, n_local, du * dv


@dataclass(frozen=True)
class Facet:
    """One oriented mirror module: a spherical cap around its centre.

    ``axes`` columns map facet-local coordinates (x = optical axis,
    y across, z up) to world directions.  The cap has curvature radius 2f
    and its vertex at ``centre``, where its normal is ``axes[:, 0]``; it
    sags toward the focus, and its normals point at the curvature centre.
    A flat facet has ``focal_length`` None (the f -> infinity limit).
    """

    centre: np.ndarray
    axes: np.ndarray
    width: float
    height: float
    focal_length: float | None
    reflectivity: float

    def __post_init__(self):
        _require_focal_length(self.focal_length)

    def sample_grid(self, samples):
        """Midpoint sample grid over the module: (points, normals, cell_area)."""
        p_local, n_local, cell_area = _local_sample_grid(self.width, self.height,
                                                         self.focal_length, samples)
        return self.centre + p_local @ self.axes.T, n_local @ self.axes.T, cell_area

    @property
    def area(self):
        return self.width * self.height


def realize_modules(spec, layout, canting, sun):
    """Oriented facet list for a heliostat tracking the given sun.

    The heliostat frame is aimed with its X axis along the bisector of the
    sun and target directions (the tracking law); each module is then a
    spherical cap at its grid position, rotated by its canting angles
    inside that frame.
    """
    s = sun_vector(sun)
    geom = bisector_normal(s, spec.target_direction())
    base = heliostat_frame(geom.normal)

    facets = []
    for i in range(spec.modules_across):
        for j in range(spec.modules_up):
            local_centre = np.array([0.0, layout.y[i], layout.z[j]])
            centre = spec.position_array + base @ local_centre
            axes = base @ canting_rotation(canting.a[i, j], canting.h[i, j])
            facets.append(Facet(centre=centre, axes=axes,
                                width=spec.module_width, height=spec.module_height,
                                focal_length=spec.focal_length,
                                reflectivity=spec.reflectivity))
    return facets
