"""Vector algebra for heliostat optics.

World coordinates X'Y'Z': X' points from South to North, Y' from East to
West and Z' from Nadir to Zenith.  All positions are in meters and the
receiver centre sits at the origin.  Directions are plain numpy arrays of
shape (3,) holding unit vectors; sun directions follow the convention of
``sun.sun_vector`` (azimuth from due South, positive toward West).

The heliostat frame XYZ is attached to the mirror assembly: X is the
tracking normal, Y the horizontal lateral axis and Z the in-plane "up"
axis, as produced by an azimuth-elevation mount.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BacklitMirror, DegenerateGeometry


def normalize(v):
    """Return ``v`` scaled to unit length."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if n == 0.0:
        raise DegenerateGeometry("cannot normalize a zero vector")
    return v / n


def cross(a, b):
    """Cross product written out component-wise (keeps mirror runs bit-exact)."""
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def reflect(sun, normal):
    """Specular reflection of the sun direction about a mirror normal.

    Both arguments are unit vectors pointing away from the surface.  The
    outgoing direction is 2 (S.N) N - S, unit length whenever the inputs
    are, and satisfies R.N = S.N.

    Raises BacklitMirror when the sun is on the non-reflective side
    (S.N <= 0).
    """
    c = sun[0] * normal[0] + sun[1] * normal[1] + sun[2] * normal[2]
    if c <= 0.0:
        raise BacklitMirror(f"sun is behind the mirror (S.N = {c:.6g})")
    return 2.0 * c * normal - sun


@dataclass(frozen=True)
class ReflectionGeometry:
    """Bisecting mirror normal and incidence angle of a sun/target pair."""

    normal: np.ndarray
    incidence: float  # radians


def bisector_normal(sun, target):
    """Mirror normal that reflects ``sun`` into ``target``.

    N = (S + R) / sqrt(2 (1 + S.R)) is unit length by construction and
    bisects the two directions; the returned incidence angle is
    arccos(S.N).  The three unit vectors satisfy S + R = 2 cos(i) N, the
    vector form of the specular reflection law.  Anti-parallel inputs have
    no bisector and are rejected.
    """
    s_dot_r = sun[0] * target[0] + sun[1] * target[1] + sun[2] * target[2]
    if 1.0 + s_dot_r <= 1e-12:
        raise DegenerateGeometry("sun and target are anti-parallel; bisector undefined")
    normal = (sun + target) / np.sqrt(2.0 * (1.0 + s_dot_r))
    c = sun[0] * normal[0] + sun[1] * normal[1] + sun[2] * normal[2]
    incidence = float(np.arccos(min(1.0, max(-1.0, c))))
    return ReflectionGeometry(normal=normal, incidence=incidence)


def heliostat_frame(normal):
    """Local -> world rotation of the heliostat frame for a tracking normal.

    The columns are the frame axes: X is the normal itself, Y = Z' x normal
    normalized (always horizontal), and Z completes the right-handed triad
    with a positive Z' component.  Normals within 1e-6 of vertical leave
    the horizontal axis undefined and are rejected.
    """
    lateral = np.hypot(normal[0], normal[1])
    if lateral < 1e-6:
        raise DegenerateGeometry("normal is (nearly) vertical; heliostat azimuth undefined")
    axis_y = np.array([-normal[1], normal[0], 0.0]) / lateral
    return np.column_stack((normal, axis_y, cross(normal, axis_y)))
