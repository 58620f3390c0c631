"""Reflection law, tracking normals and heliostat frames.

A heliostat at (86.6, 50, 0) m aims at a receiver at the origin.  For the
reference sun (due South, elevation 44.63 deg) we derive the tracking
normal from the bisector construction, check the reflection law residual,
and build the heliostat frame.
"""

import math

import numpy as np

import helioflux as hf

sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
spec = hf.HeliostatSpec(name="h1")

s = hf.sun_vector(sun)
r = spec.target_direction()
print(f"sun vector     S = {np.round(s, 5)}")
print(f"target vector  R = {np.round(r, 5)}  (distance {spec.slant_distance:.2f} m)")

geom = hf.bisector_normal(s, r)
print(f"tracking normal N = {np.round(geom.normal, 5)}")
print(f"incidence angle   = {math.degrees(geom.incidence):.2f} deg")

residual = s + r - 2.0 * math.cos(geom.incidence) * geom.normal
print(f"reflection-law residual |S + R - 2 cos(i) N| = {np.linalg.norm(residual):.2e}")

echo = hf.reflect(s, geom.normal)
print(f"reflect(S, N) = {np.round(echo, 5)}  -> returns R as it must")

frame = hf.heliostat_frame(geom.normal)
print("\nheliostat frame (columns of the local -> world rotation):")
print(f"  X (optical axis) = {np.round(frame[:, 0], 4)}")
print(f"  Y (horizontal)   = {np.round(frame[:, 1], 4)}")
print(f"  Z (in-plane up)  = {np.round(frame[:, 2], 4)}")
