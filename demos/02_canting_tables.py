"""Spherical vs off-axis canting for the reference heliostat.

Prints the full tilt table in the reported convention (twice the
mirror-normal rotation, milliradians) and shows what the re-alignment buys:
where each module's centre ray lands on the receiver plane.
"""

import math

import numpy as np

import helioflux as hf

spec = hf.HeliostatSpec(name="h1")
layout = hf.module_centres(spec)
d = spec.slant_distance
reference = hf.SunPosition(azimuth=0.0, elevation=44.63)

spherical = hf.spherical_canting(spec, layout, d)
ctx = hf.off_axis_context(spec, reference)
off_axis = hf.off_axis_canting(spec, layout, ctx, d)

print(f"reference incidence i0 = {math.degrees(ctx.incidence0):.2f} deg\n")
print("module tilt angles [mrad], reported convention")
print("i,j | spherical a     h | off-axis a      h | difference a    h")
for i, j, sa, sh, oa, oh, da, dh in hf.canting_table(layout, spherical, off_axis):
    print(f"{i},{j} | {sa:9.2f} {sh:6.2f} | {oa:9.2f} {oh:6.2f} | "
          f"{da:+9.2f} {dh:+6.2f}")


def centre_ray_misses(canting):
    sun_vec = hf.sun_vector(reference)
    misses = []
    for facet in hf.realize_modules(spec, layout, canting, reference):
        point, normal = facet.centre, facet.axes[:, 0]
        out = hf.reflect(sun_vec, normal)
        land = point - point[0] / out[0] * out
        misses.append(math.hypot(land[1], land[2]))
    return np.array(misses)


for canting, name in ((spherical, "spherical"), (off_axis, "off-axis")):
    miss = centre_ray_misses(canting)
    print(f"\n{name}: module-centre rays land within "
          f"{100 * miss.max():.1f} cm of the receiver centre "
          f"(rms {100 * math.sqrt((miss ** 2).mean()):.1f} cm)")
print("\nthe off-axis tilts are exactly the first-order normals of the ideal")
print("paraboloid through the heliostat centre, so they collapse the spread")
