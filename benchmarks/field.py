"""Seeded heliostat-field scene for the ``field_conv`` workload.

The field places one heliostat in each of eight fixed (azimuth, distance)
strata on both sides of the tower meridian; the seed jitters each within
its stratum (+-3 deg, +-3 m) and draws its height, keeping draws whose
reference (equinox-noon) incidence lies in [MIN_INCIDENCE, MAX_INCIDENCE]
degrees.  Each heliostat is focused at its own slant distance.  Fixed
strata keep the work of a round (kernel and FFT sizes) nearly the same for
every seed, so the seed changes the inputs but not the amount of work.
The receiver grid is wider than the bundled scene's (6 m, 384 cells of the
same 15.6 mm pitch) so every spot of the day stays on it, and the sunshape
is the bundled scene's.  Only the stdlib's ``random`` and ``math`` are
used, so the same seed gives the same scene file on every machine.
"""

import math
import random

LATITUDE = 45.37
HOURS = tuple(8.0 + 0.5 * k for k in range(17))  # 08h00 .. 16h00, noon included
# (azimuth from +X', i.e. north of the tower, degrees; slant distance, m).
# Mirror twins of the pair case land on the other side at the same distance.
STRATA = ((8.0, 90.0), (-12.0, 110.0), (18.0, 112.0), (-24.0, 88.0),
          (30.0, 96.0), (-34.0, 104.0), (40.0, 85.0), (-42.0, 115.0))
JITTER_AZIMUTH, JITTER_DISTANCE = 3.0, 3.0  # focal lengths stay in [80, 120] m
HEIGHT_RANGE = (-8.0, 0.0)  # meters below the receiver centre
HALF_ANGLE_DEG = 0.14323944878270581  # 2.5 mrad, as in the bundled scene
MIN_INCIDENCE, MAX_INCIDENCE = 20.0, 30.0
MIN_SPACING = 6.0  # meters between heliostat centres (the pair mirrors add more)
GRID_EXTENT, GRID_CELLS = 6.0, 384


def reference_incidence(position, latitude=LATITUDE):
    """Incidence angle (degrees) at equinox noon for a heliostat at ``position``."""
    el = math.radians(90.0 - latitude)
    sun = (-math.cos(el), 0.0, math.sin(el))
    dist = math.sqrt(sum(c * c for c in position))
    cos_2i = -sum(s * p for s, p in zip(sun, position)) / dist
    return 0.5 * math.degrees(math.acos(max(-1.0, min(1.0, cos_2i))))


def field_positions(seed):
    """One heliostat centre per stratum, drawn from ``seed`` by rejection."""
    rng = random.Random(seed)
    positions = []
    for azimuth, distance in STRATA:
        p = _draw(rng, azimuth, distance, positions)
        positions.append(p)
    return positions


def _draw(rng, azimuth, distance, positions):
    while True:
        az = math.radians(azimuth + rng.uniform(-JITTER_AZIMUTH, JITTER_AZIMUTH))
        dist = distance + rng.uniform(-JITTER_DISTANCE, JITTER_DISTANCE)
        z = rng.uniform(*HEIGHT_RANGE)
        horizontal = math.sqrt(dist * dist - z * z)
        p = (round(horizontal * math.cos(az), 3), round(horizontal * math.sin(az), 3),
             round(z, 3))
        if not MIN_INCIDENCE <= reference_incidence(p) <= MAX_INCIDENCE:
            continue
        # keep the heliostat and its mirror twin clear of every other one
        others = positions + [(x, -y, zz) for x, y, zz in positions] + [(p[0], -p[1], p[2])]
        if all(math.dist(p, q) >= MIN_SPACING for q in others):
            return p


def field_scene_text(seed):
    """The scene file text of the seeded field."""
    lines = [
        f"# helioflux benchmark field, seed {seed}: {len(STRATA)} heliostats,",
        f"# reference incidence {MIN_INCIDENCE:g}-{MAX_INCIDENCE:g} deg, "
        "each focused at its own slant distance.",
        "", "[site]", f"latitude = {LATITUDE}", "longitude = 0.0",
        "", "[sunshape]", "kind = limb_darkened", f"half_angle_deg = {HALF_ANGLE_DEG!r}",
        "", "[receiver]", "diameter = 1.2",
        f"grid_extent = {GRID_EXTENT}", f"grid_cells = {GRID_CELLS}",
    ]
    for k, p in enumerate(field_positions(seed)):
        slant = math.sqrt(sum(c * c for c in p))
        lines += ["", f"[heliostat f{k:02d}]",
                  f"position = {p[0]!r}, {p[1]!r}, {p[2]!r}",
                  f"focal_length = {slant!r}"]
    lines += ["", "[schedule]", "hours = " + ", ".join(f"{h:g}" for h in HOURS),
              "", "[reference]", "sun = equinox-noon",
              "", "[run]", "engine = conv", "cases = single, symmetric_pair", ""]
    return "\n".join(lines)
