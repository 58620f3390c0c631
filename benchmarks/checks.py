"""Output checkers: properties that every correct helioflux run has.

Each checker returns a list of failure messages, empty when the output
passes.  They compare outputs with laws of the method and with quantities
computed here independently (the analytic aperture power), never with a
stored copy of earlier output.  ``selftest.py`` feeds each of them a
deliberately corrupted output and sees it fail.
"""

import hashlib
import math

import numpy as np

ENERGY_TOLERANCE = 0.01  # the GRT quadrature budget of the default sampling
SPOT_TOLERANCE = 1e-6  # conv maps are rescaled to the spot total exactly
PAIR_TOLERANCE = 2e-9  # of the pair peak: two roundings to 10 significant digits
ENGINE_RMS_LIMIT = 0.02
NOON_GAIN_RANGE = (1.03, 1.15)


def sun_direction(azimuth_deg, elevation_deg):
    """Unit vector toward the sun (azimuth from South, positive toward West)."""
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return np.array([-math.cos(el) * math.cos(az), math.cos(el) * math.sin(az),
                     math.sin(el)])


def analytic_power(normals, areas, reflectivities, sun, dni):
    """DNI * sum of A * cos(i) * rho over facets, from their centre normals."""
    cos_i = np.asarray(normals, dtype=float) @ sun
    return float(dni * np.sum(np.asarray(areas) * cos_i * np.asarray(reflectivities)))


def energy_balance(key, values, spilled, cell_area, dni, expected):
    """On-grid plus spilled power matches the analytic aperture power."""
    got = float(values.sum()) * cell_area * dni + spilled
    if abs(got / expected - 1.0) > ENERGY_TOLERANCE:
        return [f"{key}: on-grid + spill {got:.6g} W vs analytic {expected:.6g} W"]
    return []


def conv_matches_spot(key, values, cell_area, dni, spot_power):
    """A convolved map keeps exactly the power of its geometric spot."""
    got = float(values.sum()) * cell_area * dni
    if abs(got / spot_power - 1.0) > SPOT_TOLERANCE:
        return [f"{key}: conv total {got:.9g} W vs geometric spot {spot_power:.9g} W"]
    return []


def pair_is_sum(key, pair, single, mirror):
    """A pair map is the cell-wise sum of its two single-heliostat maps."""
    worst = float(np.abs(pair - (single + mirror)).max())
    if worst > PAIR_TOLERANCE * float(pair.max()):
        return [f"{key}: pair map differs from the sum of its singles by {worst:.3g}"]
    return []


def engine_agreement(key, grt, conv):
    """Cross-engine RMS(conv - grt) / peak(grt) stays within the 2 % gate."""
    diff = conv - grt
    ratio = math.sqrt(float((diff * diff).mean())) / float(grt.max())
    if ratio > ENGINE_RMS_LIMIT:
        return [f"{key}: cross-engine RMS/peak {ratio:.4f} > {ENGINE_RMS_LIMIT}"]
    return []


def gain_in_range(key, off_axis_peak, spherical_peak, low, high):
    """Off-axis over spherical peak lies in [low, high]."""
    gain = off_axis_peak / spherical_peak
    if not low <= gain <= high:
        return [f"{key}: off-axis gain {gain:.4f} outside [{low}, {high}]"]
    return []


def digest(data):
    return hashlib.sha256(data).hexdigest()


def identical(first, other, what):
    """Two repetitions produced the same named outputs, byte for byte."""
    failures = []
    for name in sorted(set(first) | set(other)):
        if first.get(name) != other.get(name):
            failures.append(f"{what}: {name} differs from the first repetition")
    return failures
