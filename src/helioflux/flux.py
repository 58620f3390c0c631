"""Flux-density maps on the receiver plane.

Two independent engines produce maps of irradiance normalized to DNI
("suns") on the receiver grid:

* ``trace_flux_grt`` - grid ray tracing: a deterministic double
  discretization over facet surfaces and the sun cone.  No shift-invariance
  assumption; this is the reference engine.
* ``convolve_flux`` - the fast path: a point-sun geometric spot convolved
  with the projected sunshape kernel through zero-padded FFTs.

Both engines ignore shadowing and blocking between heliostats; maps of
separate heliostats are therefore independent and add cell-wise.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import BacklitMirror, GridMismatch, GridTooSmall
# GridSpec and ReceiverSpec are re-exported here: the receiver-plane types
# are part of this module's working surface
from .receiver import RECEIVER_NORMAL, GridSpec, ReceiverSpec  # noqa: F401
from .sun import SunPosition, build_kernel, cone_directions, sun_vector

DEFAULT_SURFACE_SAMPLES = 32
DEFAULT_RADIAL_NODES = 24
DEFAULT_AZIMUTH_NODES = 48


@dataclass(frozen=True)
class FluxMap:
    """Irradiance on the receiver grid, in suns (flux density / DNI).

    ``values[i, j]`` belongs to the cell centred at
    (grid.centres_y()[i], grid.centres_z()[j]).  ``spilled_power`` is the
    traced power that missed the grid, in the same units as
    ``total_power`` (watts when DNI is in W/m^2).
    """

    values: np.ndarray
    grid: GridSpec
    dni: float
    engine: str
    sun: SunPosition
    heliostat_ids: tuple
    spilled_power: float = 0.0

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def total_power(self):
        """On-grid power: watts when DNI is given in W/m^2."""
        return float(self.values.sum() * self.grid.cell_area * self.dni)


def _deposit(y, z, weights, grid):
    """Bin landing points into the grid; returns (power array, spilled power)."""
    cell = grid.cell_size
    iy = np.floor((y + 0.5 * grid.extent_y) / cell).astype(np.int64)
    iz = np.floor((z + 0.5 * grid.extent_z) / cell).astype(np.int64)
    ok = (iy >= 0) & (iy < grid.cells_y) & (iz >= 0) & (iz < grid.cells_z)
    flat = iy[ok] * grid.cells_z + iz[ok]
    power = np.bincount(flat, weights=weights[ok],
                        minlength=grid.cells_y * grid.cells_z)
    spilled = float(weights.sum() - weights[ok].sum())
    return power.reshape(grid.cells_y, grid.cells_z), spilled


def _trace_spot(facets, sun_dirs, dir_weights, central_sun, grid, dni, surface_samples):
    """Shared ray loop: every (surface sample, sun direction) pair lands one ray.

    Ray power is dni * dA * reflectivity * cos(local incidence) * direction
    weight.  Rays that leave the grid or travel away from the receiver
    plane count as spill.  A facet back-lit by the central sun direction is
    an error.
    """
    power = np.zeros((grid.cells_y, grid.cells_z))
    spilled = 0.0
    for facet in facets:
        points, normals, cell_area = facet.sample_grid(surface_samples)
        central_cos = (normals[:, 0] * central_sun[0] + normals[:, 1] * central_sun[1]
                       + normals[:, 2] * central_sun[2])
        if np.any(central_cos <= 0.0):
            raise BacklitMirror("facet is back-lit at the current sun position")

        # cos of incidence per (surface, direction) pair
        cos_i = (normals[:, None, 0] * sun_dirs[None, :, 0]
                 + normals[:, None, 1] * sun_dirs[None, :, 1]
                 + normals[:, None, 2] * sun_dirs[None, :, 2])
        # outgoing direction R = 2 (S.n) n - S for every pair
        out_x = 2.0 * cos_i * normals[:, None, 0] - sun_dirs[None, :, 0]
        out_y = 2.0 * cos_i * normals[:, None, 1] - sun_dirs[None, :, 1]
        out_z = 2.0 * cos_i * normals[:, None, 2] - sun_dirs[None, :, 2]

        # grazing cone directions below the local facet horizon carry no power
        weights = ((dni * cell_area * facet.reflectivity)
                   * np.maximum(cos_i, 0.0) * dir_weights[None, :])

        # intersection with the receiver plane x' = 0
        towards = out_x < 0.0
        t = np.where(towards, -points[:, None, 0] / np.where(towards, out_x, -1.0), np.nan)
        land_y = points[:, None, 1] + t * out_y
        land_z = points[:, None, 2] + t * out_z

        stray = ~towards
        if np.any(stray):
            spilled += float(weights[stray].sum())
            weights = np.where(stray, 0.0, weights)
            land_y = np.where(stray, 1e9, land_y)  # far off-grid, zero weight
            land_z = np.where(stray, 1e9, land_z)

        facet_power, facet_spill = _deposit(land_y.ravel(), land_z.ravel(),
                                            weights.ravel(), grid)
        power += facet_power
        spilled += facet_spill
    return power, spilled


def trace_flux_grt(facets, sun, shape, receiver, grid=None, dni=1.0,
                   surface_samples=DEFAULT_SURFACE_SAMPLES,
                   radial_nodes=DEFAULT_RADIAL_NODES,
                   azimuth_nodes=DEFAULT_AZIMUTH_NODES,
                   heliostat_ids=()):
    """Grid ray trace: surface samples times sun-cone quadrature directions."""
    if grid is None:
        grid = receiver.grid
    s = sun_vector(sun)
    dirs, weights = cone_directions(shape, s, radial_nodes, azimuth_nodes)
    power, spilled = _trace_spot(facets, dirs, weights, s, grid, dni, surface_samples)
    values = power / (grid.cell_area * dni)
    return FluxMap(values=values, grid=grid, dni=dni, engine="grt", sun=sun,
                   heliostat_ids=tuple(heliostat_ids), spilled_power=spilled)


def geometric_spot(facets, sun, receiver, grid=None, dni=1.0,
                   surface_samples=DEFAULT_SURFACE_SAMPLES, heliostat_ids=()):
    """Point-sun map: the geometric/aberration spot without any sun blur.

    This is stage 1 of the convolution engine; convolving it with a delta
    kernel reproduces it bit-for-bit.
    """
    if grid is None:
        grid = receiver.grid
    s = sun_vector(sun)
    power, spilled = _trace_spot(facets, s[None, :], np.ones(1), s, grid, dni,
                                 surface_samples)
    return FluxMap(values=power / (grid.cell_area * dni), grid=grid, dni=dni,
                   engine="spot", sun=sun, heliostat_ids=tuple(heliostat_ids),
                   spilled_power=spilled)


def _convolve_padded(spot, kernel):
    """Zero-padded FFT convolution cropped back to the spot's own grid."""
    ny, nz = spot.shape
    ky, kz = kernel.shape
    py = scipy.fft.next_fast_len(ny + ky - 1)
    pz = scipy.fft.next_fast_len(nz + kz - 1)
    spectrum = scipy.fft.rfft2(spot, s=(py, pz)) * scipy.fft.rfft2(kernel, s=(py, pz))
    full = scipy.fft.irfft2(spectrum, s=(py, pz))
    return full[ky // 2:ky // 2 + ny, kz // 2:kz // 2 + nz]


def convolve_flux(facets, sun, shape, receiver, grid=None, dni=1.0,
                  surface_samples=DEFAULT_SURFACE_SAMPLES,
                  heliostat_ids=()):
    """Convolution engine: point-sun geometric spot x projected sunshape kernel.

    Stage 1 traces the sun-centre direction only, building the geometric /
    aberration spot of the facets on the grid.  Stage 2 convolves it with
    the sunshape footprint built at the heliostat-centre path length and
    beam direction (the kernel is shift-invariant across the map, the
    approximation that makes this engine fast).  The output is rescaled so
    its total matches the stage-1 total; a mismatch beyond 1% means the
    spot leaks off the grid and is an error.

    Pass the facets of a single heliostat: the kernel is built once at
    their mean centre.  Compose multi-heliostat maps with ``map_add``.
    """
    if grid is None:
        grid = receiver.grid
    stage1 = geometric_spot(facets, sun, receiver, grid=grid, dni=dni,
                            surface_samples=surface_samples,
                            heliostat_ids=heliostat_ids)
    spot = stage1.values
    spilled = stage1.spilled_power

    centre = np.mean([f.centre for f in facets], axis=0)
    path_length = float(np.sqrt(centre @ centre))
    beam = -centre / path_length
    kernel = build_kernel(shape, path_length, beam, RECEIVER_NORMAL, grid)

    if kernel.shape == (1, 1):
        values = spot * kernel[0, 0]  # delta kernel: convolution is the identity
    else:
        values = _convolve_padded(spot, kernel)
        np.clip(values, 0.0, None, out=values)  # FFT ringing is ~1e-16 of peak
        spot_total = spot.sum()
        conv_total = values.sum()
        if spot_total > 0.0:
            if abs(conv_total / spot_total - 1.0) > 0.01:
                raise GridTooSmall("convolved spot loses more than 1% of its power "
                                   "off the grid; enlarge the grid extent")
            values *= spot_total / conv_total
    return FluxMap(values=values, grid=grid, dni=dni, engine="conv", sun=sun,
                   heliostat_ids=tuple(heliostat_ids), spilled_power=spilled)


def map_add(a, b):
    """Cell-wise sum of two maps on identical grids, DNI normalization and sun."""
    if a.grid != b.grid:
        raise GridMismatch("flux maps live on different grids")
    if a.dni != b.dni:
        raise GridMismatch("flux maps use different DNI normalizations")
    if a.sun != b.sun:
        raise GridMismatch("flux maps belong to different sun positions")
    engine = a.engine if a.engine == b.engine else "mixed"
    return FluxMap(values=a.values + b.values, grid=a.grid, dni=a.dni, engine=engine,
                   sun=a.sun, heliostat_ids=a.heliostat_ids + b.heliostat_ids,
                   spilled_power=a.spilled_power + b.spilled_power)


def map_stats(flux_map):
    """Peak, total power, power-weighted centroid and spill fraction."""
    v = flux_map.values
    if v.size == 0:
        raise ValueError("empty flux map")
    grid = flux_map.grid
    total = flux_map.total_power
    peak = float(v.max())
    if total > 0.0:
        wy = (v.sum(axis=1) @ grid.centres_y()) / v.sum()
        wz = (v.sum(axis=0) @ grid.centres_z()) / v.sum()
        centroid = (float(wy), float(wz))
    else:
        centroid = (math.nan, math.nan)
    denom = total + flux_map.spilled_power
    spill_fraction = (flux_map.spilled_power / denom) if denom > 0.0 else 0.0
    return {"peak": peak, "total_power": total, "centroid": centroid,
            "spill_fraction": spill_fraction}
