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

from .errors import BacklitMirror, GridMismatch, GridTooSmall, HelioFluxError
from .receiver import GridSpec
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


# Rays per chunk of the ray loop: enough to amortise numpy's per-call cost,
# few enough that a chunk's temporaries stay in cache.  Chunks are whole
# sample rows, so the one-direction spot path traces a facet in one chunk.
_CHUNK_RAYS = 32768


def _trace_spot(facets, sun_dirs, dir_weights, central_sun, grid, dni, surface_samples):
    """Shared ray loop: every (surface sample, sun direction) pair lands one ray.

    Ray power is dni * dA * reflectivity * cos(local incidence) * direction
    weight.  Rays that leave the grid or travel away from the receiver
    plane count as spill.  A facet back-lit by the central sun direction is
    an error.

    Each facet is traced in chunks of sample rows, working in place, into
    one flat bin index and one weight per ray.  One ``bincount`` per facet
    then deposits its rays in ray order; bin ``cells`` past the grid
    collects the spill.
    """
    cells = grid.cells_y * grid.cells_z
    power = np.zeros((grid.cells_y, grid.cells_z))
    spilled = 0.0
    n_samples, n_dirs = surface_samples * surface_samples, len(sun_dirs)
    rows = max(1, _CHUNK_RAYS // n_dirs)
    sx, sy, sz = (np.ascontiguousarray(sun_dirs[:, k]) for k in range(3))
    half_y, half_z, cell = 0.5 * grid.extent_y, 0.5 * grid.extent_z, grid.cell_size
    work = np.empty((4, min(rows, n_samples), n_dirs))
    flags = np.empty((2, min(rows, n_samples), n_dirs), dtype=bool)
    for facet in facets:
        points, normals, cell_area = facet.sample_grid(surface_samples)
        central_cos = (normals[:, 0] * central_sun[0] + normals[:, 1] * central_sun[1]
                       + normals[:, 2] * central_sun[2])
        if np.any(central_cos <= 0.0):
            raise BacklitMirror("facet is back-lit at the current sun position")

        scale = dni * cell_area * facet.reflectivity
        bins = np.empty((n_samples, n_dirs), dtype=np.int64)
        weights = np.empty((n_samples, n_dirs))
        for start in range(0, n_samples, rows):
            stop = min(start + rows, n_samples)
            px, py, pz = (points[start:stop, k, None] for k in range(3))
            nx, ny, nz = (normals[start:stop, k, None] for k in range(3))
            cos_i, out_x, out_y, out_z = work[:, :stop - start]
            on_grid, test = flags[:, :stop - start]
            weight = weights[start:stop]

            # cos of incidence per (surface, direction) pair
            np.multiply(nx, sx, out=cos_i)
            cos_i += np.multiply(ny, sy, out=out_x)
            cos_i += np.multiply(nz, sz, out=out_x)
            # grazing cone directions below the local facet horizon carry no power
            np.maximum(cos_i, 0.0, out=weight)
            weight *= scale
            weight *= dir_weights
            # outgoing direction R = (2 cos_i) n - S for every pair
            cos_i *= 2.0
            np.subtract(np.multiply(cos_i, nx, out=out_x), sx, out=out_x)
            np.subtract(np.multiply(cos_i, ny, out=out_y), sy, out=out_y)
            np.subtract(np.multiply(cos_i, nz, out=out_z), sz, out=out_z)

            # intersection with the receiver plane x' = 0, then the cell
            # coordinates floor((y + extent/2) / cell).  Rays travelling away
            # from the plane or grazing it may reach inf or nan here; the
            # on-grid test below rejects those before any cast.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                t = np.divide(-px, out_x, out=cos_i)
                for land, p, half in ((out_y, py, half_y), (out_z, pz, half_z)):
                    land *= t
                    land += p
                    land += half
                    land /= cell
                    np.floor(land, out=land)
            np.less(out_x, 0.0, out=on_grid)
            on_grid &= np.greater_equal(out_y, 0.0, out=test)
            on_grid &= np.less(out_y, grid.cells_y, out=test)
            on_grid &= np.greater_equal(out_z, 0.0, out=test)
            on_grid &= np.less(out_z, grid.cells_z, out=test)

            # every other ray goes to the spill bin, row cells_y of column 0
            off_grid = np.logical_not(on_grid, out=on_grid)
            np.copyto(out_y, grid.cells_y, where=off_grid)
            np.copyto(out_z, 0.0, where=off_grid)
            out_y *= grid.cells_z
            out_y += out_z
            bins[start:stop] = out_y  # whole numbers, exact below 2**53

        facet_power = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=cells + 1)
        power += facet_power[:cells].reshape(grid.cells_y, grid.cells_z)
        spilled += float(facet_power[cells])
    return power, spilled


def trace_flux_grt(facets, sun, shape, receiver, dni=1.0,
                   surface_samples=DEFAULT_SURFACE_SAMPLES,
                   radial_nodes=DEFAULT_RADIAL_NODES,
                   azimuth_nodes=DEFAULT_AZIMUTH_NODES,
                   heliostat_ids=()):
    """Grid ray trace: surface samples times sun-cone quadrature directions."""
    grid = receiver.grid
    s = sun_vector(sun)
    dirs, weights = cone_directions(shape, s, radial_nodes, azimuth_nodes)
    power, spilled = _trace_spot(facets, dirs, weights, s, grid, dni, surface_samples)
    values = power / (grid.cell_area * dni)
    return FluxMap(values=values, grid=grid, dni=dni, engine="grt", sun=sun,
                   heliostat_ids=tuple(heliostat_ids), spilled_power=spilled)


def geometric_spot(facets, sun, receiver, dni=1.0,
                   surface_samples=DEFAULT_SURFACE_SAMPLES, heliostat_ids=()):
    """Point-sun map: the geometric/aberration spot without any sun blur.

    This is stage 1 of the convolution engine; convolving it with a delta
    kernel reproduces it bit-for-bit.
    """
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


def convolve_flux(facets, sun, shape, receiver, dni=1.0,
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
    A facet centre farther from the mean than one heliostat diagonal
    raises ``HelioFluxError``.  The facets do not know their heliostat, so
    its diagonal is taken as the sum of the facet diagonals, the diagonal
    of the modules laid corner to corner.
    """
    grid = receiver.grid
    centre = np.mean([f.centre for f in facets], axis=0)
    diagonal = sum(math.hypot(f.width, f.height) for f in facets)
    if max(float(np.linalg.norm(f.centre - centre)) for f in facets) > diagonal:
        raise HelioFluxError("convolve_flux takes the facets of one heliostat; "
                             "compose heliostats with map_add")
    stage1 = geometric_spot(facets, sun, receiver, dni=dni,
                            surface_samples=surface_samples,
                            heliostat_ids=heliostat_ids)
    spot = stage1.values
    spilled = stage1.spilled_power

    path_length = float(np.sqrt(centre @ centre))
    beam = -centre / path_length
    kernel = build_kernel(shape, path_length, beam, grid)

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
