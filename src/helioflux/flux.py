"""Flux-density maps on the receiver plane.

Two independent engines produce maps of irradiance normalized to DNI
("suns") on the receiver grid:

* ``trace_flux_grt`` - grid ray tracing: a deterministic double
  discretization over facet surfaces and the sun cone.  It makes no
  shift-invariance assumption, so it is the independent cross-check of the
  convolution; its default cone quadrature is the coarser discretization of
  the two.
* ``convolve_flux`` - the fast path: a point-sun geometric spot convolved
  with the projected sunshape kernel through zero-padded FFTs.

Both engines ignore shadowing and blocking between heliostats; maps of
separate heliostats are therefore independent and add cell-wise.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BacklitMirror, GridMismatch, GridTooSmall, HelioFluxError
from .receiver import GridSpec
from .sun import SunPosition, build_kernel, cone_directions, sun_vector

DEFAULT_SURFACE_SAMPLES = 32
DEFAULT_RADIAL_NODES = 24
DEFAULT_AZIMUTH_NODES = 48


@dataclass(frozen=True)
class FluxMap:
    """Irradiance on the receiver grid, in suns (flux density / DNI).

    ``values`` is ``grid.cells`` x ``grid.cells`` on the square grid;
    ``values[i, j]`` belongs to the cell centred at
    (y', z') = (grid.centres()[i], grid.centres()[j]).  ``spilled_power``
    is the traced power that missed the grid, in the same units as
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
# few enough that a chunk's temporaries and its deposit stay in cache.
# Chunks are whole sample rows, so the one-direction spot path traces a facet
# in one chunk.  ``metrics.grt_pair`` traces two maps at once on two
# threads, which share the GIL between numpy calls: the longer each call
# runs, the less they wait for it.  On table1's 10 GRT maps (2-core x86-64,
# numpy 2.4, medians of 8 runs in two alternating rounds), serial traces take
# 1.45 s at 16 K rays per chunk, 1.15 s at 32 K, 1.18 s at 64 K and 1.45 s
# at 128 K; paired traces 1.60, 1.08, 0.93 and 0.97 s.  On one core paired
# 64 K traces took 1.13 s against 1.09 s for serial 32 K ones.
_CHUNK_RAYS = 65536


def _trace_spot(facets, sun_dirs, dir_weights, central_sun, grid, surface_samples):
    """Shared ray loop: every (surface sample, sun direction) pair lands one ray.

    Ray power is per unit DNI: dA * reflectivity * cos(local incidence) *
    direction weight.  The caller scales watts figures by DNI; a map in
    suns never depends on it.  Rays that leave the grid or travel away from
    the receiver plane count as spill.  A facet back-lit by the central sun
    direction is an error.

    Landing points are worked out in receiver-cell units.  Once per facet,
    each surface sample gets q = -x' / cell, the numerator of its distance
    to the plane x' = 0, and pc = ((y', z') + extent / 2) / cell, its own
    cell coordinates.  A ray with outgoing direction R then takes one
    division, t = q / R_x, and lands in cell floor(t * (R_y, R_z) + pc).
    On any grid the points may differ in their last bits from the same
    points worked out in metres, (p + (-x' / R_x) R + extent / 2) / cell,
    since the additions run in another order and ``/ cell`` may round; a
    ray that lands within an ulp of a cell edge could then change cells.
    ``tests/test_flux.py`` holds the cells to that formula on the grids it
    covers; that no cell moves elsewhere is measured, not guaranteed.

    Each facet is traced in chunks of sample rows, working in place in
    buffers that all chunks and facets share.  A chunk's rays get a flat bin
    ``n * row + column``, or the spill bin ``n * n`` past the n x n grid,
    and ``np.add.at`` deposits them into the map's own accumulator while the
    chunk is still in cache.  Each bin, the spill bin included, sums its
    rays in ray order over all facets, as one ``bincount`` of every facet's
    rays in facet order would.
    """
    n = grid.cells
    power = np.zeros(n * n + 1)
    n_samples, n_dirs = surface_samples * surface_samples, len(sun_dirs)
    rows = max(1, _CHUNK_RAYS // n_dirs)
    sx, sy, sz = (np.ascontiguousarray(sun_dirs[:, k]) for k in range(3))
    half, cell = 0.5 * grid.extent, grid.cell_size
    chunk = (min(rows, n_samples), n_dirs)
    work = np.empty((4,) + chunk)
    flags = np.empty((2,) + chunk, dtype=bool)
    weights = np.empty(chunk)
    bins = np.empty(chunk, dtype=np.int64)
    # numpy buffers a broadcast operand whose rows are shorter than its ufunc
    # buffer (8192 elements by default): on a 28 x 1152 chunk a (rows, 1) x
    # (dirs,) product took 40-45 us with that buffer and 11-13 us with a
    # buffer of one row, and table1's 20 GRT maps 5.7 s against 4.1 s (3.5 s
    # with the in-cache deposit; 2-core x86-64, numpy 2.4).  Below 64
    # directions (the spot path has 1) a row-sized buffer makes the inner
    # loops so short that it costs more than it saves, so the buffer stays.
    # The values are the same either way.  numpy 1.x keeps the size outside
    # errstate, so it is restored here.
    old_bufsize = np.getbufsize()
    np.setbufsize(n_dirs // 16 * 16 if 64 <= n_dirs < old_bufsize else old_bufsize)
    try:
        for facet in facets:
            points, normals, cell_area = facet.sample_grid(surface_samples)
            central_cos = (normals[:, 0] * central_sun[0] + normals[:, 1] * central_sun[1]
                           + normals[:, 2] * central_sun[2])
            if np.any(central_cos <= 0.0):
                raise BacklitMirror("facet is back-lit at the current sun position")

            scale = cell_area * facet.reflectivity
            # per sample, in cell units: q and pc of the docstring (pc over
            # all three columns: numpy is 2-3x slower on a two-column slice)
            q = points[:, 0] / -cell
            pc = points + half
            pc /= cell
            normals2 = 2.0 * normals
            for start in range(0, n_samples, rows):
                stop = min(start + rows, n_samples)
                qx = q[start:stop, None]
                pcy, pcz = (pc[start:stop, k, None] for k in (1, 2))
                nx, ny, nz = (normals[start:stop, k, None] for k in range(3))
                nx2, ny2, nz2 = (normals2[start:stop, k, None] for k in range(3))
                cos_i, out_x, out_y, out_z = work[:, :stop - start]
                on_grid, test = flags[:, :stop - start]
                weight, flat = weights[:stop - start], bins[:stop - start]

                # cos of incidence per (surface, direction) pair
                np.multiply(nx, sx, out=cos_i)
                cos_i += np.multiply(ny, sy, out=out_x)
                cos_i += np.multiply(nz, sz, out=out_x)
                # grazing cone directions below the local facet horizon carry no power
                np.maximum(cos_i, 0.0, out=weight)
                weight *= scale
                weight *= dir_weights
                # outgoing direction R = cos_i (2 n) - S for every pair
                np.subtract(np.multiply(cos_i, nx2, out=out_x), sx, out=out_x)
                np.subtract(np.multiply(cos_i, ny2, out=out_y), sy, out=out_y)
                np.subtract(np.multiply(cos_i, nz2, out=out_z), sz, out=out_z)

                # intersection with the receiver plane x' = 0 in cell units,
                # t = q / R_x, then the cell coordinates floor(t R + pc) and the
                # flat bin n * row + column.  Rays travelling away from the plane
                # or grazing it may reach inf or nan here; the on-grid test
                # rejects those before any cast.
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    t = np.divide(qx, out_x, out=cos_i)
                    np.less(out_x, 0.0, out=on_grid)
                    for land, p in ((out_y, pcy), (out_z, pcz)):
                        land *= t
                        land += p
                        np.floor(land, out=land)
                        on_grid &= np.greater_equal(land, 0.0, out=test)
                        on_grid &= np.less(land, n, out=test)
                    out_y *= n
                    out_y += out_z
                # every other ray goes to the spill bin
                np.copyto(out_y, n * n, where=np.logical_not(on_grid, out=on_grid))
                flat[...] = out_y  # whole numbers, exact below 2**53
                np.add.at(power, flat.ravel(), weight.ravel())
    finally:
        np.setbufsize(old_bufsize)
    return power[:n * n].reshape(n, n), float(power[n * n])


def trace_flux_grt(facets, sun, shape, receiver, dni=1.0,
                   surface_samples=DEFAULT_SURFACE_SAMPLES,
                   radial_nodes=DEFAULT_RADIAL_NODES,
                   azimuth_nodes=DEFAULT_AZIMUTH_NODES,
                   heliostat_ids=()):
    """Grid ray trace: surface samples times sun-cone quadrature directions."""
    grid = receiver.grid
    s = sun_vector(sun)
    dirs, weights = cone_directions(shape, s, radial_nodes, azimuth_nodes)
    power, spilled = _trace_spot(facets, dirs, weights, s, grid, surface_samples)
    return FluxMap(values=power / grid.cell_area, grid=grid, dni=dni, engine="grt",
                   sun=sun, heliostat_ids=tuple(heliostat_ids), spilled_power=dni * spilled)


def geometric_spot(facets, sun, receiver, dni=1.0,
                   surface_samples=DEFAULT_SURFACE_SAMPLES, heliostat_ids=()):
    """Point-sun map: the geometric/aberration spot without any sun blur.

    This is stage 1 of the convolution engine; convolving it with a delta
    kernel reproduces it bit-for-bit.
    """
    grid = receiver.grid
    s = sun_vector(sun)
    power, spilled = _trace_spot(facets, s[None, :], np.ones(1), s, grid, surface_samples)
    return FluxMap(values=power / grid.cell_area, grid=grid, dni=dni, engine="spot",
                   sun=sun, heliostat_ids=tuple(heliostat_ids), spilled_power=dni * spilled)


def _fast_length(n):
    """Smallest m >= n with no prime factor above 11: a fast FFT length."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _convolve_padded(spot, kernel):
    """Spot convolved with the centred kernel, on the spot's own grid.

    The FFT covers only the spot's support: its nonzero bounding box and
    the kernel are zero-padded to a fast length of their linear
    convolution, and the result is pasted onto a zero grid at the box
    origin less the kernel's centre offset, clipped at the grid edges.
    Cells farther from the support than the kernel reaches are exactly 0.
    A spot without power gives an all-zero grid.
    """
    values = np.zeros(spot.shape)
    rows, cols = np.flatnonzero(spot.any(axis=1)), np.flatnonzero(spot.any(axis=0))
    if rows.size == 0:
        return values
    box = spot[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    full_shape = [b + k - 1 for b, k in zip(box.shape, kernel.shape)]
    padded = [_fast_length(n) for n in full_shape]
    spectrum = np.fft.rfft2(box, s=padded) * np.fft.rfft2(kernel, s=padded)
    full = np.fft.irfft2(spectrum, s=padded)
    # on each axis, index i of the linear result lands on cell start + i - k // 2
    target, source = [], []
    for start, k, length, n in zip((rows[0], cols[0]), kernel.shape, full_shape,
                                   spot.shape):
        offset = start - k // 2
        lo, hi = max(offset, 0), min(offset + length, n)
        target.append(slice(lo, hi))
        source.append(slice(lo - offset, hi - offset))
    values[tuple(target)] = full[tuple(source)]
    return values


@functools.lru_cache(maxsize=1)
def _last_kernel(shape, path_length, beam, grid):
    """``build_kernel`` of the last inputs it was called with, read-only.

    The key is all of ``build_kernel``'s inputs, so a hit is the kernel a
    new build would give.  ``day_course`` convolves a heliostat's two
    canting variants back to back at one mean facet centre, so the second
    call is a hit.
    """
    kernel = build_kernel(shape, path_length, np.array(beam), grid)
    kernel.setflags(write=False)
    return kernel


def convolve_flux(facets, sun, shape, receiver, dni=1.0,
                  surface_samples=DEFAULT_SURFACE_SAMPLES,
                  heliostat_ids=()):
    """Convolution engine: point-sun geometric spot x projected sunshape kernel.

    Stage 1 traces the sun-centre direction only, building the geometric /
    aberration spot of the facets on the grid.  Stage 2 convolves it with
    the sunshape footprint built at the heliostat-centre path length and
    beam direction (the kernel is shift-invariant across the map, the
    approximation that makes this engine fast).  The FFT covers the spot's
    support, its nonzero bounding box, not the whole grid.  The output is
    rescaled so its total matches the stage-1 total; a mismatch beyond 1%
    means the spot leaks off the grid and is an error.

    Pass the facets of a single heliostat: the kernel is built once at
    their mean centre.  Compose multi-heliostat maps with ``map_add``.
    The kernel depends on nothing else of the facets, and canting only
    rotates facet axes, never moves a centre, so a heliostat's two canting
    variants share it: a call with the same sunshape, grid, path length
    and beam as the one before reuses that call's kernel, read-only.
    A facet centre farther from the mean than one heliostat diagonal
    raises ``HelioFluxError``.  The facets do not know their heliostat, so
    its diagonal is taken as the sum of the facet diagonals, the diagonal
    of the modules laid corner to corner.
    """
    centre = np.mean([f.centre for f in facets], axis=0)
    diagonal = sum(math.hypot(f.width, f.height) for f in facets)
    if max(float(np.linalg.norm(f.centre - centre)) for f in facets) > diagonal:
        raise HelioFluxError("convolve_flux takes the facets of one heliostat; "
                             "compose heliostats with map_add")
    stage1 = geometric_spot(facets, sun, receiver, dni=dni,
                            surface_samples=surface_samples,
                            heliostat_ids=heliostat_ids)
    spot = stage1.values

    path_length = float(np.sqrt(centre @ centre))
    beam = -centre / path_length
    kernel = _last_kernel(shape, path_length, tuple(beam), receiver.grid)

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
    return replace(stage1, values=values, engine="conv")


def map_add(a, b):
    """Cell-wise sum of two maps of one engine, grid, DNI normalization and sun."""
    if a.grid != b.grid:
        raise GridMismatch("flux maps live on different grids")
    if a.dni != b.dni:
        raise GridMismatch("flux maps use different DNI normalizations")
    if a.sun != b.sun:
        raise GridMismatch("flux maps belong to different sun positions")
    if a.engine != b.engine:
        raise GridMismatch("flux maps come from different engines")
    return replace(a, values=a.values + b.values, heliostat_ids=a.heliostat_ids + b.heliostat_ids,
                   spilled_power=a.spilled_power + b.spilled_power)


def map_stats(flux_map):
    """Peak, total power, power-weighted centroid and spill fraction."""
    v = flux_map.values
    if v.size == 0:
        raise ValueError("empty flux map")
    centres = flux_map.grid.centres()
    total = flux_map.total_power
    peak = float(v.max())
    if total > 0.0:
        wy = (v.sum(axis=1) @ centres) / v.sum()
        wz = (v.sum(axis=0) @ centres) / v.sum()
        centroid = (float(wy), float(wz))
    else:
        centroid = (math.nan, math.nan)
    denom = total + flux_map.spilled_power
    spill_fraction = (flux_map.spilled_power / denom) if denom > 0.0 else 0.0
    return {"peak": peak, "total_power": total, "centroid": centroid,
            "spill_fraction": spill_fraction}
