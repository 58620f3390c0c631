"""Flux engines: conservation, engine agreement, map algebra."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

import helioflux as hf
from helioflux import flux
from helioflux.errors import BacklitMirror, GridMismatch, GridTooSmall, HelioFluxError

# Heliostat placed below the receiver so the target direction has elevation
# 30 degrees; a sun at (0, 30) then hits every facet at normal incidence.
TILTED_POSITION = (86.60254037844387, 0.0, -50.0)
NORMAL_SUN = hf.SunPosition(azimuth=0.0, elevation=30.0)


def single_flat_facet_scene():
    spec = hf.HeliostatSpec(position=TILTED_POSITION, width=1.0, height=1.0,
                            modules_across=1, modules_up=1, module_width=1.0,
                            module_height=1.0, focal_length=None, name="flat")
    layout = hf.module_centres(spec)
    zero = hf.CantingSet(a=np.zeros((1, 1)), h=np.zeros((1, 1)))
    return hf.realize_modules(spec, layout, zero, NORMAL_SUN)


def analytic_aperture_power(facets, sun, dni=1.0):
    s = hf.sun_vector(sun)
    total = 0.0
    for facet in facets:
        total += facet.area * float(facet.axes[:, 0] @ s) * facet.reflectivity * dni
    return total


def mirrored_pair_facets(sun):
    """Facet lists of the reference heliostat and of its mirror twin."""
    h1 = hf.HeliostatSpec(name="h1")
    facet_sets = []
    for h in (h1, h1.mirrored()):
        layout = hf.module_centres(h)
        canting = hf.spherical_canting(h, layout, h.slant_distance)
        facet_sets.append(hf.realize_modules(h, layout, canting, sun))
    return facet_sets


def reference_facets(variant="off_axis", sun=None):
    spec = hf.HeliostatSpec(name="h1")
    layout = hf.module_centres(spec)
    d = spec.slant_distance
    sun = sun or hf.SunPosition(azimuth=0.0, elevation=44.63)
    if variant == "spherical":
        canting = hf.spherical_canting(spec, layout, d)
    else:
        ctx = hf.off_axis_context(spec, hf.SunPosition(azimuth=0.0, elevation=44.63))
        canting = hf.off_axis_canting(spec, layout, ctx, d)
    return hf.realize_modules(spec, layout, canting, sun)


# --- grid ray tracing ----------------------------------------------------------

def test_grt_conserves_power_flat_facet():
    facets = single_flat_facet_scene()
    grid = hf.GridSpec(extent=8.0, cells=256)
    m = hf.trace_flux_grt(facets, NORMAL_SUN, hf.SunshapeModel(kind="pillbox"),
                          hf.ReceiverSpec(grid=grid))
    expected = analytic_aperture_power(facets, NORMAL_SUN)
    assert expected == pytest.approx(1.0, abs=1e-6)  # 1 m^2 at normal incidence
    assert m.spilled_power == 0.0
    assert m.total_power == pytest.approx(expected, rel=1e-3)


def test_grt_point_sun_stigmatic_focus():
    # spherical module with f = L at normal incidence: the point-sun image
    # collapses below cell size.  The focus sits exactly on the corner shared
    # by the four central cells, so the power may straddle that 2x2 block.
    spec = hf.HeliostatSpec(position=TILTED_POSITION, width=1.0, height=1.0,
                            modules_across=1, modules_up=1, module_width=1.0,
                            module_height=1.0,
                            focal_length=math.hypot(86.60254037844387, 50.0),
                            name="focus")
    layout = hf.module_centres(spec)
    zero = hf.CantingSet(a=np.zeros((1, 1)), h=np.zeros((1, 1)))
    facets = hf.realize_modules(spec, layout, zero, NORMAL_SUN)
    m = hf.geometric_spot(facets, NORMAL_SUN, hf.ReceiverSpec())
    iy, iz = np.nonzero(m.values)
    assert iy.size > 0
    assert iy.max() - iy.min() <= 1 and iz.max() - iz.min() <= 1
    centre = m.grid.cells // 2
    assert {centre - 1, centre} >= set(iy.tolist())
    assert {centre - 1, centre} >= set(iz.tolist())
    assert m.total_power == pytest.approx(analytic_aperture_power(facets, NORMAL_SUN),
                                          rel=1e-3)


def test_grt_off_axis_beats_spherical_at_reference(noon_maps):
    assert (noon_maps[("off_axis", "single", "grt")].values.max()
            > noon_maps[("spherical", "single", "grt")].values.max())


def test_grt_rejects_backlit_facet():
    facets = single_flat_facet_scene()
    behind = hf.SunPosition(azimuth=180.0, elevation=30.0)
    with pytest.raises(BacklitMirror):
        hf.trace_flux_grt(facets, behind, hf.SunshapeModel(), hf.ReceiverSpec())


def test_grt_counts_spill_not_error():
    facets = single_flat_facet_scene()
    tiny = hf.GridSpec(extent=0.5, cells=32)
    m = hf.trace_flux_grt(facets, NORMAL_SUN, hf.SunshapeModel(kind="pillbox"),
                          hf.ReceiverSpec(grid=tiny))
    assert m.spilled_power > 0.0
    expected = analytic_aperture_power(facets, NORMAL_SUN)
    assert m.total_power + m.spilled_power == pytest.approx(expected, rel=1e-3)


def test_grt_energy_conservation_reference_scene():
    facets = reference_facets()
    sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
    shape = hf.SunshapeModel(half_angle=2.5e-3)
    expected = analytic_aperture_power(facets, sun)
    m = hf.trace_flux_grt(facets, sun, shape, hf.ReceiverSpec())
    assert m.total_power + m.spilled_power == pytest.approx(expected, rel=1e-2)
    m4 = hf.trace_flux_grt(facets, sun, shape, hf.ReceiverSpec(), surface_samples=64)
    assert m4.total_power + m4.spilled_power == pytest.approx(expected, rel=1e-3)


def test_grt_grazing_and_receding_rays_spill_without_warnings():
    # Facet A faces the receiver square on, facet B is tilted toward it and
    # facet C away from it.  Only A's rays of the first direction land on the
    # grid.  A's other rays reflect with out_x = -1e-300 (landing ~1e301 m
    # off the grid), -1e-310 (t overflows to inf and inf * 0 is nan), exactly
    # 0 (parallel to the plane) and > 0; C's last direction reflects straight
    # away, with its backward extension through the grid.  pytest.ini turns
    # a RuntimeWarning from any of them, such as an out-of-range int cast,
    # into a failure.
    def rotation(nx, ny):  # local x -> (nx, ny, 0), local z -> world z
        return np.array([[nx, -ny, 0.0], [ny, nx, 0.0], [0.0, 0.0, 1.0]])

    facets = [hf.Facet(centre=np.array([10.0, 0.0, 0.0]), axes=axes, width=1.0,
                       height=1.0, focal_length=None, reflectivity=0.9)
              for axes in (rotation(-1.0, 0.0), rotation(-0.6, 0.8), rotation(0.6, 0.8))]
    dirs = np.array([[-1.0, 0.0, 0.0], [-1e-300, 0.0, 1.0], [-1e-310, 0.0, 1.0],
                     [0.0, 0.6, 0.8], [0.3, 0.0, 0.95], [-0.28, 0.96, 0.0]])
    weights = np.full(len(dirs), 0.2)
    grid = hf.GridSpec(extent=4.0, cells=64)
    power, spilled = flux._trace_spot(facets, dirs, weights, dirs[-1], grid, 8)
    expected = sum(f.area * f.reflectivity
                   * float(weights @ np.maximum(dirs @ f.axes[:, 0], 0.0))
                   for f in facets)
    assert power.sum() == pytest.approx(0.9 * 0.2, rel=1e-12)
    assert power.sum() + spilled == pytest.approx(expected, rel=1e-12)


# --- ray kernel against the unchunked reference -------------------------------

def _reference_deposit(y, z, weights, grid):
    """Deposit of the unchunked ray loop below."""
    cell = grid.cell_size
    n = grid.cells
    iy = np.floor((y + 0.5 * grid.extent) / cell).astype(np.int64)
    iz = np.floor((z + 0.5 * grid.extent) / cell).astype(np.int64)
    ok = (iy >= 0) & (iy < n) & (iz >= 0) & (iz < n)
    flat = iy[ok] * n + iz[ok]
    power = np.bincount(flat, weights=weights[ok], minlength=n * n)
    spilled = float(weights.sum() - weights[ok].sum())
    return power.reshape(n, n), spilled


def _reference_trace_spot(facets, sun_dirs, dir_weights, central_sun, grid,
                          surface_samples):
    """The ray loop before chunking: whole-facet arrays, one deposit of every
    facet's rays in facet order."""
    spilled = 0.0
    lands = []
    for facet in facets:
        points, normals, cell_area = facet.sample_grid(surface_samples)
        central_cos = (normals[:, 0] * central_sun[0] + normals[:, 1] * central_sun[1]
                       + normals[:, 2] * central_sun[2])
        if np.any(central_cos <= 0.0):
            raise BacklitMirror("facet is back-lit at the current sun position")
        cos_i = (normals[:, None, 0] * sun_dirs[None, :, 0]
                 + normals[:, None, 1] * sun_dirs[None, :, 1]
                 + normals[:, None, 2] * sun_dirs[None, :, 2])
        out_x = 2.0 * cos_i * normals[:, None, 0] - sun_dirs[None, :, 0]
        out_y = 2.0 * cos_i * normals[:, None, 1] - sun_dirs[None, :, 1]
        out_z = 2.0 * cos_i * normals[:, None, 2] - sun_dirs[None, :, 2]
        weights = ((cell_area * facet.reflectivity)
                   * np.maximum(cos_i, 0.0) * dir_weights[None, :])
        towards = out_x < 0.0
        t = np.where(towards, -points[:, None, 0] / np.where(towards, out_x, -1.0), np.nan)
        land_y = points[:, None, 1] + t * out_y
        land_z = points[:, None, 2] + t * out_z
        stray = ~towards
        if np.any(stray):
            spilled += float(weights[stray].sum())
            weights = np.where(stray, 0.0, weights)
            land_y = np.where(stray, 1e9, land_y)
            land_z = np.where(stray, 1e9, land_z)
        lands.append((land_y.ravel(), land_z.ravel(), weights.ravel()))
    power, deposit_spill = _reference_deposit(*(np.concatenate(a) for a in zip(*lands)),
                                              grid)
    return power, spilled + deposit_spill


# Incoming directions tilted off the sun centre (the back-lit test keeps the
# centre) so that rays land in the first grid bin, in the last grid bin, or
# only in the spill bin.
TILTS = {"first_bin": (0.0, 0.028, 0.028), "last_bin": (0.0, -0.025, -0.025),
         "no_bin": (0.0, 0.2, 0.0)}


SPILL_AND_LAST_BIN = (45, (5, 7), 4.0, 64, "last_bin")


@pytest.mark.parametrize("samples, nodes, extent, cells, tilt", [
    # 33^2 sample rows: chunks with a remainder
    pytest.param(33, (6, 12), 4.0, 64, None, id="33-nodes0-4.0-64"),
    # a grid so small that rays spill
    pytest.param(33, (6, 12), 0.5, 32, None, id="33-nodes1-0.5-32"),
    # default cone quadrature, short chunks
    pytest.param(12, (24, 48), 4.0, 128, None, id="12-nodes2-4.0-128"),
    # one direction: the geometric-spot path
    pytest.param(33, None, 0.5, 32, None, id="33-None-0.5-32"),
    pytest.param(33, (6, 12), 4.0, 64, "first_bin", id="first_bin-nodes"),
    pytest.param(33, None, 4.0, 64, "first_bin", id="first_bin-None"),
    pytest.param(33, (6, 12), 4.0, 64, "last_bin", id="last_bin-nodes"),
    pytest.param(33, None, 4.0, 64, "last_bin", id="last_bin-None"),
    pytest.param(33, (6, 12), 4.0, 64, "no_bin", id="no_bin-nodes"),
    # fewer directions than 16, and counts that are no multiple of 16, the
    # last one with a ufunc buffer shorter than a row; all with chunk
    # remainders
    pytest.param(110, (2, 3), 4.0, 64, None, id="110-nodes2x3-4.0-64"),
    pytest.param(45, (5, 7), 4.0, 64, None, id="45-nodes5x7-4.0-64"),
    pytest.param(27, (5, 20), 4.0, 64, None, id="27-nodes5x20-4.0-64"),
    # chunks that hold both spilled rays and rays in the last grid bin, so the
    # spill bin and bin n * n - 1 are deposited together (see the test below)
    pytest.param(*SPILL_AND_LAST_BIN, id="spill_and_last_bin-nodes5x7"),
    # a cell of 2.7 / 98 m, no power of two, so dividing by it rounds: here
    # most of the kernel's landing points in cell units differ from the
    # reference's metre-unit ones in their last bits (on any grid a few may,
    # as the two add in a different order); the cells they fall in must not
    pytest.param(33, (6, 12), 2.7, 98, None, id="33-nodes0-2.7-98"),
    pytest.param(33, None, 2.7, 98, None, id="33-None-2.7-98"),
])
def test_chunked_ray_kernel_matches_unchunked_reference(samples, nodes, extent, cells,
                                                        tilt):
    sun = hf.SunPosition(azimuth=30.0, elevation=40.0)
    facets = reference_facets(sun=sun)
    s = hf.sun_vector(sun)
    if nodes is None:
        dirs, weights = s[None, :], np.ones(1)
    else:
        dirs, weights = hf.cone_directions(hf.SunshapeModel(half_angle=2.5e-3), s, *nodes)
    if tilt is not None:
        dirs = dirs + TILTS[tilt]
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rows = max(1, flux._CHUNK_RAYS // len(dirs))
    assert nodes is None or (samples * samples > rows and samples * samples % rows)
    grid = hf.GridSpec(extent=extent, cells=cells)
    power, spilled = flux._trace_spot(facets, dirs, weights, s, grid, samples)
    ref_power, ref_spilled = _reference_trace_spot(facets, dirs, weights, s, grid, samples)
    assert np.array_equal(power, ref_power)
    # the spill bin sums its rays in another order than the reference
    assert spilled == pytest.approx(ref_spilled, rel=1e-12)
    assert (spilled > 0.0) == (extent < 1.0 or tilt is not None)
    lands = ref_power.ravel() > 0.0
    if tilt == "first_bin":
        assert lands[0] and not lands[-1]
    elif tilt == "last_bin":
        assert lands[-1] and not lands[0]
    elif tilt == "no_bin":
        assert not lands.any()


def test_a_chunk_holds_spilled_and_last_bin_rays():
    # the premise of the spill_and_last_bin case above, from the reference
    # arithmetic: some chunk of sample rows lands rays both in the last grid
    # bin and off the grid
    samples, nodes, extent, cells, tilt = SPILL_AND_LAST_BIN
    sun = hf.SunPosition(azimuth=30.0, elevation=40.0)
    s = hf.sun_vector(sun)
    dirs, _ = hf.cone_directions(hf.SunshapeModel(half_angle=2.5e-3), s, *nodes)
    dirs = dirs + TILTS[tilt]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rows = max(1, flux._CHUNK_RAYS // len(dirs))
    assert samples * samples > rows  # a facet spans more than one chunk
    cell = extent / cells
    both = False
    for facet in reference_facets(sun=sun):
        points, normals, _ = facet.sample_grid(samples)
        cos_i = normals @ dirs.T
        out = 2.0 * cos_i[:, :, None] * normals[:, None, :] - dirs[None, :, :]
        t = -points[:, None, 0] / out[:, :, 0]
        iy = np.floor((points[:, None, 1] + t * out[:, :, 1] + 0.5 * extent) / cell)
        iz = np.floor((points[:, None, 2] + t * out[:, :, 2] + 0.5 * extent) / cell)
        on_grid = (out[:, :, 0] < 0.0) & (iy >= 0) & (iy < cells) & (iz >= 0) & (iz < cells)
        last = on_grid & (iy == cells - 1) & (iz == cells - 1)
        for start in range(0, samples * samples, rows):
            chunk = slice(start, start + rows)
            both |= bool(last[chunk].any() and not on_grid[chunk].all())
    assert both


def test_ray_loop_memory_is_bounded_by_its_chunk():
    # 96^2 samples x 1152 directions is 10.6 M rays of one facet; per-ray
    # buffers of the whole facet would take 170 MB
    facet = reference_facets()[0]
    facet.sample_grid(96)  # builds the cached facet-local grid outside the count
    s = hf.sun_vector(hf.SunPosition(azimuth=0.0, elevation=44.63))
    dirs, weights = hf.cone_directions(hf.SunshapeModel(), s, 24, 48)
    grid = hf.GridSpec(extent=4.0, cells=256)
    tracemalloc.start()
    try:
        flux._trace_spot([facet], dirs, weights, s, grid, 96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ray_loop_restores_numpy_state():
    facets = reference_facets()
    s = hf.sun_vector(hf.SunPosition(azimuth=0.0, elevation=44.63))
    # 1152 directions: the loop sets the ufunc buffer to their row
    dirs, weights = hf.cone_directions(hf.SunshapeModel(), s, 24, 48)
    grid = hf.GridSpec(extent=4.0, cells=64)
    # a second facet turned away from the sun: the loop raises after tracing
    # the first
    backlit = dataclasses.replace(facets[0], axes=-facets[0].axes)
    with np.errstate(over="raise", under="warn"):
        bufsize = np.setbufsize(4096)  # numpy 1.x keeps it outside errstate
        try:
            errors = np.geterr()
            flux._trace_spot(facets, dirs, weights, s, grid, 8)
            assert (np.getbufsize(), np.geterr()) == (4096, errors)
            with pytest.raises(BacklitMirror):
                flux._trace_spot([facets[0], backlit], dirs, weights, s, grid, 8)
            assert (np.getbufsize(), np.geterr()) == (4096, errors)
        finally:
            np.setbufsize(bufsize)


# --- convolution engine ---------------------------------------------------------

def test_convolution_identity_with_delta_kernel():
    facets = reference_facets()
    sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
    delta = hf.SunshapeModel(kind="pillbox", half_angle=1e-9)
    conv = hf.convolve_flux(facets, sun, delta, hf.ReceiverSpec())
    spot = hf.geometric_spot(facets, sun, hf.ReceiverSpec())
    assert np.array_equal(conv.values, spot.values)


def test_convolution_matches_grt_both_variants(noon_maps):
    for variant in ("spherical", "off_axis"):
        ref = noon_maps[(variant, "single", "grt")]
        conv = noon_maps[(variant, "single", "conv")]
        diff = conv.values - ref.values
        rms = math.sqrt(float((diff ** 2).mean()))
        assert rms / ref.values.max() <= 0.02


def test_convolution_total_matches_stage1():
    facets = reference_facets()
    sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
    shape = hf.SunshapeModel(half_angle=2.5e-3)
    conv = hf.convolve_flux(facets, sun, shape, hf.ReceiverSpec())
    spot = hf.geometric_spot(facets, sun, hf.ReceiverSpec())
    assert conv.values.sum() == pytest.approx(spot.values.sum(), rel=1e-6)


def test_convolution_flat_facet_footprint():
    facets = single_flat_facet_scene()
    grid = hf.GridSpec(extent=8.0, cells=512)
    shape = hf.SunshapeModel(kind="pillbox", half_angle=4.65e-3)
    m = hf.convolve_flux(facets, NORMAL_SUN, shape, hf.ReceiverSpec(grid=grid))
    # a flat mirror cannot concentrate: the peak stays below one sun
    assert m.values.max() <= 1.0 + 1e-9
    assert m.values.max() > 0.5
    # footprint = facet image (about 1 m at 30 deg receiver tilt) + sun disc
    occupied = np.abs(m.grid.centres()[np.any(m.values > 1e-9, axis=1)])
    assert occupied.max() < 0.5 / math.cos(math.radians(30.0)) + 0.93 / 2 + 0.1


def test_convolution_rejects_grid_smaller_than_spot():
    # a late-day astigmatic spot is far wider than a 1 m grid; the kernel
    # itself passes the aliasing guard, but the convolution would push more
    # than 1% of the power off the grid
    facets = reference_facets(variant="spherical",
                              sun=hf.SunPosition(azimuth=54.562, elevation=29.786))
    small = hf.GridSpec(extent=0.5, cells=32)
    shape = hf.SunshapeModel(half_angle=0.3e-3)
    with pytest.raises(GridTooSmall):
        hf.convolve_flux(facets, hf.SunPosition(azimuth=54.562, elevation=29.786),
                         shape, hf.ReceiverSpec(grid=small))


def test_convolution_rejects_facets_of_two_heliostats():
    # the kernel is built at the facets' mean centre, 50 m from each heliostat
    sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
    first, second = mirrored_pair_facets(sun)
    with pytest.raises(HelioFluxError):
        hf.convolve_flux(first + second, sun, hf.SunshapeModel(half_angle=2.5e-3),
                         hf.ReceiverSpec())


def test_convolution_peak_stable_under_grid_refinement():
    facets = reference_facets()
    sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
    shape = hf.SunshapeModel(half_angle=2.5e-3)
    peaks = {}
    for cells in (256, 512):
        grid = hf.GridSpec(cells=cells)
        peaks[cells] = hf.convolve_flux(facets, sun, shape,
                                        hf.ReceiverSpec(grid=grid)).values.max()
    assert abs(peaks[512] / peaks[256] - 1.0) < 0.01


def recorded_kernels(monkeypatch):
    """Every ``flux.build_kernel`` call from now on, as (arguments, kernel),
    with the kernel memo emptied first."""
    calls = []
    build = flux.build_kernel

    def recording(*args):
        kernel = build(*args)
        calls.append((args, kernel))
        return kernel

    flux._last_kernel.cache_clear()
    monkeypatch.setattr(flux, "build_kernel", recording)
    return calls


def test_the_memoized_kernel_is_read_only(monkeypatch):
    calls = recorded_kernels(monkeypatch)
    hf.convolve_flux(reference_facets(), hf.SunPosition(azimuth=0.0, elevation=44.63),
                     hf.SunshapeModel(), hf.ReceiverSpec())
    [(_, kernel)] = calls
    assert kernel.shape != (1, 1)
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0


def test_a_call_that_differs_in_grid_sunshape_or_path_length_builds_its_own_kernel(
        monkeypatch):
    calls = recorded_kernels(monkeypatch)
    sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
    facets, shape = reference_facets(), hf.SunshapeModel()
    receiver = hf.ReceiverSpec(grid=hf.GridSpec(extent=16.0, cells=256))
    # twice the centres: twice the path length, and bit for bit the same beam
    farther = [dataclasses.replace(f, centre=2.0 * f.centre) for f in facets]
    first = hf.convolve_flux(facets, sun, shape, receiver)
    again = hf.convolve_flux(facets, sun, shape, receiver)
    assert len(calls) == 1
    assert np.array_equal(again.values, first.values)
    for args in [(facets, sun, shape, hf.ReceiverSpec(grid=hf.GridSpec(16.0, 128))),
                 (facets, sun, hf.SunshapeModel(kind="pillbox"), receiver),
                 (farther, sun, shape, receiver)]:
        hf.convolve_flux(*args)
    assert len(calls) == 4
    (base, _), (grid, _), (sunshape, _), (path, _) = calls
    differs = [[not np.array_equal(a, b) for a, b in zip(base, other)]
               for other in (grid, sunshape, path)]
    # (shape, path length, beam, grid)
    assert differs == [[False, False, False, True], [True, False, False, False],
                       [False, True, False, False]]
    assert path[1] == 2.0 * base[1]


# --- convolution on the spot's support against the full-grid reference --------

def _full_grid_convolve(spot, kernel):
    """``_convolve_padded`` before it cropped: the FFT spans the whole grid."""
    ny, nz = spot.shape
    ky, kz = kernel.shape
    py = scipy.fft.next_fast_len(ny + ky - 1)
    pz = scipy.fft.next_fast_len(nz + kz - 1)
    spectrum = scipy.fft.rfft2(spot, s=(py, pz)) * scipy.fft.rfft2(kernel, s=(py, pz))
    full = scipy.fft.irfft2(spectrum, s=(py, pz))
    return full[ky // 2:ky // 2 + ny, kz // 2:kz // 2 + nz]


@st.composite
def supports(draw):
    """(cells, row span, column span, kernel shape, seed) of a boxed spot.

    Each span starts at the grid edge or anywhere, and is one cell long,
    runs to the far edge or has any length, so boxes touch every edge and
    corner and shrink to a single cell.  Kernels run from 3x3 to half the
    grid, odd or even.
    """
    n = draw(st.integers(16, 96))
    spans = []
    for _ in range(2):
        start = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
        stop = draw(st.one_of(st.just(start + 1), st.just(n), st.integers(start + 1, n)))
        spans.append((start, stop))
    kernel = tuple(draw(st.integers(3, n // 2)) for _ in range(2))
    return n, spans[0], spans[1], kernel, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(supports())
@example((32, (0, 1), (31, 32), (3, 3), 0))     # one cell in a corner, smallest kernel
@example((32, (31, 32), (0, 32), (16, 16), 1))  # a full-width row, half-grid kernel
def test_support_convolution_matches_full_grid(case):
    n, (r0, r1), (c0, c1), (ky, kz), seed = case
    rng = np.random.default_rng(seed)
    spot = np.zeros((n, n))
    spot[r0:r1, c0:c1] = rng.uniform(0.1, 1.0, size=(r1 - r0, c1 - c0))
    kernel = rng.uniform(size=(ky, kz))
    got = flux._convolve_padded(spot, kernel)
    want = _full_grid_convolve(spot, kernel)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    # beyond the kernel's reach from the box, cells are exactly zero
    reach = np.zeros((n, n), dtype=bool)
    reach[max(r0 - ky // 2, 0):r1 + ky - 1 - ky // 2,
          max(c0 - kz // 2, 0):c1 + kz - 1 - kz // 2] = True
    assert not got[~reach].any()


def test_fast_length_matches_scipy_next_fast_len():
    # the engine pads as scipy does, so the FFT work, and the benchmark tracer's
    # flux.fft_points, which counts with scipy's function, stay as they were
    lengths = range(1, 20001)
    assert [flux._fast_length(n) for n in lengths] == [scipy.fft.next_fast_len(n)
                                                        for n in lengths]


NO_SCIPY_RUN = """
import dataclasses
import os
import sys
import helioflux as hf
from helioflux import cli
scene = hf.load_config(hf.table1_scene_path())
scene = hf.with_overrides(scene, engine="conv", grid_cells=64, surface_samples=4)
scene = dataclasses.replace(scene, schedule=scene.schedule[2:3], cases=("single",))
hf.day_course(scene)
forks = []
os.register_at_fork(before=lambda: forks.append("fork"))
cli.run(hf.with_overrides(scene, engine="grt", out_dir="out"))
assert forks == ["fork"], forks
print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"
               or m in ("concurrent.futures", "multiprocessing")))
"""


def test_package_runs_without_scipy(tmp_path):
    # a fresh interpreter, since this one has scipy loaded; point it at the
    # package under test.  Neither a conv day course nor a GRT run, which
    # forks its one child with os.fork, loads scipy, multiprocessing or
    # concurrent.futures, which no module of the package imports.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_spot_without_power_convolves_to_zero():
    out = flux._convolve_padded(np.zeros((32, 32)), np.ones((5, 5)) / 25.0)
    assert out.shape == (32, 32) and not out.any()


def test_convolve_flux_with_every_ray_spilled_is_zero():
    # facets aimed for the sun at (0, 30) reflect a sun 20 degrees west of it
    # well past the 8 m grid
    facets = single_flat_facet_scene()
    sun = hf.SunPosition(azimuth=20.0, elevation=30.0)
    m = hf.convolve_flux(facets, sun, hf.SunshapeModel(), hf.ReceiverSpec(
        grid=hf.GridSpec(extent=8.0, cells=64)))
    assert m.spilled_power == pytest.approx(analytic_aperture_power(facets, sun), rel=1e-3)
    assert m.values.shape == (64, 64) and not m.values.any()


# --- map algebra ----------------------------------------------------------------

def make_map(values, **kwargs):
    values = np.asarray(values, dtype=float)
    grid = kwargs.pop("grid", hf.GridSpec(extent=1.0 * values.shape[0],
                                          cells=values.shape[0]))
    defaults = dict(grid=grid, dni=1.0, engine="test",
                    sun=hf.SunPosition(azimuth=0.0, elevation=45.0),
                    heliostat_ids=("t",), spilled_power=0.0)
    defaults.update(kwargs)
    return hf.FluxMap(values=values, **defaults)


def test_map_add_identity_and_commutativity():
    rng = np.random.default_rng(5)
    a = make_map(rng.uniform(size=(4, 4)))
    zero = make_map(np.zeros((4, 4)))
    b = make_map(rng.uniform(size=(4, 4)))
    assert np.array_equal(hf.map_add(a, zero).values, a.values)
    assert np.array_equal(hf.map_add(a, b).values, hf.map_add(b, a).values)


def test_map_add_rejects_mismatched_grids():
    a = make_map(np.zeros((4, 4)))
    b = make_map(np.zeros((6, 6)))
    with pytest.raises(GridMismatch):
        hf.map_add(a, b)
    c = make_map(np.zeros((4, 4)), dni=2.0)
    with pytest.raises(GridMismatch):
        hf.map_add(a, c)


def test_map_add_rejects_maps_of_different_suns():
    a = make_map(np.zeros((4, 4)))
    b = make_map(np.zeros((4, 4)), sun=hf.SunPosition(azimuth=30.0, elevation=45.0))
    with pytest.raises(GridMismatch):
        hf.map_add(a, b)


def test_map_add_rejects_maps_of_different_engines():
    with pytest.raises(GridMismatch, match="engines"):
        hf.map_add(make_map(np.zeros((4, 4)), engine="grt"),
                   make_map(np.zeros((4, 4)), engine="conv"))


def test_map_add_merges_heliostat_ids():
    a = make_map(np.zeros((4, 4)), heliostat_ids=("h1",))
    b = make_map(np.zeros((4, 4)), heliostat_ids=("h2",))
    assert hf.map_add(a, b).heliostat_ids == ("h1", "h2")


def test_map_stats_uniform_and_delta():
    uniform = make_map(np.ones((2, 2)), grid=hf.GridSpec(1.0, 2))
    stats = hf.map_stats(uniform)
    assert stats["peak"] == 1.0
    assert stats["total_power"] == pytest.approx(1.0, abs=1e-12)
    assert stats["centroid"] == (pytest.approx(0.0, abs=1e-12),
                                 pytest.approx(0.0, abs=1e-12))

    values = np.zeros((4, 4))
    values[3, 1] = 5.0
    delta = make_map(values, grid=hf.GridSpec(4.0, 4))
    stats = hf.map_stats(delta)
    assert stats["centroid"][0] == pytest.approx(delta.grid.centres()[3], abs=1e-12)
    assert stats["centroid"][1] == pytest.approx(delta.grid.centres()[1], abs=1e-12)


def test_map_stats_of_a_zero_map():
    stats = hf.map_stats(make_map(np.zeros((4, 4))))
    assert (stats["peak"], stats["total_power"], stats["spill_fraction"]) == (0.0, 0.0, 0.0)
    assert all(math.isnan(c) for c in stats["centroid"])


def test_map_stats_rejects_empty():
    empty = hf.FluxMap(values=np.zeros((0, 0)), grid=hf.GridSpec(),
                       dni=1.0, engine="test",
                       sun=hf.SunPosition(azimuth=0.0, elevation=45.0),
                       heliostat_ids=())
    with pytest.raises(ValueError):
        hf.map_stats(empty)


def test_map_total_power_reference_scene():
    facets = reference_facets()
    sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
    m = hf.trace_flux_grt(facets, sun, hf.SunshapeModel(half_angle=2.5e-3),
                          hf.ReceiverSpec())
    # 8 modules x 0.98 m^2 at the reference incidence
    expected = 8 * 0.7 * 1.4 * math.cos(math.radians(25.98))
    assert m.total_power + m.spilled_power == pytest.approx(expected, rel=1e-2)


def test_grt_is_linear_over_heliostats():
    # tracing two heliostats in one call equals the cell-wise sum of the
    # separate maps exactly (no interaction terms: shadowing is out of scope)
    sun = hf.SunPosition(azimuth=0.0, elevation=44.63)
    shape = hf.SunshapeModel(half_angle=2.5e-3)
    receiver = hf.ReceiverSpec()
    facet_sets = mirrored_pair_facets(sun)
    kwargs = dict(surface_samples=8, radial_nodes=6, azimuth_nodes=12)
    combined = hf.trace_flux_grt(facet_sets[0] + facet_sets[1], sun, shape,
                                 receiver, **kwargs)
    separate = hf.map_add(
        hf.trace_flux_grt(facet_sets[0], sun, shape, receiver, **kwargs),
        hf.trace_flux_grt(facet_sets[1], sun, shape, receiver, **kwargs))
    # identical ray sets; only the per-facet accumulation grouping differs
    tol = 1e-12 * combined.values.max()
    assert np.abs(combined.values - separate.values).max() <= tol


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        hf.GridSpec(cells=255)  # odd
    with pytest.raises(ValueError):
        hf.GridSpec(extent=-1.0)
