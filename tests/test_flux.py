"""Flux engines: conservation, engine agreement, map algebra."""

import math

import numpy as np
import pytest

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
        _, normal = facet.surface(0.0, 0.0)
        total += facet.area * float(normal @ s) * facet.reflectivity * dni
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
    grid = hf.GridSpec(extent_y=8.0, extent_z=8.0, cells_y=256, cells_z=256)
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
    centre = m.grid.cells_y // 2
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
    tiny = hf.GridSpec(extent_y=0.5, extent_z=0.5, cells_y=32, cells_z=32)
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
    grid = hf.GridSpec(extent_y=4.0, extent_z=4.0, cells_y=64, cells_z=64)
    dni = 800.0
    power, spilled = flux._trace_spot(facets, dirs, weights, dirs[-1], grid, dni, 8)
    expected = dni * sum(f.area * f.reflectivity
                         * float(weights @ np.maximum(dirs @ f.axes[:, 0], 0.0))
                         for f in facets)
    assert power.sum() == pytest.approx(dni * 0.9 * 0.2, rel=1e-12)
    assert power.sum() + spilled == pytest.approx(expected, rel=1e-12)


# --- ray kernel against the unchunked reference -------------------------------

def _reference_deposit(y, z, weights, grid):
    """Deposit of the unchunked ray loop below."""
    cell = grid.cell_size
    iy = np.floor((y + 0.5 * grid.extent_y) / cell).astype(np.int64)
    iz = np.floor((z + 0.5 * grid.extent_z) / cell).astype(np.int64)
    ok = (iy >= 0) & (iy < grid.cells_y) & (iz >= 0) & (iz < grid.cells_z)
    flat = iy[ok] * grid.cells_z + iz[ok]
    power = np.bincount(flat, weights=weights[ok],
                        minlength=grid.cells_y * grid.cells_z)
    spilled = float(weights.sum() - weights[ok].sum())
    return power.reshape(grid.cells_y, grid.cells_z), spilled


def _reference_trace_spot(facets, sun_dirs, dir_weights, central_sun, grid, dni,
                          surface_samples):
    """The ray loop before chunking: whole-facet arrays, one deposit per facet."""
    power = np.zeros((grid.cells_y, grid.cells_z))
    spilled = 0.0
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
        weights = ((dni * cell_area * facet.reflectivity)
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
        facet_power, facet_spill = _reference_deposit(land_y.ravel(), land_z.ravel(),
                                                      weights.ravel(), grid)
        power += facet_power
        spilled += facet_spill
    return power, spilled


@pytest.mark.parametrize("samples, nodes, extent, cells", [
    (33, (6, 12), 4.0, 64),    # 33^2 sample rows: chunks with a remainder
    (33, (6, 12), 0.5, 32),    # a grid so small that rays spill
    (12, (24, 48), 4.0, 128),  # default cone quadrature, short chunks
    (33, None, 0.5, 32),       # one direction: the geometric-spot path
])
def test_chunked_ray_kernel_matches_unchunked_reference(samples, nodes, extent, cells):
    sun = hf.SunPosition(azimuth=30.0, elevation=40.0)
    facets = reference_facets(sun=sun)
    s = hf.sun_vector(sun)
    if nodes is None:
        dirs, weights = s[None, :], np.ones(1)
    else:
        dirs, weights = hf.cone_directions(hf.SunshapeModel(half_angle=2.5e-3), s, *nodes)
    rows = max(1, flux._CHUNK_RAYS // len(dirs))
    assert nodes is None or (samples * samples > rows and samples * samples % rows)
    grid = hf.GridSpec(extent_y=extent, extent_z=extent, cells_y=cells, cells_z=cells)
    power, spilled = flux._trace_spot(facets, dirs, weights, s, grid, 1.0, samples)
    ref_power, ref_spilled = _reference_trace_spot(facets, dirs, weights, s, grid, 1.0,
                                                   samples)
    assert np.array_equal(power, ref_power)
    # the spill bin sums its rays in another order than the reference
    assert spilled == pytest.approx(ref_spilled, rel=1e-12)
    assert (spilled > 0.0) == (extent < 1.0)


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
    grid = hf.GridSpec(extent_y=8.0, extent_z=8.0, cells_y=512, cells_z=512)
    shape = hf.SunshapeModel(kind="pillbox", half_angle=4.65e-3)
    m = hf.convolve_flux(facets, NORMAL_SUN, shape, hf.ReceiverSpec(grid=grid))
    # a flat mirror cannot concentrate: the peak stays below one sun
    assert m.values.max() <= 1.0 + 1e-9
    assert m.values.max() > 0.5
    # footprint = facet image (about 1 m at 30 deg receiver tilt) + sun disc
    occupied = np.abs(m.grid.centres_y()[np.any(m.values > 1e-9, axis=1)])
    assert occupied.max() < 0.5 / math.cos(math.radians(30.0)) + 0.93 / 2 + 0.1


def test_convolution_rejects_grid_smaller_than_spot():
    # a late-day astigmatic spot is far wider than a 1 m grid; the kernel
    # itself passes the aliasing guard, but the convolution would push more
    # than 1% of the power off the grid
    facets = reference_facets(variant="spherical",
                              sun=hf.SunPosition(azimuth=54.562, elevation=29.786))
    small = hf.GridSpec(extent_y=0.5, extent_z=0.5, cells_y=32, cells_z=32)
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
        grid = hf.GridSpec(cells_y=cells, cells_z=cells)
        peaks[cells] = hf.convolve_flux(facets, sun, shape,
                                        hf.ReceiverSpec(grid=grid)).values.max()
    assert abs(peaks[512] / peaks[256] - 1.0) < 0.01


# --- map algebra ----------------------------------------------------------------

def make_map(values, **kwargs):
    values = np.asarray(values, dtype=float)
    grid = kwargs.pop("grid", hf.GridSpec(extent_y=1.0 * values.shape[0],
                                          extent_z=1.0 * values.shape[1],
                                          cells_y=values.shape[0],
                                          cells_z=values.shape[1]))
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


def test_map_add_merges_heliostat_ids():
    a = make_map(np.zeros((4, 4)), heliostat_ids=("h1",))
    b = make_map(np.zeros((4, 4)), heliostat_ids=("h2",))
    assert hf.map_add(a, b).heliostat_ids == ("h1", "h2")


def test_map_stats_uniform_and_delta():
    uniform = make_map(np.ones((2, 2)), grid=hf.GridSpec(1.0, 1.0, 2, 2))
    stats = hf.map_stats(uniform)
    assert stats["peak"] == 1.0
    assert stats["total_power"] == pytest.approx(1.0, abs=1e-12)
    assert stats["centroid"] == (pytest.approx(0.0, abs=1e-12),
                                 pytest.approx(0.0, abs=1e-12))

    values = np.zeros((4, 4))
    values[3, 1] = 5.0
    delta = make_map(values, grid=hf.GridSpec(4.0, 4.0, 4, 4))
    stats = hf.map_stats(delta)
    assert stats["centroid"][0] == pytest.approx(delta.grid.centres_y()[3], abs=1e-12)
    assert stats["centroid"][1] == pytest.approx(delta.grid.centres_z()[1], abs=1e-12)


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
        hf.GridSpec(cells_y=255, cells_z=255)  # odd
    with pytest.raises(ValueError):
        hf.GridSpec(extent_y=4.0, extent_z=2.0, cells_y=256, cells_z=256)  # not square
    with pytest.raises(ValueError):
        hf.GridSpec(extent_y=-1.0)
