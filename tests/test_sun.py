"""Sun vectors, the ephemeris against an independent oracle, and kernels."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import helioflux as hf
from helioflux import flux, sun
from helioflux.errors import ConfigError, DegenerateGeometry, KernelAliasingError

UTC = timezone.utc


# --- independent ephemeris oracle (PSA algorithm, Blanco-Muriel 2001) -------

def psa_sun_position(lat_deg, lon_deg, t):
    y, m, d = t.year, t.month, t.day
    hour = t.hour + t.minute / 60 + t.second / 3600
    aux1 = int((m - 14) / 12.0)  # C-style truncation toward zero
    aux2 = ((1461 * (y + 4800 + aux1)) // 4 + (367 * (m - 2 - 12 * aux1)) // 12
            - (3 * ((y + 4900 + aux1) // 100)) // 4 + d - 32075)
    jd = aux2 - 0.5 + hour / 24.0
    n = jd - 2451545.0
    omega = 2.1429 - 0.0010394594 * n
    mean_lon = 4.8950630 + 0.017202791698 * n
    anomaly = 6.2400600 + 0.0172019699 * n
    ecl_lon = (mean_lon + 0.03341607 * math.sin(anomaly)
               + 0.00034894 * math.sin(2 * anomaly) - 0.0001134
               - 0.0000203 * math.sin(omega))
    obliquity = 0.4090928 - 6.2140e-9 * n + 0.0000396 * math.cos(omega)
    ra = math.atan2(math.cos(obliquity) * math.sin(ecl_lon),
                    math.cos(ecl_lon)) % (2 * math.pi)
    dec = math.asin(math.sin(obliquity) * math.sin(ecl_lon))
    gmst = 6.6974243242 + 0.0657098283 * n + hour
    lmst = math.radians(gmst * 15 + lon_deg)
    ha = lmst - ra
    lat = math.radians(lat_deg)
    el = math.asin(math.sin(dec) * math.sin(lat)
                   + math.cos(dec) * math.cos(lat) * math.cos(ha))
    az = math.atan2(math.sin(ha), math.cos(ha) * math.sin(lat)
                    - math.tan(dec) * math.cos(lat))
    return math.degrees(az), math.degrees(el)


# --- sun_vector --------------------------------------------------------------

def test_sun_vector_zenith():
    v = hf.sun_vector(hf.SunPosition(azimuth=0.0, elevation=90.0))
    assert np.allclose(v, [0.0, 0.0, 1.0], atol=1e-12)


def test_sun_vector_reference_direction():
    v = hf.sun_vector(hf.SunPosition(azimuth=0.0, elevation=44.63))
    h = math.radians(44.63)
    assert np.allclose(v, [-math.cos(h), 0.0, math.sin(h)], atol=1e-15)
    assert np.allclose(v, [-0.7116, 0.0, 0.7025], atol=1e-4)


def test_sun_vector_rising_sun_points_east():
    v = hf.sun_vector(hf.SunPosition(azimuth=-90.0, elevation=1e-6))
    assert np.allclose(v, [0.0, -1.0, 0.0], atol=1e-6)


def test_sun_vector_rejects_horizon():
    with pytest.raises(ValueError):
        hf.sun_vector(hf.SunPosition(azimuth=0.0, elevation=0.0))
    with pytest.raises(ValueError):
        hf.sun_vector(hf.SunPosition(azimuth=0.0, elevation=-5.0))


def test_sun_position_validates_elevation_range():
    with pytest.raises(ValueError):
        hf.SunPosition(azimuth=0.0, elevation=91.0)


@pytest.mark.parametrize("azimuth", [math.nan, math.inf, -math.inf])
def test_sun_position_rejects_non_finite_azimuth(azimuth):
    with pytest.raises(ConfigError, match="azimuth"):
        hf.SunPosition(azimuth=azimuth, elevation=40.0)


# --- ephemeris ---------------------------------------------------------------

def test_ephemeris_matches_independent_oracle():
    site = hf.SiteSpec(latitude=45.37, longitude=0.0)
    worst = 0.0
    for year in (1955, 1980, 2004, 2022, 2050, 2090):
        for month in (1, 3, 6, 9, 11):
            for hour in (8, 11, 14, 16):
                t = datetime(year, month, 15, hour, 0, tzinfo=UTC)
                for lat, lon in ((45.37, 0.0), (20.0, 10.0), (60.0, -5.0),
                                 (-33.0, 18.0)):
                    got = hf.ephemeris(hf.SiteSpec(lat, lon), t)
                    az, el = psa_sun_position(lat, lon, t)
                    if not 5.0 < el < 80.0:
                        continue
                    worst = max(worst, abs(got.elevation - el),
                                abs((got.azimuth - az + 180.0) % 360.0 - 180.0))
    assert worst < 0.3


def test_ephemeris_reference_scene_noon():
    site = hf.SiteSpec(latitude=45.37, longitude=0.0)
    t = datetime(2022, 9, 23, 12, 0, tzinfo=UTC)
    pos = hf.ephemeris(site, t)
    # site latitude chosen as 90 - 44.63 so equinox noon reaches the
    # reference elevation
    assert pos.elevation == pytest.approx(44.63, abs=0.3)
    # 12:00 UT is ~7.6 min past apparent solar noon (equation of time), so
    # the azimuth sits slightly west of due south; oracle agreement is the
    # real contract
    az_oracle, el_oracle = psa_sun_position(45.37, 0.0, t)
    assert pos.azimuth == pytest.approx(az_oracle, abs=0.3)
    assert pos.elevation == pytest.approx(el_oracle, abs=0.3)
    assert abs(pos.azimuth) < 3.0


def test_ephemeris_azimuth_zero_at_apparent_noon():
    site = hf.SiteSpec(latitude=45.37, longitude=0.0)
    noon = datetime(2022, 9, 23, 12, 0, tzinfo=UTC)
    offset_min = hf.equation_of_time(noon)
    t = datetime(2022, 9, 23, 11, int(60 - offset_min), tzinfo=UTC)
    pos = hf.ephemeris(site, t)
    assert abs(pos.azimuth) < 1.0


def test_ephemeris_equinox_morning_afternoon_symmetry():
    # symmetric instants about apparent solar noon (mean noon shifted by the
    # equation of time); only the slow declination drift breaks the mirror
    site = hf.SiteSpec(latitude=45.37, longitude=0.0)
    mean_noon = datetime(2022, 9, 23, 12, 0, tzinfo=UTC)
    solar_noon = mean_noon - timedelta(minutes=hf.equation_of_time(mean_noon))
    el_am = hf.ephemeris(site, solar_noon - timedelta(hours=3)).elevation
    el_pm = hf.ephemeris(site, solar_noon + timedelta(hours=3)).elevation
    assert abs(el_am - el_pm) < 0.5


def test_ephemeris_equatorial_equinox_noon_near_zenith():
    mean_noon = datetime(2022, 9, 23, 12, 0, tzinfo=UTC)
    solar_noon = mean_noon - timedelta(minutes=hf.equation_of_time(mean_noon))
    pos = hf.ephemeris(hf.SiteSpec(0.0, 0.0), solar_noon)
    assert pos.elevation == pytest.approx(90.0, abs=0.5)


def test_ephemeris_equinox_noon_elevation_property():
    for lat in (0.0, 15.0, 30.0, 45.0, 60.0):
        site = hf.SiteSpec(latitude=lat, longitude=0.0)
        offset_min = hf.equation_of_time(datetime(2022, 9, 23, 12, 0, tzinfo=UTC))
        minute = 60 - offset_min
        t = datetime(2022, 9, 23, 11, int(minute), int((minute % 1) * 60), tzinfo=UTC)
        pos = hf.ephemeris(site, t)
        assert abs(pos.elevation - (90.0 - lat)) < 0.5


def test_ephemeris_rejects_out_of_range_years():
    site = hf.SiteSpec(latitude=45.0, longitude=0.0)
    with pytest.raises(ValueError):
        hf.ephemeris(site, datetime(1949, 6, 1, 12, 0, tzinfo=UTC))
    with pytest.raises(ValueError):
        hf.ephemeris(site, datetime(2101, 6, 1, 12, 0, tzinfo=UTC))


def test_ideal_equinox_path():
    noon = hf.ideal_equinox_position(45.37, 12.0)
    assert noon.azimuth == 0.0
    assert noon.elevation == pytest.approx(90.0 - 45.37, abs=1e-12)
    am = hf.ideal_equinox_position(45.37, 9.0)
    pm = hf.ideal_equinox_position(45.37, 15.0)
    assert am.azimuth == -pm.azimuth
    assert am.elevation == pm.elevation


def test_hour_label():
    assert hf.hour_label(9.0) == "09h00"
    assert hf.hour_label(10.5) == "10h30"


# --- sunshape radiance -------------------------------------------------------

def test_pillbox_radiance_is_flat():
    model = hf.SunshapeModel(kind="pillbox")
    assert hf.sunshape_radiance(model, 0.5) == 1.0
    assert np.all(hf.sunshape_radiance(model, np.linspace(0, 1, 11)) == 1.0)


def test_limb_darkened_radiance_profile():
    model = hf.SunshapeModel(kind="limb_darkened", limb_coefficient=0.5138)
    assert hf.sunshape_radiance(model, 0.0) == 1.0
    assert hf.sunshape_radiance(model, 1.0) == pytest.approx(0.4862, abs=1e-12)
    rho = np.linspace(0.0, 1.0, 101)
    values = hf.sunshape_radiance(model, rho)
    assert np.all(values >= 0.0)
    assert np.all(np.diff(values) <= 0.0)


def test_radiance_rejects_rho_outside_unit_interval():
    model = hf.SunshapeModel()
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            hf.sunshape_radiance(model, bad)


def test_sunshape_model_validation():
    with pytest.raises(ValueError):
        hf.SunshapeModel(kind="gaussian")
    with pytest.raises(ValueError):
        hf.SunshapeModel(half_angle=0.05)
    with pytest.raises(ValueError):
        hf.SunshapeModel(limb_coefficient=1.5)


# --- cone quadrature ---------------------------------------------------------

def test_cone_directions_weights_and_support():
    model = hf.SunshapeModel(kind="limb_darkened")
    axis = hf.normalize(np.array([-0.7, 0.1, 0.7]))
    dirs, weights = hf.cone_directions(model, axis, flux.DEFAULT_RADIAL_NODES,
                                        flux.DEFAULT_AZIMUTH_NODES)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights > 0.0)
    cos_off = dirs @ axis
    assert np.all(cos_off >= math.cos(model.half_angle) - 1e-12)
    assert np.allclose(np.einsum("ij,ij->i", dirs, dirs), 1.0, atol=1e-12)


def test_cone_directions_mean_is_axis():
    model = hf.SunshapeModel(kind="pillbox")
    axis = np.array([0.0, 0.0, 1.0])
    dirs, weights = hf.cone_directions(model, axis, flux.DEFAULT_RADIAL_NODES,
                                        flux.DEFAULT_AZIMUTH_NODES)
    mean = (dirs * weights[:, None]).sum(axis=0)
    assert np.allclose(mean / np.linalg.norm(mean), axis, atol=1e-12)


def even_count_cone(model, axis, radial, azimuthal):
    """The quadrature with azimuth nodes at (k + 1/2) 2 pi / A, which
    ``cone_directions`` keeps bit for bit at an even count A."""
    rho = (np.arange(radial) + 0.5) / radial
    theta = rho * model.half_angle
    ring_weight = np.sin(theta) * hf.sunshape_radiance(model, rho)
    psi = (np.arange(azimuthal) + 0.5) * (2.0 * math.pi / azimuthal)
    e1, e2 = sun.perpendicular_basis(axis)
    lateral = (np.cos(psi)[None, :, None] * e1[None, None, :]
               + np.sin(psi)[None, :, None] * e2[None, None, :])
    dirs = (np.cos(theta)[:, None, None] * axis[None, None, :]
            + np.sin(theta)[:, None, None] * lateral)
    weights = np.repeat(ring_weight, azimuthal)
    return dirs.reshape(-1, 3), weights / weights.sum()


@pytest.mark.parametrize("azimuthal", range(4, 10))
@pytest.mark.parametrize("radial", range(1, 4))
def test_cone_about_the_mirrored_axis_is_the_mirrored_cone(radial, azimuthal):
    # The X'-mirror M = diag(1, -1, 1) of the cone about S is the cone about
    # MS, as a set of directions with the same weights, for odd and even
    # azimuth counts, with axes in both branches of perpendicular_basis
    # (|S_z| below and above 0.99, i.e. elevation 81.9 degrees).  This is
    # what makes a mirror twin's GRT map the flip of its heliostat's.
    model = hf.SunshapeModel(kind="limb_darkened")
    mirror = np.array([1.0, -1.0, 1.0])
    for azimuth in (-60.0, -7.5, 0.0, 33.0):
        for elevation in (10.0, 44.63, 81.0, 85.0, 89.0):
            axis = hf.sun_vector(hf.SunPosition(azimuth=azimuth, elevation=elevation))
            dirs, weights = hf.cone_directions(model, axis, radial, azimuthal)
            twin_dirs, twin_weights = hf.cone_directions(model, axis * mirror, radial,
                                                         azimuthal)
            error = np.abs((dirs * mirror)[:, None, :] - twin_dirs[None, :, :]).max(axis=2)
            match = error.argmin(axis=1)
            assert sorted(match) == list(range(radial * azimuthal))
            assert error.min(axis=1).max() <= 1e-15
            assert np.array_equal(twin_weights[match], weights)
            if azimuthal % 2 == 0:
                even = even_count_cone(model, axis, radial, azimuthal)
                assert np.array_equal(dirs, even[0]) and np.array_equal(weights, even[1])


# --- projected kernels -------------------------------------------------------

def kernel_offsets(kernel, cell):
    half = kernel.shape[0] // 2
    return (np.arange(kernel.shape[0]) - half) * cell


def test_kernel_normal_incidence_disc():
    grid = hf.GridSpec()
    model = hf.SunshapeModel(kind="pillbox", half_angle=4.65e-3)
    beam = np.array([-1.0, 0.0, 0.0])
    kernel = hf.build_kernel(model, 100.0, beam, grid)
    assert kernel.sum() == pytest.approx(1.0, abs=1e-6)
    off = kernel_offsets(kernel, grid.cell_size)
    rr = np.hypot(off[:, None], off[None, :])
    radius = 100.0 * model.half_angle
    assert np.all(kernel[rr > radius + grid.cell_size] == 0.0)
    assert np.all(kernel[rr < radius - grid.cell_size] > 0.0)
    interior = kernel[rr < radius - grid.cell_size]
    assert interior.max() - interior.min() < 1e-12  # uniform pillbox interior
    # circular support: invariant under 90 degree rotation
    assert np.array_equal(kernel, np.rot90(kernel))


def test_kernel_oblique_ellipse_axes_vs_monte_carlo():
    grid = hf.GridSpec()
    model = hf.SunshapeModel(kind="pillbox", half_angle=4.65e-3)
    length = 100.0
    beam = hf.normalize(np.array([-math.cos(math.radians(30.0)),
                                  -math.sin(math.radians(30.0)), 0.0]))
    kernel = hf.build_kernel(model, length, beam, grid)
    off = kernel_offsets(kernel, grid.cell_size)
    occupied_y = off[np.any(kernel > 0.0, axis=1)]
    occupied_z = off[np.any(kernel > 0.0, axis=0)]
    minor = length * model.half_angle
    major = minor / math.cos(math.radians(30.0))
    # beam tilts within the X'Y' plane, so the major axis lies along y'
    assert occupied_y.max() == pytest.approx(major, abs=1.5 * grid.cell_size)
    assert occupied_z.max() == pytest.approx(minor, abs=1.5 * grid.cell_size)

    # Monte-Carlo oracle: project 1e6 cone directions onto the tilted plane
    rng = np.random.default_rng(2024)
    n = 1_000_000
    theta = model.half_angle * np.sqrt(rng.uniform(size=n))
    psi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    e1, e2 = hf.sun.perpendicular_basis(beam)
    dirs = (np.cos(theta)[:, None] * beam
            + np.sin(theta)[:, None] * (np.cos(psi)[:, None] * e1
                                        + np.sin(psi)[:, None] * e2))
    origin = -length * beam
    t = -origin[0] / dirs[:, 0]
    land_y = origin[1] + t * dirs[:, 1]
    land_z = origin[2] + t * dirs[:, 2]
    assert np.abs(land_y).max() == pytest.approx(major, rel=0.01)
    assert np.abs(land_z).max() == pytest.approx(minor, rel=0.01)


@pytest.mark.parametrize("cells", [64, 256, 1024])
def test_kernel_unit_sum_across_grids(cells):
    grid = hf.GridSpec(cells=cells)
    model = hf.SunshapeModel()
    beam = hf.normalize(np.array([-0.866, -0.5, 0.0]))
    kernel = hf.build_kernel(model, 100.0, beam, grid)
    assert kernel.sum() == pytest.approx(1.0, abs=1e-6)


def test_limb_darkened_kernel_peaks_above_pillbox():
    grid = hf.GridSpec()
    beam = hf.normalize(np.array([-0.866, -0.5, 0.0]))
    limb = hf.build_kernel(hf.SunshapeModel(kind="limb_darkened"), 100.0, beam, grid)
    pill = hf.build_kernel(hf.SunshapeModel(kind="pillbox"), 100.0, beam, grid)
    assert limb.max() >= pill.max()


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["pillbox", "limb_darkened"]),
       half_angle=st.floats(1e-5, 0.0199),
       limb=st.floats(0.0, 1.0),
       path_length=st.floats(1.0, 200.0),
       beam=st.tuples(st.floats(-1.0, 0.1), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       extent=st.floats(0.1, 20.0),
       half_cells=st.integers(1, 128))
@example(kind="pillbox", half_angle=4.65e-3, limb=0.5, path_length=100.0,
         beam=(-5e-324, 1.0, 0.0), extent=4.0, half_cells=128)  # grazing beam
def test_kernel_properties_on_random_square_grids(kind, half_angle, limb, path_length,
                                                  beam, extent, half_cells):
    norm = math.sqrt(sum(b * b for b in beam))
    assume(norm > 1e-3)
    beam = np.array(beam) / norm
    model = hf.SunshapeModel(kind=kind, half_angle=half_angle, limb_coefficient=limb)
    grid = hf.GridSpec(extent=extent, cells=2 * half_cells)
    try:
        kernel = hf.build_kernel(model, path_length, beam, grid)
    except (KernelAliasingError, DegenerateGeometry):
        return
    size = kernel.shape[0]
    assert kernel.shape == (size, size) and size % 2 == 1
    assert np.all(np.isfinite(kernel)) and np.all(kernel >= 0.0)
    assert abs(kernel.sum() - 1.0) <= 1e-12
    assert kernel[size // 2, size // 2] > 0.0
    # the nearest off-centre subsample lies a third of a cell away: a sun
    # ellipse inside that radius covers one subsample and is an exact delta
    r_major = path_length * half_angle / -beam[0]
    if r_major < 0.999 * grid.cell_size / 3.0:
        assert kernel.tolist() == [[1.0]]


def test_kernel_aliasing_guard():
    grid = hf.GridSpec(extent=1.0, cells=64)
    model = hf.SunshapeModel(half_angle=4.65e-3)
    beam = np.array([-1.0, 0.0, 0.0])
    with pytest.raises(KernelAliasingError):
        hf.build_kernel(model, 100.0, beam, grid)


def test_kernel_rejects_backface_beam():
    grid = hf.GridSpec()
    with pytest.raises(DegenerateGeometry):
        hf.build_kernel(hf.SunshapeModel(), 100.0, np.array([1.0, 0.0, 0.0]), grid)
    with pytest.raises(ValueError):
        hf.build_kernel(hf.SunshapeModel(), -1.0, np.array([-1.0, 0.0, 0.0]), grid)
