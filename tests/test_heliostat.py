"""Module layout, canting formulas against the golden tilt table, facets."""

import dataclasses
import math

import numpy as np
import pytest

import helioflux as hf
from helioflux.errors import DegenerateGeometry
from helioflux.heliostat import canting_rotation

REF_SUN = hf.SunPosition(azimuth=0.0, elevation=44.63)

# Golden tilt table for the bundled scene, reported convention, mrad.
# (i, j) -> (spherical a, spherical h, off-axis a, off-axis h, diff a, diff h)
GOLDEN_TILTS = {
    (1, 1): (12.75, 7.50, 14.19, 8.34, 1.44, 0.84),
    (2, 1): (4.25, 7.50, 5.20, 7.55, 0.95, 0.05),
    (3, 1): (-4.25, 7.50, -3.85, 6.78, 0.40, -0.72),
    (4, 1): (-12.75, 7.50, -12.94, 6.04, -0.19, -1.46),
    (1, 2): (12.75, -7.50, 12.75, -5.89, 0.00, 1.61),
    (2, 2): (4.25, -7.50, 3.80, -6.70, -0.45, 0.80),
    (3, 2): (-4.25, -7.50, -5.19, -7.49, -0.94, 0.01),
    (4, 2): (-12.75, -7.50, -14.24, -8.24, -1.49, -0.74),
}


@pytest.fixture
def scene_parts():
    spec = hf.HeliostatSpec(name="h1")
    layout = hf.module_centres(spec)
    d = spec.slant_distance
    ctx = hf.off_axis_context(spec, REF_SUN)
    return spec, layout, d, ctx


# --- module layout -----------------------------------------------------------

def test_module_centres_reference_grid():
    layout = hf.module_centres(hf.HeliostatSpec())
    assert np.allclose(layout.y, [1.275, 0.425, -0.425, -1.275], atol=1e-12)
    assert np.allclose(layout.z, [0.75, -0.75], atol=1e-12)


def test_module_centres_single_module():
    spec = hf.HeliostatSpec(width=1.0, height=1.0, modules_across=1, modules_up=1,
                            module_width=1.0, module_height=1.0)
    layout = hf.module_centres(spec)
    assert layout.y == pytest.approx([0.0])
    assert layout.z == pytest.approx([0.0])


def test_module_centres_sum_to_zero():
    spec = hf.HeliostatSpec(width=5.0, height=4.2, modules_across=5, modules_up=3,
                            module_width=0.9, module_height=1.3)
    layout = hf.module_centres(spec)
    assert layout.grid_y.sum() == pytest.approx(0.0, abs=1e-12)
    assert layout.grid_z.sum() == pytest.approx(0.0, abs=1e-12)


def test_heliostat_spec_validation():
    with pytest.raises(ValueError):
        hf.HeliostatSpec(modules_across=0)
    with pytest.raises(ValueError):
        hf.HeliostatSpec(module_width=1.0)  # 4 x 1.0 > 3.4
    with pytest.raises(ValueError):
        hf.HeliostatSpec(reflectivity=1.2)
    with pytest.raises(ValueError, match="reflectivity"):
        hf.HeliostatSpec(reflectivity=0.0)


# --- spherical canting -------------------------------------------------------

def test_spherical_canting_golden_values(scene_parts):
    spec, layout, d, _ = scene_parts
    reported = hf.canting_report(hf.spherical_canting(spec, layout, d))
    for (i, j), row in GOLDEN_TILTS.items():
        assert reported[i - 1, j - 1, 0] == pytest.approx(row[0], abs=0.01)
        assert reported[i - 1, j - 1, 1] == pytest.approx(row[1], abs=0.01)


def test_spherical_canting_centre_module_is_flat():
    spec = hf.HeliostatSpec(width=3.0, height=3.0, modules_across=3, modules_up=3,
                            module_width=1.0, module_height=1.0)
    layout = hf.module_centres(spec)
    canting = hf.spherical_canting(spec, layout, 100.0)
    assert canting.a[1, 1] == 0.0
    assert canting.h[1, 1] == 0.0


def test_report_doubles_the_mirror_rotation():
    spec = hf.HeliostatSpec()
    layout = hf.module_centres(spec)
    canting = hf.spherical_canting(spec, layout, 100.0)
    assert canting.a[0, 0] == pytest.approx(6.375e-3, abs=1e-12)
    assert hf.canting_report(canting)[0, 0, 0] == pytest.approx(12.75, abs=1e-9)


def test_zero_canting_reports_zero():
    zero = hf.CantingSet(a=np.zeros((4, 2)), h=np.zeros((4, 2)))
    assert np.all(hf.canting_report(zero) == 0.0)


# --- off-axis canting --------------------------------------------------------

def test_off_axis_context_reference_quantities(scene_parts):
    spec, _, _, ctx = scene_parts
    assert math.degrees(ctx.incidence0) == pytest.approx(25.98, abs=0.05)
    # the reference sun's direction cosines on the heliostat Y and Z axes
    s0 = hf.sun_vector(REF_SUN)
    frame = hf.heliostat_frame(hf.bisector_normal(s0, spec.target_direction()).normal)
    sin_i0 = math.sin(ctx.incidence0)
    assert s0 @ frame[:, 1] == pytest.approx(sin_i0 * math.cos(ctx.phi), abs=1e-12)
    assert s0 @ frame[:, 2] == pytest.approx(sin_i0 * math.sin(ctx.phi), abs=1e-12)


def test_off_axis_canting_golden_values(scene_parts):
    spec, layout, d, ctx = scene_parts
    reported = hf.canting_report(hf.off_axis_canting(spec, layout, ctx, d))
    deltas = []
    for (i, j), row in GOLDEN_TILTS.items():
        deltas.append(reported[i - 1, j - 1, 0] - row[2])
        deltas.append(reported[i - 1, j - 1, 1] - row[3])
    deltas = np.array(deltas)
    assert np.abs(deltas).max() <= 0.15
    assert math.sqrt(float((deltas ** 2).mean())) <= 0.08


def test_off_axis_difference_columns(scene_parts):
    spec, layout, d, ctx = scene_parts
    sph = hf.spherical_canting(spec, layout, d)
    oa = hf.off_axis_canting(spec, layout, ctx, d)
    rows = hf.canting_table(layout, sph, oa)
    by_index = {(i, j): (da, dh) for i, j, _, _, _, _, da, dh in rows}
    for (i, j), row in GOLDEN_TILTS.items():
        da, dh = by_index[(i, j)]
        assert da == pytest.approx(row[4], abs=0.15)
        assert dh == pytest.approx(row[5], abs=0.2)
    # difference columns re-derive from the two sets exactly
    rep_s = hf.canting_report(sph)
    rep_o = hf.canting_report(oa)
    for i, j, sa, sh, oa_a, oa_h, da, dh in rows:
        assert da == pytest.approx(rep_o[i-1, j-1, 0] - rep_s[i-1, j-1, 0], abs=1e-12)
        assert dh == pytest.approx(rep_o[i-1, j-1, 1] - rep_s[i-1, j-1, 1], abs=1e-12)


def test_off_axis_hand_evaluated_case():
    # direct arithmetic with i0 = 26.00 deg, cos^2 phi = 0.2408,
    # sin 2phi = -0.8553 for module (1, 1) at (1.275, 0.75), d = 100
    i0 = math.radians(26.0)
    cos_i0, sin_i0 = math.cos(i0), math.sin(i0)
    cos2_phi = 0.2408
    sin_2phi = -0.8553
    d = 100.0
    y, z = 1.275, 0.75
    along = (cos_i0 ** 2 * cos2_phi + (1.0 - cos2_phi)) / cos_i0
    across = (cos_i0 ** 2 * (1.0 - cos2_phi) + cos2_phi) / cos_i0
    skew = sin_2phi * sin_i0 ** 2 / cos_i0
    expect_a = 2000.0 * (y / (2 * d) * along - z / (4 * d) * skew)
    expect_h = 2000.0 * (-y / (4 * d) * skew + z / (2 * d) * across)
    assert expect_a == pytest.approx(14.21, abs=0.01)
    assert expect_h == pytest.approx(8.29, abs=0.01)

    # the implementation fed with the same reference quantities agrees
    cos_phi = -math.sqrt(cos2_phi)
    sin_phi = math.sqrt(1.0 - cos2_phi)
    ctx = hf.OffAxisContext(incidence0=i0, phi=math.atan2(sin_phi, cos_phi))
    spec = hf.HeliostatSpec()
    layout = hf.module_centres(spec)
    reported = hf.canting_report(hf.off_axis_canting(spec, layout, ctx, d))
    assert reported[0, 0, 0] == pytest.approx(expect_a, abs=0.005)
    assert reported[0, 0, 1] == pytest.approx(expect_h, abs=0.005)


def test_off_axis_collapses_to_spherical_at_zero_incidence():
    spec = hf.HeliostatSpec()
    layout = hf.module_centres(spec)
    ctx = hf.OffAxisContext(incidence0=0.0, phi=0.0)
    oa = hf.off_axis_canting(spec, layout, ctx, 100.0)
    sph = hf.spherical_canting(spec, layout, 100.0)
    assert np.array_equal(oa.a, sph.a)
    assert np.array_equal(oa.h, sph.h)


def test_off_axis_point_symmetry(scene_parts):
    spec, layout, d, ctx = scene_parts
    oa = hf.off_axis_canting(spec, layout, ctx, d)
    m, n = spec.modules_across, spec.modules_up
    for i in range(m):
        for j in range(n):
            assert oa.a[i, j] == -oa.a[m - 1 - i, n - 1 - j]
            assert oa.h[i, j] == -oa.h[m - 1 - i, n - 1 - j]


def test_off_axis_rejects_extreme_incidence():
    spec = hf.HeliostatSpec()
    layout = hf.module_centres(spec)
    ctx = hf.OffAxisContext(incidence0=math.radians(61.0), phi=math.pi / 4.0)
    with pytest.raises(DegenerateGeometry, match="61"):
        hf.off_axis_canting(spec, layout, ctx, 100.0)


def test_canting_set_rejects_large_angles():
    with pytest.raises(ValueError):
        hf.CantingSet(a=np.array([[0.2]]), h=np.array([[0.0]]))


# --- facet realization -------------------------------------------------------

def trace_centre_ray_miss(facets, sun):
    """Independent check: reflect the module-centre rays onto the x' = 0 plane."""
    s = hf.sun_vector(sun)
    misses = []
    for facet in facets:
        point, normal = facet.surface(0.0, 0.0)
        out = hf.reflect(s, normal)
        t = -point[0] / out[0]
        land = point + t * out
        misses.append(math.hypot(land[1], land[2]))
    return np.array(misses)


def test_flat_uncanted_facets_share_the_frame_normal():
    spec = hf.HeliostatSpec(focal_length=None)
    layout = hf.module_centres(spec)
    zero = hf.CantingSet(a=np.zeros((4, 2)), h=np.zeros((4, 2)))
    facets = hf.realize_modules(spec, layout, zero, REF_SUN)
    s = hf.sun_vector(REF_SUN)
    frame_normal = hf.bisector_normal(s, spec.target_direction()).normal
    for facet in facets:
        _, normals, _ = facet.sample_grid(4)
        assert np.allclose(normals, frame_normal, atol=1e-14)


def test_off_axis_centre_rays_hit_within_2cm(scene_parts):
    spec, layout, d, ctx = scene_parts
    oa = hf.off_axis_canting(spec, layout, ctx, d)
    misses = trace_centre_ray_miss(hf.realize_modules(spec, layout, oa, REF_SUN),
                                   REF_SUN)
    assert misses.max() < 0.02


def test_spherical_centre_rays_hit_within_2cm_at_normal_incidence():
    # a scene with the sun along the target direction: the sphere aims every
    # module-centre ray at the focus up to second-order sag terms
    spec = hf.HeliostatSpec(position=(86.60254037844387, 0.0, -50.0), name="tilt")
    layout = hf.module_centres(spec)
    sun = hf.SunPosition(azimuth=0.0, elevation=30.0)  # equals the target direction
    sph = hf.spherical_canting(spec, layout, spec.slant_distance)
    misses = trace_centre_ray_miss(hf.realize_modules(spec, layout, sph, sun), sun)
    assert misses.max() < 0.02


def test_off_axis_aims_tighter_than_spherical_at_reference(scene_parts):
    spec, layout, d, ctx = scene_parts
    sph = hf.spherical_canting(spec, layout, d)
    oa = hf.off_axis_canting(spec, layout, ctx, d)
    miss_sph = trace_centre_ray_miss(hf.realize_modules(spec, layout, sph, REF_SUN),
                                     REF_SUN)
    miss_oa = trace_centre_ray_miss(hf.realize_modules(spec, layout, oa, REF_SUN),
                                    REF_SUN)
    assert math.sqrt((miss_oa ** 2).mean()) < math.sqrt((miss_sph ** 2).mean())


def test_canting_rotation_order_is_z_then_y():
    a, h = 6.375e-3, 3.75e-3
    x = np.array([1.0, 0.0, 0.0])
    normal = canting_rotation(a, h) @ x
    # Z-then-Y composition in closed form
    expected = np.array([math.cos(h) * math.cos(a), -math.sin(a),
                         -math.sin(h) * math.cos(a)])
    assert np.allclose(normal, expected, atol=1e-15)
    # swapping the order moves the normal by O(a*h), far below reported precision
    swapped = (canting_rotation(a, 0.0) @ canting_rotation(0.0, h)) @ x
    gap = np.linalg.norm(normal - swapped)
    assert 0.0 < gap < 1e-4


def test_facet_surface_normals_and_sag():
    facet = hf.Facet(centre=np.zeros(3), axes=np.eye(3), width=0.7, height=1.4,
                     focal_length=100.0, reflectivity=1.0)
    points, normals = facet.surface(np.array([0.35, 0.0]), np.array([0.0, 0.7]))
    assert np.allclose(np.einsum("ij,ij->i", normals, normals), 1.0, atol=1e-14)
    # normal tilts toward the axis by about offset / (2 f)
    assert normals[0, 1] == pytest.approx(-0.35 / 200.0, rel=1e-6)
    assert normals[1, 2] == pytest.approx(-0.7 / 200.0, rel=1e-6)
    # the cap sags toward the focus
    assert points[0, 0] == pytest.approx(0.35 ** 2 / 400.0, rel=1e-3)


def test_mirrored_heliostat():
    spec = hf.HeliostatSpec(name="h1")
    twin = spec.mirrored()
    assert twin.position == (86.6, -50.0, 0.0)
    assert twin.name == "h1_mirror"
    assert twin.slant_distance == spec.slant_distance


def test_mirrored_heliostat_keeps_every_other_field():
    spec = hf.HeliostatSpec(position=(80.0, 30.0, 2.0), width=3.0, height=2.0,
                            modules_across=2, modules_up=1, module_width=1.2,
                            module_height=1.6, focal_length=90.0, reflectivity=0.9,
                            name="h7")
    twin = spec.mirrored()
    assert (twin.position, twin.name) == ((80.0, -30.0, 2.0), "h7_mirror")
    assert dataclasses.replace(twin, position=spec.position, name=spec.name) == spec
