"""Reflection law, bisector construction and heliostat frames."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helioflux as hf
from helioflux.errors import BacklitMirror, DegenerateGeometry

S2 = math.sqrt(2.0) / 2.0

# Reference geometry of the bundled scene: sun at azimuth 0, elevation
# 44.63 deg, target direction from the heliostat at (86.6, 50, 0) to the
# origin.
REF_SUN = hf.SunPosition(azimuth=0.0, elevation=44.63)
REF_TARGET = hf.normalize(np.array([-0.8660, -0.5000, 0.0]))


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_normalize_rejects_zero_vector():
    with pytest.raises(DegenerateGeometry, match="zero vector"):
        hf.normalize(np.zeros(3))


# --- reflect ---------------------------------------------------------------

def test_reflect_normal_incidence_retroreflects():
    n = np.array([1.0, 0.0, 0.0])
    assert np.allclose(hf.reflect(n, n), n, atol=1e-15)


def test_reflect_45_degree_fold():
    s = np.array([0.0, 0.0, 1.0])
    n = np.array([S2, 0.0, S2])
    assert np.allclose(hf.reflect(s, n), [1.0, 0.0, 0.0], atol=1e-12)


def test_reflect_reference_vectors():
    # literal arithmetic oracle on the rounded reference vectors
    s0 = np.array([-0.71155, 0.0, 0.70264])
    n0 = np.array([-0.87745, -0.27810, 0.39081])
    c = s0 @ n0
    expected = 2.0 * c * n0 - s0
    got = hf.reflect(s0, n0)
    assert np.array_equal(got, expected)
    # and the rounded vectors reproduce the rounded target direction
    assert np.allclose(got, [-0.8660, -0.5000, 0.0], atol=2e-4)


def test_reflect_rejects_backlit_sun():
    with pytest.raises(BacklitMirror):
        hf.reflect(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(BacklitMirror):
        hf.reflect(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_reflect_preserves_unit_length_and_incidence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = random_unit(rng)
        s = random_unit(rng)
        if s @ n <= 1e-3:
            continue
        r = hf.reflect(s, n)
        assert abs(r @ r - 1.0) < 1e-12
        assert abs(r @ n - s @ n) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
def test_reflect_involution(seed):
    rng = np.random.default_rng(seed)
    n = random_unit(rng)
    s = random_unit(rng)
    if s @ n <= 1e-3:
        s = -s  # flip to the lit side; if s.n == 0 exactly the draw is discarded
        if s @ n <= 1e-3:
            return
    assert np.allclose(hf.reflect(hf.reflect(s, n), n), s, atol=1e-10)


# --- bisector_normal -------------------------------------------------------

def test_bisector_identity_direction():
    d = np.array([1.0, 0.0, 0.0])
    geom = hf.bisector_normal(d, d)
    assert np.allclose(geom.normal, d, atol=1e-15)
    assert geom.incidence == 0.0


def test_bisector_reference_incidence():
    s0 = hf.sun_vector(REF_SUN)
    geom = hf.bisector_normal(s0, REF_TARGET)
    assert math.degrees(geom.incidence) == pytest.approx(25.98, abs=0.05)


def test_bisector_reference_normal_matches_hand_normalization():
    s0 = hf.sun_vector(REF_SUN)
    geom = hf.bisector_normal(s0, REF_TARGET)
    oracle = (s0 + REF_TARGET) / np.linalg.norm(s0 + REF_TARGET)
    assert np.allclose(geom.normal, oracle, atol=1e-12)
    assert np.allclose(geom.normal, [-0.8774, -0.2781, 0.3908], atol=2e-4)
    assert np.allclose(hf.reflect(s0, geom.normal), REF_TARGET, atol=1e-10)


def test_bisector_rejects_antiparallel():
    d = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DegenerateGeometry):
        hf.bisector_normal(d, -d)


@given(st.integers(min_value=0, max_value=10_000))
def test_bisector_roundtrip_and_reflection_law(seed):
    rng = np.random.default_rng(seed)
    s = random_unit(rng)
    r = random_unit(rng)
    if 1.0 + s @ r <= 1e-6:
        return
    geom = hf.bisector_normal(s, r)
    assert np.allclose(hf.reflect(s, geom.normal), r, atol=1e-10)
    residual = s + r - 2.0 * math.cos(geom.incidence) * geom.normal
    assert np.linalg.norm(residual) < 1e-10


# --- heliostat_frame -------------------------------------------------------

def test_frame_axes_for_axis_aligned_normal():
    frame = hf.heliostat_frame(np.array([1.0, 0.0, 0.0]))
    assert frame.shape == (3, 3)
    assert np.allclose(frame, np.eye(3), atol=1e-15)


def test_frame_for_reference_normal():
    s0 = hf.sun_vector(REF_SUN)
    n0 = hf.bisector_normal(s0, REF_TARGET).normal
    frame = hf.heliostat_frame(n0)
    # Gram-Schmidt by hand: y = Z' x n / |Z' x n|, z = n x y
    oracle_y = np.cross([0.0, 0.0, 1.0], n0)
    oracle_y = oracle_y / np.linalg.norm(oracle_y)
    oracle_z = np.cross(n0, oracle_y)
    assert np.array_equal(frame[:, 0], n0)
    assert np.allclose(frame[:, 1], oracle_y, atol=1e-14)
    assert np.allclose(frame[:, 2], oracle_z, atol=1e-14)
    assert np.allclose(frame[:, 1], [0.3021, -0.9533, 0.0], atol=1e-4)
    assert np.allclose(frame[:, 2], [0.3725, 0.1181, 0.9205], atol=1e-4)


def test_frame_orthonormal_right_handed_up_for_random_normals():
    rng = np.random.default_rng(123)
    count = 0
    while count < 10_000:
        n = random_unit(rng)
        if abs(n[2]) >= 0.99:
            continue
        count += 1
        frame = hf.heliostat_frame(n)
        x, y, z = frame.T
        for a, b in ((x, y), (y, z), (x, z)):
            assert abs(a @ b) < 1e-12
        for a in (x, y, z):
            assert abs(a @ a - 1.0) < 1e-12
        assert np.allclose(np.cross(x, y), z, atol=1e-12)
        assert z[2] > 0.0
        assert abs(y[2]) < 1e-15  # horizontal lateral axis


def test_frame_rejects_vertical_normal():
    with pytest.raises(DegenerateGeometry):
        hf.heliostat_frame(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DegenerateGeometry):
        hf.heliostat_frame(np.array([1e-7, 0.0, -1.0]))
