"""Concentration figures, day-course behavior, case composition."""

import dataclasses

import numpy as np
import pytest

import helioflux as hf
import helioflux.metrics as metrics
from helioflux.errors import ConfigError


def make_map(values, grid=None):
    values = np.asarray(values, dtype=float)
    grid = grid or hf.GridSpec(extent=float(values.shape[0]), cells=values.shape[0])
    return hf.FluxMap(values=values, grid=grid, dni=1.0, engine="test",
                      sun=hf.SunPosition(azimuth=0.0, elevation=45.0),
                      heliostat_ids=("t",))


# --- concentration ratio ------------------------------------------------------

def test_concentration_of_uniform_map_is_one():
    assert hf.concentration_ratio(make_map(np.ones((4, 4)))) == 1.0


def test_concentration_scales_linearly():
    rng = np.random.default_rng(11)
    values = rng.uniform(size=(8, 8))
    c1 = hf.concentration_ratio(make_map(values))
    c3 = hf.concentration_ratio(make_map(3.0 * values))
    assert c3 == pytest.approx(3.0 * c1, rel=1e-12)


def test_noon_gain_within_published_band(table1_run):
    report, _ = table1_run
    noon = report.labels.index("12h00")
    for case in ("single", "symmetric_pair"):
        ratio = 1.0 + report.gain[case][noon]
        assert 1.03 <= ratio <= 1.15


# --- intercepted power ----------------------------------------------------------

def test_intercepted_power_limits():
    rng = np.random.default_rng(3)
    m = make_map(rng.uniform(size=(16, 16)), grid=hf.GridSpec(2.0, 16))
    assert hf.intercepted_power(m, 100.0) == pytest.approx(1.0, abs=1e-12)
    assert hf.intercepted_power(m, 1e-6) == 0.0
    with pytest.raises(ValueError):
        hf.intercepted_power(m, 0.0)


def test_off_axis_interception_beats_spherical_at_noon(noon_maps, table1_config):
    d = table1_config.receiver.diameter
    sph = hf.intercepted_power(noon_maps[("spherical", "single", "conv")], d)
    oa = hf.intercepted_power(noon_maps[("off_axis", "single", "conv")], d)
    assert oa >= sph - 1e-12  # both saturate near 1.0 at the full aperture
    # at a tighter aperture the sharper off-axis spot wins outright
    sph_tight = hf.intercepted_power(noon_maps[("spherical", "single", "conv")], 0.5)
    oa_tight = hf.intercepted_power(noon_maps[("off_axis", "single", "conv")], 0.5)
    assert oa_tight > sph_tight


# --- day course -----------------------------------------------------------------

def test_day_course_rejects_empty_schedule(table1_config):
    with pytest.raises(ConfigError):
        hf.day_course(dataclasses.replace(table1_config, schedule=()))


def test_day_course_rejects_twin_name_collision(table1_config):
    # a scene built in code meets load_config's rules when it is built
    h1 = table1_config.heliostats[0]
    user = dataclasses.replace(h1, name="h1_mirror", position=(95.0, -20.0, -3.0))
    with pytest.raises(ConfigError, match="h1_mirror.*twin of heliostat 'h1'"):
        hf.day_course(dataclasses.replace(table1_config, heliostats=(h1, user),
                                          cases=("symmetric_pair",)))


def test_day_course_rejects_repeated_case(table1_config):
    with pytest.raises(ConfigError, match="'single' is listed more than once"):
        hf.day_course(dataclasses.replace(table1_config, cases=("single", "single")))


def test_day_course_freezes_canting(table1_config, monkeypatch):
    calls = {"n": 0}
    original = metrics.off_axis_canting

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    # built before the patch: constructing a scene checks its cantings once
    scene = dataclasses.replace(table1_config, engine="conv", cases=("single",))
    monkeypatch.setattr(metrics, "off_axis_canting", counting)
    report = hf.day_course(scene)
    # one optimization per heliostat, not one per timestep
    assert calls["n"] == len(scene.heliostats)
    assert len(report.labels) == len(scene.schedule)


def test_pair_map_is_exact_sum_of_singles(table1_run):
    _, maps = table1_run
    for engine in ("grt", "conv"):
        for label in ("09h00", "12h00"):
            single = maps[(label, "spherical", "single", engine)]
            pair = maps[(label, "spherical", "symmetric_pair", engine)]
            mirrored = pair.values - single.values
            recombined = hf.map_add(single, hf.FluxMap(
                values=mirrored, grid=pair.grid, dni=pair.dni, engine=engine,
                sun=pair.sun, heliostat_ids=("h1_mirror",)))
            assert np.array_equal(recombined.values, pair.values)


def test_noon_pair_map_mirror_symmetric(table1_run):
    _, maps = table1_run
    for engine in ("grt", "conv"):
        for variant in ("spherical", "off_axis"):
            m = maps[("12h00", variant, "symmetric_pair", engine)]
            asymmetry = np.abs(m.values - m.values[::-1, :]).max()
            assert asymmetry < 1e-10


def test_noon_pair_doubles_the_single(table1_run):
    report, _ = table1_run
    noon = report.labels.index("12h00")
    for variant in ("spherical", "off_axis"):
        single = report.peak[("single", variant)][noon]
        pair = report.peak[("symmetric_pair", variant)][noon]
        assert pair == pytest.approx(2.0 * single, rel=0.01)


def test_gain_positive_at_reference_noon(table1_run):
    report, _ = table1_run
    noon = report.labels.index("12h00")
    for case in report.cases:
        assert report.gain[case][noon] >= 0.0


def test_gain_report_surfaces_sign_flips(table1_run):
    # far from the reference sun the off-axis canting may lose; the report
    # must carry those negative entries rather than clamp them
    report, _ = table1_run
    assert report.gain["single"][report.labels.index("09h00")] < 0.0


def test_spherical_concentration_degrades_with_incidence(table1_run, table1_config):
    report, _ = table1_run
    target = hf.HeliostatSpec(name="h1").target_direction()
    incidences = []
    for entry in table1_config.schedule:
        s = hf.sun_vector(entry.position)
        incidences.append(hf.bisector_normal(s, target).incidence)
    c = report.peak[("single", "spherical")]
    assert c[int(np.argmin(incidences))] >= c[int(np.argmax(incidences))]


def test_day_course_reports_requested_engine(table1_config):
    short = dataclasses.replace(table1_config, schedule=table1_config.schedule[2:3],
                                cases=("single",))
    report = hf.day_course(hf.with_overrides(short, engine="conv"))
    assert report.engine == "conv"
    assert not report.engine_rms
    report, maps = hf.day_course(hf.with_overrides(short, engine="both"), collect_maps=True)
    assert report.engine == "conv"
    assert set(eng for (_, _, _, eng) in maps) == {"grt", "conv"}
    assert max(report.engine_rms.values()) <= 0.02
