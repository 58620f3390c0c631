"""Concentration figures, day-course behavior, case composition."""

import dataclasses
import gc
import math
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helioflux as hf
import helioflux.metrics as metrics
from helioflux.errors import ConfigError, HelioFluxError


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


def test_concentration_needs_power_on_the_grid():
    with pytest.raises(ValueError, match="empty"):
        hf.concentration_ratio(make_map(np.zeros((0, 0)), grid=hf.GridSpec()))
    for peak in (0.0, np.nan, np.inf):
        values = np.zeros((4, 4))
        values[1, 2] = peak
        with pytest.raises(HelioFluxError, match="no representable power"):
            hf.concentration_ratio(make_map(values))


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
    for diameter in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            hf.intercepted_power(m, diameter)
    assert hf.intercepted_power(make_map(np.zeros((16, 16))), 100.0) == 0.0


@st.composite
def aperture_cases(draw):
    """A map on an even grid of 16-512 cells, with zeros and -0.0, and a
    diameter below one cell, on a cell-centre radius, beyond the grid
    diagonal or anywhere between."""
    cells = 2 * draw(st.integers(8, 256))
    grid = hf.GridSpec(extent=draw(st.sampled_from((0.5, 4.0, 8.0, 13.7))), cells=cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.0, draw(st.sampled_from((1e-300, 1.0, 1e300))), (cells, cells))
    for zero in (0.0, -0.0):
        values[rng.random((cells, cells)) < draw(st.sampled_from((0.0, 0.5, 0.99, 1.0)))] = zero
    centres = grid.centres()
    i, j = draw(st.integers(0, cells - 1)), draw(st.integers(0, cells - 1))
    diameter = draw(st.one_of(
        st.floats(1e-3, 1.0).map(lambda f: f * grid.cell_size),
        st.just(2.0 * math.sqrt(centres[i] ** 2 + centres[j] ** 2)),
        st.just(2.0 * abs(centres[i])),
        st.floats(math.sqrt(2.0), 1e3).map(lambda f: f * grid.extent),
        st.floats(1e-3, 2.0).map(lambda f: f * grid.extent)))
    return make_map(values, grid=grid), diameter


@settings(max_examples=80, derandomize=True, deadline=None)
@given(aperture_cases())
def test_intercepted_power_is_the_full_grid_mask_sum_bit_for_bit(case):
    # intercepted_power sums only the disc's bounding square; the reference
    # masks the whole grid
    flux_map, diameter = case
    values, r2 = flux_map.values, flux_map.grid.centres() ** 2
    total = values.sum()
    inside = r2[:, None] + r2[None, :] <= (0.5 * diameter) ** 2
    expected = 0.0 if total == 0.0 else float(values[inside].sum() / total)
    assert repr(hf.intercepted_power(flux_map, diameter)) == repr(expected)


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


def test_a_day_course_frees_grt_maps_once_their_mirror_group_ends(table1_config, monkeypatch):
    # Over 9 symmetric hours a time and the time at its mirrored sun run
    # back to back: the heliostat's GRT maps are traced at both and the
    # twin's maps are flips of them.  A group's maps are freed when the next
    # group starts, so only a few maps outlive their group's last time.
    trace = metrics.trace_flux_grt
    traced, alive = [], []

    def tracking(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in traced))
        flux_map = trace(*args, **kwargs)
        traced.append(weakref.ref(flux_map))
        return flux_map

    monkeypatch.setattr(metrics, "trace_flux_grt", tracking)
    scene = hf.with_overrides(table1_config, grid_cells=64, surface_samples=4)
    latitude = scene.site.latitude
    scene = dataclasses.replace(scene, radial_nodes=2, azimuth_nodes=8, schedule=tuple(
        hf.ScheduleEntry(label=hf.hour_label(hour),
                         position=hf.ideal_equinox_position(latitude, hour))
        for hour in map(float, range(8, 17))))
    metrics.day_course(scene, collect_maps=False)
    assert len(traced) == 18
    assert max(alive) <= 4, alive


def small_day(table1_config, engine):
    """The bundled scene's day on a coarse grid and quadrature."""
    return dataclasses.replace(hf.with_overrides(table1_config, engine=engine, grid_cells=64,
                                                 surface_samples=4),
                               radial_nodes=2, azimuth_nodes=8)


def test_every_map_of_a_both_day_course_is_read_only(table1_config, monkeypatch):
    # the traced maps, which the twins' flips are views of, and every case map
    trace = metrics.trace_flux_grt
    traced = []

    def keeping(*args, **kwargs):
        traced.append(trace(*args, **kwargs))
        return traced[-1]

    monkeypatch.setattr(metrics, "trace_flux_grt", keeping)
    _, maps = hf.day_course(small_day(table1_config, "both"), collect_maps=True)
    assert len(traced) == 10 and len(maps) == 40
    for flux_map in traced + list(maps.values()):
        assert flux_map.values.flags.writeable is False


@pytest.mark.parametrize("variants", [(), ("spherical", "spherical"), ("flat",),
                                      "off_axis", ("off_axis", "off_axis", "spherical")],
                         ids=["none", "repeated", "unknown", "string", "repeated_of_two"])
def test_day_course_rejects_a_bad_variant_selection(variants, table1_config):
    with pytest.raises(ConfigError, match="variants"):
        hf.day_course(small_day(table1_config, "conv"), variants=variants)


@pytest.mark.parametrize("engine", metrics.ENGINES)
def test_a_day_course_leaves_no_process_or_thread_behind(engine, table1_config, monkeypatch):
    # a day course runs in the calling process and forks nothing, whatever
    # its variants; cli.run owns the run's one child, and test_cli covers
    # runs that fail on either side or lose the child
    def forbidden():
        raise AssertionError("a day course forked")

    monkeypatch.setattr(os, "fork", forbidden)
    threads = threading.active_count()
    for variants in (metrics.VARIANTS, ("off_axis",)):
        hf.day_course(small_day(table1_config, engine), variants=variants)
    with pytest.raises(ChildProcessError):  # this process has no child, running or ended
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


def test_repeated_conv_day_courses_leave_nothing_behind(table1_config, monkeypatch):
    # Five day courses at five different pairs of suns: afterwards the
    # traced memory is within one kernel of what it was after the first.  The
    # kernel memo holds one kernel; one that kept every kernel, or maps kept
    # past their day course, would grow by one run's worth each time.
    scene = hf.with_overrides(table1_config, engine="conv", surface_samples=4)
    latitude = scene.site.latitude
    kernel_bytes = []  # the memory each built kernel holds
    build = hf.flux.build_kernel

    def recording(*args):
        kernel = build(*args)
        kernel_bytes.append(kernel.base.nbytes)
        return kernel

    monkeypatch.setattr(hf.flux, "build_kernel", recording)
    sizes = []
    tracemalloc.start()
    try:
        for run in range(5):
            schedule = tuple(hf.ScheduleEntry(label=hf.hour_label(hour),
                                              position=hf.ideal_equinox_position(latitude, hour))
                             for hour in (10.0 + 0.25 * run, 13.0 + 0.25 * run))
            hf.day_course(dataclasses.replace(scene, schedule=schedule))
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert len(kernel_bytes) == 5 * 2 * 2  # runs x heliostats x suns
    assert abs(sizes[-1] - sizes[0]) <= max(kernel_bytes), (sizes, kernel_bytes)


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
