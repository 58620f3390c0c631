"""Energy balance, case composition, DNI invariance and determinism on random
valid scenes.

Each example is a scene built in code: one or two heliostats in front of
the receiver (X' > 0), one sun 10-80 degrees high or that sun and its
mirror image (-azimuth), either sunshape, on a 64-cell grid with small
sampling (odd and even sun-cone azimuth node counts) so the module stays
fast.  With the mirror image in the schedule and the reference sun at
azimuth 0, the pair case's twin GRT maps are flips of their heliostats'
maps, so every property that runs a day course covers that path and its
fallback to tracing.  The tangency property draws heliostat positions
40-400 m away instead of scenes.  The last property draws scenes that need
not be valid: one heliostat 2-200 m away anywhere in front of the
receiver, with any reflectivity in [0, 1], any DNI up to 2000 and either
engine setting.  The examples are derandomized, so every run of the suite
draws the same scenes.
"""

import collections
import dataclasses
import functools
import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helioflux as hf
from helioflux import flux, metrics
from helioflux.cli import run
from helioflux.errors import ConfigError, HelioFluxError
from helioflux.metrics import ENGINES, VARIANTS, case_heliostats, frozen_cantings


@st.composite
def heliostats(draw, name, shaped=False):
    distance = draw(st.floats(90.0, 110.0))
    bearing = math.radians(draw(st.floats(-40.0, 40.0)))
    z = draw(st.floats(-5.0, 5.0))
    across = math.sqrt(distance * distance - z * z)
    shape = {}
    if shaped:
        # odd and even module counts, modules that leave gaps, flat or curved
        modules_across, modules_up = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        module_width, module_height = draw(st.floats(0.3, 1.0)), draw(st.floats(0.3, 1.5))
        shape = dict(modules_across=modules_across, modules_up=modules_up,
                     module_width=module_width, module_height=module_height,
                     width=modules_across * module_width * draw(st.floats(1.0, 1.4)),
                     height=modules_up * module_height * draw(st.floats(1.0, 1.4)),
                     focal_length=draw(st.none() | st.floats(80.0, 120.0)))
    return hf.HeliostatSpec(name=name, position=(across * math.cos(bearing),
                                                 across * math.sin(bearing), z), **shape)


def mirrored(pos):
    return hf.SunPosition(azimuth=-pos.azimuth, elevation=pos.elevation)


def small_scene(heliostat_specs, sun, kind, surface_samples=4, radial_nodes=2,
                azimuth_nodes=4):
    return hf.SceneConfig(
        site=hf.SiteSpec(), sunshape=hf.SunshapeModel(kind=kind),
        receiver=hf.ReceiverSpec(grid=hf.GridSpec(extent=8.0, cells=64)),
        heliostats=tuple(heliostat_specs),
        schedule=(hf.ScheduleEntry(label="t00", position=sun),),
        reference=hf.SunPosition(azimuth=0.0, elevation=44.63),
        engine="both", surface_samples=surface_samples, radial_nodes=radial_nodes,
        azimuth_nodes=azimuth_nodes)


def with_second_sun(scene, sun):
    return dataclasses.replace(scene, schedule=scene.schedule + (
        hf.ScheduleEntry(label="t01", position=sun),))


@st.composite
def scenes(draw, shaped=False):
    count = draw(st.integers(1, 2))
    sun = hf.SunPosition(azimuth=draw(st.floats(-60.0, 60.0)),
                         elevation=draw(st.floats(10.0, 80.0)))
    kind = draw(st.sampled_from(("pillbox", "limb_darkened")))
    scene = small_scene([draw(heliostats(f"h{k + 1}", shaped)) for k in range(count)],
                        sun, kind, surface_samples=draw(st.integers(2, 5)),
                        radial_nodes=draw(st.integers(1, 3)),
                        azimuth_nodes=draw(st.sampled_from((4, 6, 5))))
    return with_second_sun(scene, mirrored(sun)) if draw(st.sampled_from((True, False))) else scene


TABLE1_H1 = dict(name="h1", position=(86.6, 50.0, 0.0))
TABLE1_NOON = small_scene((hf.HeliostatSpec(**TABLE1_H1),),
                          hf.SunPosition(azimuth=0.0, elevation=44.63), "limb_darkened")
# the random scenes' 8 m grid catches every ray; on a 1 m grid GRT rays spill
SPILLING_NOON = dataclasses.replace(TABLE1_NOON, engine="grt", receiver=hf.ReceiverSpec(
    diameter=0.5, grid=hf.GridSpec(extent=1.0, cells=64)))
# a morning sun and its afternoon mirror image: the twins' GRT maps are flips
MORNING = small_scene((hf.HeliostatSpec(**TABLE1_H1),),
                      hf.SunPosition(azimuth=-30.0, elevation=40.0), "limb_darkened")
FLIPPED = with_second_sun(MORNING, hf.SunPosition(azimuth=30.0, elevation=40.0))
# the quadrature is mirror symmetric at an odd azimuth node count too
ODD_NODES = dataclasses.replace(FLIPPED, azimuth_nodes=5)
# ... and three scenes where no flip applies, so every twin map is traced
ONE_ULP_OFF = with_second_sun(MORNING, hf.SunPosition(azimuth=math.nextafter(30.0, math.inf),
                                                      elevation=40.0))
OFF_MERIDIAN = dataclasses.replace(FLIPPED,
                                   reference=hf.SunPosition(azimuth=10.0, elevation=44.63))
NO_PAIR = dataclasses.replace(FLIPPED, cases=("single",))
# the morning sun twice with an unmirrored sun between them, then the
# afternoon sun: h1 is traced once at the morning sun, both mornings' twins
# flip the one afternoon trace, and the middle twin is traced
REPEATED = dataclasses.replace(FLIPPED, schedule=(
    FLIPPED.schedule[0],
    hf.ScheduleEntry(label="t01", position=hf.SunPosition(azimuth=10.0, elevation=50.0)),
    dataclasses.replace(FLIPPED.schedule[0], label="t02"),
    dataclasses.replace(FLIPPED.schedule[1], label="t03")))

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)


def suns(scene):
    """The schedule's distinct sun positions, in schedule order."""
    return list(dict.fromkeys(entry.position for entry in scene.schedule))


def flip_source(scene, entry):
    """Label of the entry whose GRT maps a twin's maps at ``entry`` flip, or None.

    The day course's rule, restated: the reference sun lies on the meridian
    and the mirror image of the entry's sun is exactly the position of an
    entry.  Maps depend only on the heliostat and the sun, so any entry at
    the mirrored sun serves; this names the first.
    """
    if scene.reference.azimuth != 0.0:
        return None
    return next((e.label for e in scene.schedule if e.position == mirrored(entry.position)),
                None)


def member_sum_maps(scene):
    """Every case map of ``scene``, summed from its members' maps in member order.

    A member's maps come from a day course of that heliostat alone, which
    traces them.  A twin's GRT map is instead the flip of its heliostat's map
    at the entry that ``flip_source`` names, where it names one.
    """
    members = case_heliostats(scene)
    heliostats = {h.name: h for case in scene.cases for h in members[case]}
    alone = {name: hf.day_course(dataclasses.replace(scene, heliostats=(h,), cases=("single",)),
                                 collect_maps=True)[1] for name, h in heliostats.items()}
    twin_of = {h.mirrored().name: h.name for h in scene.heliostats}
    summed = {}
    for entry in scene.schedule:
        source = flip_source(scene, entry)
        for variant in VARIANTS:
            for engine in ENGINES[scene.engine]:
                for case in scene.cases:
                    parts = []
                    for h in members[case]:
                        if engine == "grt" and source is not None and h.name in twin_of:
                            m = alone[twin_of[h.name]][(source, variant, "single", engine)]
                            parts.append(dataclasses.replace(
                                m, values=m.values[::-1, :], sun=entry.position,
                                heliostat_ids=(h.name,)))
                        else:
                            parts.append(alone[h.name][(entry.label, variant, "single", engine)])
                    summed[(entry.label, variant, case, engine)] = functools.reduce(
                        hf.map_add, parts)
    return summed


def same_entries(a, b):
    """Whether ``a`` and ``b`` hold the same entries, arrays compared by
    their bytes, through dicts, tuples and dataclasses."""
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and (a.dtype, a.shape) == (b.dtype, b.shape)
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return (type(b) is dict and a.keys() == b.keys()
                and all(same_entries(value, b[key]) for key, value in a.items()))
    if isinstance(a, tuple):
        return (type(b) is tuple and len(a) == len(b)
                and all(map(same_entries, a, b)))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and same_entries(
            tuple(getattr(a, f.name) for f in dataclasses.fields(a)),
            tuple(getattr(b, f.name) for f in dataclasses.fields(b)))
    return type(a) is type(b) and a == b


def assert_same_maps(maps, expected):
    assert maps.keys() == expected.keys()
    for key, flux_map in maps.items():
        assert np.array_equal(flux_map.values, expected[key].values), key
        assert flux_map.spilled_power == expected[key].spilled_power, key
        assert flux_map.heliostat_ids == expected[key].heliostat_ids, key


@PROPERTY
@given(scenes())
@example(ONE_ULP_OFF)
@example(OFF_MERIDIAN)
@example(ODD_NODES)
@example(dataclasses.replace(FLIPPED, engine="grt"))
def test_pair_map_is_single_map_plus_twin_maps(scene):
    # A pair map is the sum of its single-case members and their twins, bit for
    # bit, where a twin's map is the one the day course uses: the flip of its
    # heliostat's GRT map at the mirrored sun where the rule applies, its own
    # trace elsewhere.  test_mirrored_scene_gives_the_y_flipped_map holds the
    # flip within 1e-12 of peak of the traced twin.
    _, maps = hf.day_course(scene, collect_maps=True)
    assert_same_maps(maps, member_sum_maps(scene))


@pytest.mark.parametrize("scene, twin_traces", [
    (FLIPPED, 0), (dataclasses.replace(FLIPPED, engine="grt"), 0),
    (ONE_ULP_OFF, 4), (OFF_MERIDIAN, 4), (NO_PAIR, 0), (ODD_NODES, 0), (REPEATED, 2)])
def test_a_twin_is_traced_unless_its_grt_maps_are_flips(scene, twin_traces, grt_traces):
    _, maps = hf.day_course(scene, collect_maps=True)
    # h1 at every sun in both variants, once each, and the twin where not
    # flipped, on either side of the GRT pair
    assert collections.Counter(ids for ids, _ in grt_traces()) == collections.Counter(
        {("h1",): 2 * len(suns(scene)), ("h1_mirror",): twin_traces})
    assert_same_maps(maps, member_sum_maps(scene))


@PROPERTY
@given(scenes())
def test_day_course_is_bit_identical_when_repeated(scene):
    first, first_maps = hf.day_course(scene, collect_maps=True)
    second, second_maps = hf.day_course(scene, collect_maps=True)
    assert first_maps.keys() == second_maps.keys()
    for key, flux_map in first_maps.items():
        assert np.array_equal(flux_map.values, second_maps[key].values)
    for key, peaks in first.peak.items():
        assert np.array_equal(peaks, second.peak[key])
    # a callable collect_maps gets each key once, with the same maps, and
    # the same report comes back alone
    streamed = []
    third = hf.day_course(scene, collect_maps=lambda key, flux_map: streamed.append(
        (key, flux_map)))
    assert sorted(key for key, _ in streamed) == sorted(first_maps)
    assert same_entries(dict(streamed), first_maps)
    assert same_entries(third, first)


@PROPERTY
@given(scenes())
@example(SPILLING_NOON)
@example(ODD_NODES)
# 12^2 samples x 1152 directions: three chunks a facet, eight facets
@example(dataclasses.replace(TABLE1_NOON, surface_samples=12, radial_nodes=24,
                             azimuth_nodes=48))
def test_a_day_course_of_one_variant_is_that_variant_of_the_full_one(scene):
    # cli.run splits a GRT run by variant: a forked child runs the off-axis
    # day course while the caller runs the spherical one.  Each must give,
    # bit for bit, its variant's maps and figures of the full day course,
    # twin flips included.  And every single-case map of a heliostat alone
    # equals a serial trace_flux_grt / convolve_flux of its facets.
    full, full_maps = hf.day_course(scene, collect_maps=True)
    reports = {}
    for variant in VARIANTS:
        report, maps = hf.day_course(scene, collect_maps=True, variants=(variant,))
        reports[variant] = report
        assert report.variants == (variant,)
        assert_same_maps(maps, {key: m for key, m in full_maps.items() if key[1] == variant})
        for own, whole in ((report.peak, full.peak), (report.intercepted, full.intercepted)):
            assert own.keys() == {(case, variant) for case in scene.cases}
            for key, figures in own.items():
                assert figures.tobytes() == whole[key].tobytes(), key
        assert report.engine_rms == {key: rms for key, rms in full.engine_rms.items()
                                     if key[1] == variant}
    # the caller of a split run merges the child's report into its own: the
    # merged report is the full one, on every field
    merged = reports["spherical"]
    merged.merge(reports["off_axis"])
    for entry in dataclasses.fields(hf.ConcentrationReport):
        assert same_entries(getattr(merged, entry.name), getattr(full, entry.name)), entry.name
    for h in scene.heliostats:
        layout = hf.module_centres(h)
        cantings = frozen_cantings(h, layout, scene.reference)
        for variant in VARIANTS:
            _, alone = hf.day_course(dataclasses.replace(scene, heliostats=(h,),
                                                         cases=("single",)),
                                     collect_maps=True, variants=(variant,))
            for entry in scene.schedule:
                sun = entry.position
                facets = hf.realize_modules(h, layout, cantings[variant], sun)
                serial = {"grt": hf.trace_flux_grt(
                    facets, sun, scene.sunshape, scene.receiver, dni=scene.dni,
                    surface_samples=scene.surface_samples, radial_nodes=scene.radial_nodes,
                    azimuth_nodes=scene.azimuth_nodes, heliostat_ids=(h.name,))}
                if "conv" in ENGINES[scene.engine]:
                    serial["conv"] = hf.convolve_flux(
                        facets, sun, scene.sunshape, scene.receiver, dni=scene.dni,
                        surface_samples=scene.surface_samples, heliostat_ids=(h.name,))
                assert_same_maps({engine: alone[(entry.label, variant, "single", engine)]
                                  for engine in ENGINES[scene.engine]}, serial)


def realizations(monkeypatch):
    """Every ``metrics.realize_modules`` call from now on, as (heliostat name,
    sun, canting, facets)."""
    calls = []
    realize = metrics.realize_modules

    def recording(spec, layout, canting, sun):
        facets = realize(spec, layout, canting, sun)
        calls.append((spec.name, sun, canting, facets))
        return facets

    monkeypatch.setattr(metrics, "realize_modules", recording)
    return calls


# table1's heliostat and its twin over the five hours, sampled coarsely: a
# day course realizes them once per (heliostat, sun, variant), 20 times
TABLE1_DAY = dataclasses.replace(hf.load_config(hf.table1_scene_path()), surface_samples=2,
                                 radial_nodes=1, azimuth_nodes=4)


@pytest.mark.parametrize("scene", [TABLE1_DAY, FLIPPED, REPEATED, ODD_NODES,
                                   dataclasses.replace(FLIPPED, engine="conv")])
def test_a_day_course_realizes_each_heliostat_once_per_sun_and_variant(scene, monkeypatch):
    # A heliostat whose GRT maps a twin flips is realized once for its GRT
    # pair, its conv maps and the twin's flip alike, and once for a sun the
    # schedule names twice
    calls = realizations(monkeypatch)
    report = hf.day_course(scene)
    assert collections.Counter((name, sun, id(canting)) for name, sun, canting, _ in calls) == \
        collections.Counter((name, sun, id(report.cantings[name][variant]))
                            for name in report.heliostats for sun in suns(scene)
                            for variant in VARIANTS)


@pytest.mark.parametrize("scene", [REPEATED, dataclasses.replace(REPEATED, cases=("single",))])
def test_a_sun_the_schedule_names_twice_is_realized_and_traced_once(scene, monkeypatch,
                                                                    grt_traces):
    # REPEATED names the morning sun at t00 and t02, with and without twins:
    # both entries read the maps of one realization and one trace of h1
    calls = realizations(monkeypatch)
    _, maps = hf.day_course(scene, collect_maps=True)
    twice = collections.Counter({sun: 2 for sun in suns(scene)})  # once per variant
    assert collections.Counter(sun for ids, sun in grt_traces() if ids == ("h1",)) == twice
    assert collections.Counter(sun for name, sun, _, _ in calls if name == "h1") == twice
    sun_of = {entry.label: entry.position for entry in scene.schedule}
    for (label, *rest), flux_map in maps.items():
        for other in scene.schedule:
            if other.position == sun_of[label]:
                assert_same_maps({label: maps[(other.label, *rest)]}, {label: flux_map})


@pytest.mark.parametrize("scene", [TABLE1_DAY, FLIPPED, REPEATED, NO_PAIR])
def test_a_conv_day_course_builds_one_kernel_per_heliostat_and_sun(scene, monkeypatch):
    # The two canting variants have the same facet centres, so the same
    # kernel (test_both_variants_realize_the_same_facet_centres): the day
    # course convolves them back to back, and the second call reuses the
    # first's kernel.  A sun the schedule names twice is convolved once.
    scene = dataclasses.replace(scene, engine="conv")
    calls = collections.Counter()

    def counting(owner, name):
        function = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(flux, "build_kernel")
    counting(metrics, "convolve_flux")
    flux._last_kernel.cache_clear()
    report = hf.day_course(scene)
    assert calls["build_kernel"] == len(report.heliostats) * len(suns(scene))
    assert calls["convolve_flux"] == 2 * calls["build_kernel"]


@PROPERTY
@given(scenes(shaped=True))
def test_every_conv_map_equals_a_convolution_with_a_fresh_kernel(scene):
    # every case map of a conv day course, bit for bit, from members' maps
    # each convolved with the kernel memo emptied
    scene = dataclasses.replace(scene, engine="conv")
    _, maps = hf.day_course(scene, collect_maps=True)
    members = case_heliostats(scene)
    expected = {}
    for entry in scene.schedule:
        for variant in VARIANTS:
            fresh = {}
            for h in {h.name: h for case in scene.cases for h in members[case]}.values():
                layout = hf.module_centres(h)
                facets = hf.realize_modules(h, layout, frozen_cantings(
                    h, layout, scene.reference)[variant], entry.position)
                flux._last_kernel.cache_clear()
                fresh[h.name] = hf.convolve_flux(
                    facets, entry.position, scene.sunshape, scene.receiver, dni=scene.dni,
                    surface_samples=scene.surface_samples, heliostat_ids=(h.name,))
            for case in scene.cases:
                expected[(entry.label, variant, case, "conv")] = functools.reduce(
                    hf.map_add, (fresh[h.name] for h in members[case]))
    assert_same_maps(maps, expected)
    for key, flux_map in maps.items():
        assert flux_map.values.tobytes() == expected[key].values.tobytes(), key


@PROPERTY
@given(scenes(shaped=True))
def test_both_variants_realize_the_same_facet_centres(scene):
    # The canting only rotates a facet's axes, so at every slot the day
    # course's spherical and off-axis facets of a heliostat have bit-identical
    # centres, and convolve_flux builds both variants' kernels at the same
    # mean centre.
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = realizations(monkeypatch)
        report = hf.day_course(scene)
    centres = collections.defaultdict(list)
    for name, sun, canting, facets in calls:
        variant = next(v for v in VARIANTS if report.cantings[name][v] is canting)
        centres[(name, sun)].append((variant, np.array([f.centre for f in facets])))
    assert centres
    for realized in centres.values():
        assert {variant for variant, _ in realized} == set(VARIANTS)
        first = realized[0][1]
        assert all(np.array_equal(c, first) for _, c in realized)


@PROPERTY
@given(scenes())
def test_conv_total_equals_spot_total(scene):
    sun = scene.schedule[0].position
    for h in scene.heliostats:
        layout = hf.module_centres(h)
        cantings = frozen_cantings(h, layout, scene.reference)
        for variant in VARIANTS:
            facets = hf.realize_modules(h, layout, cantings[variant], sun)
            spot = hf.geometric_spot(facets, sun, scene.receiver,
                                     surface_samples=scene.surface_samples)
            conv = hf.convolve_flux(facets, sun, scene.sunshape, scene.receiver,
                                    surface_samples=scene.surface_samples)
            assert spot.values.sum() > 0.0
            assert conv.values.sum() == pytest.approx(spot.values.sum(), rel=1e-12)


@PROPERTY
@given(scenes())
def test_grt_energy_balance(scene):
    # On-grid plus spilled power of every GRT case map equals DNI * sum(A cos i
    # rho) over its members' facets, with cos i at each facet centre toward the
    # sun centre.  GRT averages cos i over the curved facet and the sun cone
    # instead, which moves the sum by a few parts per million on these scenes
    # (7.1e-6 at worst); rel=1e-4 allows that and would still catch a lost or
    # doubled sample row, or a flipped twin map that lost its spill.
    _, maps = hf.day_course(scene, collect_maps=True)
    members = case_heliostats(scene)
    for entry in scene.schedule:
        s = hf.sun_vector(entry.position)
        for case in scene.cases:
            for variant in VARIANTS:
                expected = 0.0
                for h in members[case]:
                    layout = hf.module_centres(h)
                    canting = frozen_cantings(h, layout, scene.reference)[variant]
                    facets = hf.realize_modules(h, layout, canting, entry.position)
                    expected += scene.dni * sum(f.area * float(f.axes[:, 0] @ s)
                                                * f.reflectivity for f in facets)
                grt = maps[(entry.label, variant, case, "grt")]
                assert grt.total_power + grt.spilled_power == pytest.approx(expected,
                                                                            rel=1e-4)


@PROPERTY
@given(scenes(shaped=True))
def test_mirrored_scene_gives_the_y_flipped_map(scene):
    # Mirroring every heliostat across the X'Z' plane and the sun (and the
    # reference sun the cantings are frozen at) to -azimuth mirrors the whole
    # optical path, so the map is the single map with Y' reversed.  This is
    # the premise of the day course's flipped twin maps, so it is drawn over
    # heliostat shapes and sampling too, and the twin here is traced, never
    # flipped.  It holds for GRT at every sun-cone azimuth node count, since
    # the mirrored sun's nodes are the mirror images of the sun's.
    # The conv engine's one-direction spot breaks the mirror symmetry when a
    # ray lands on a cell edge, which an odd surface sample count makes
    # likely: its conv twins are traced, so conv is held to it only for even
    # counts.
    entry = scene.schedule[0]
    single = dataclasses.replace(scene, cases=("single",), schedule=(entry,))
    twin = dataclasses.replace(
        single, heliostats=tuple(h.mirrored() for h in scene.heliostats),
        schedule=(dataclasses.replace(entry, position=mirrored(entry.position)),),
        reference=mirrored(scene.reference))
    _, maps = hf.day_course(single, collect_maps=True)
    _, twin_maps = hf.day_course(twin, collect_maps=True)
    for key, flux_map in maps.items():
        engine = key[3]
        error = np.abs(twin_maps[key].values - flux_map.values[::-1, :]).max()
        tol = 1e-12 * float(flux_map.values.max())
        if engine == "grt" or scene.surface_samples % 2 == 0:
            assert error <= tol


@PROPERTY
@given(scenes(), st.floats(0.0, 2000.0, exclude_min=True))
@example(TABLE1_NOON, 5e-324)
@example(SPILLING_NOON, 850.0)
@example(FLIPPED, 850.0)
def test_maps_in_suns_do_not_depend_on_dni(scene, dni):
    # Rays are traced per unit DNI, so a map in suns and every figure read
    # from maps alone are those of DNI 1; only the watts figures scale.
    report, maps = hf.day_course(dataclasses.replace(scene, dni=dni), collect_maps=True)
    unit, unit_maps = hf.day_course(scene, collect_maps=True)
    assert scene.dni == 1.0 and maps.keys() == unit_maps.keys()
    spilled = 0.0
    for key, flux_map in maps.items():
        assert np.array_equal(flux_map.values, unit_maps[key].values)
        spilled += unit_maps[key].spilled_power
        # a pair map adds the spills of its singles, each scaled by DNI
        assert flux_map.spilled_power == pytest.approx(dni * unit_maps[key].spilled_power,
                                                       rel=1e-12)
    for figures, unit_figures in ((report.peak, unit.peak), (report.gain, unit.gain)):
        assert figures.keys() == unit_figures.keys()
        for key, values in figures.items():
            assert np.array_equal(values, unit_figures[key])
    assert report.engine_rms == unit.engine_rms
    if scene is SPILLING_NOON:
        assert spilled > 0.0


EQUINOX_NOON = hf.ideal_equinox_position(45.37, 12.0)


def worst_centre_miss(h, variant, scale):
    """Worst distance from the receiver centre at which the reference sun,
    reflected about each facet's axis at its centre, crosses x' = 0, with
    every module offset of ``h`` scaled by ``scale``."""
    centres = hf.module_centres(h)
    layout = hf.ModuleLayout(y=scale * centres.y, z=scale * centres.z)
    canting = frozen_cantings(h, layout, EQUINOX_NOON)[variant]
    sun = hf.sun_vector(EQUINOX_NOON)
    misses = []
    for facet in hf.realize_modules(h, layout, canting, EQUINOX_NOON):
        ray = hf.reflect(sun, facet.axes[:, 0])
        land = facet.centre - facet.centre[0] / ray[0] * ray
        misses.append(math.hypot(land[1], land[2]))
    return max(misses)


@settings(PROPERTY, max_examples=200)
@given(st.floats(40.0, 400.0), st.floats(-80.0, 80.0), st.floats(-30.0, 30.0))
def test_off_axis_canting_is_tangent_to_the_paraboloid(distance, azimuth, elevation):
    # The paper's claim: off-axis canting sets every module tangent to the
    # paraboloid focused on the receiver along the reference sun, spherical
    # canting does not.  So as the module offsets scale by lambda, the
    # module-centre rays miss the receiver centre by O(lambda^2) for
    # off-axis canting (tangent to first order) and by O(lambda) for
    # spherical canting.  The order is read between lambda = 1/2 and 1/4:
    # between 1 and 1/2 the next term lifts spherical canting's order to
    # 1.25 at 40 m and 80 degrees azimuth.  At these positions the reference
    # incidence is 7 degrees or more; near 0 spherical canting is tangent too.
    az, el = math.radians(azimuth), math.radians(elevation)
    h = hf.HeliostatSpec(name="h", position=(distance * math.cos(el) * math.cos(az),
                                             distance * math.cos(el) * math.sin(az),
                                             distance * math.sin(el)))
    order = {variant: math.log2(worst_centre_miss(h, variant, 0.5)
                                / worst_centre_miss(h, variant, 0.25)) for variant in VARIANTS}
    assert order["off_axis"] >= 1.95 and order["spherical"] <= 1.2, order


@st.composite
def any_heliostat(draw):
    distance = draw(st.floats(2.0, 200.0))
    bearing = math.radians(draw(st.floats(-89.0, 89.0)))
    height = math.radians(draw(st.floats(-60.0, 30.0)))
    across = distance * math.cos(height)
    return dict(name="h1", reflectivity=draw(st.floats(0.0, 1.0)),
                position=(across * math.cos(bearing), across * math.sin(bearing),
                          distance * math.sin(height)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(any_heliostat(), st.floats(-60.0, 60.0), st.floats(10.0, 80.0),
       st.sampled_from(tuple(ENGINES)), st.floats(0.0, 2000.0))
# subnormal reflectivity: every map of the scene is exactly zero; subnormal
# DNI: the maps are those of DNI 1 and only the watts figures underflow
@example(dict(TABLE1_H1, reflectivity=5e-324), 0.0, 44.63, "both", 1.0)
@example(dict(TABLE1_H1, reflectivity=5e-324), 0.0, 44.63, "conv", 1.0)
@example(dict(TABLE1_H1, reflectivity=1.0), 0.0, 44.63, "conv", 5e-324)
def test_a_scene_that_builds_runs_or_fails_in_one_line(heliostat, azimuth, elevation,
                                                       engine, dni):
    # Anywhere in front of the receiver: a scene either fails to build with a
    # ConfigError or runs to its artifacts or to one HelioFluxError, never to
    # another exception or a RuntimeWarning (an error under pytest.ini).
    with tempfile.TemporaryDirectory() as out_dir:
        try:
            scene = hf.SceneConfig(
                site=hf.SiteSpec(), sunshape=hf.SunshapeModel(),
                receiver=hf.ReceiverSpec(grid=hf.GridSpec(extent=8.0, cells=64)),
                heliostats=(hf.HeliostatSpec(**heliostat),),
                schedule=(hf.ScheduleEntry(label="t00", position=hf.SunPosition(
                    azimuth=azimuth, elevation=elevation)),),
                reference=hf.SunPosition(azimuth=0.0, elevation=44.63),
                engine=engine, dni=dni, out_dir=out_dir,
                surface_samples=2, radial_nodes=1, azimuth_nodes=4)
        except ConfigError:
            return
        try:
            run(scene)
        except HelioFluxError:
            pass
