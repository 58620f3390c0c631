"""Energy balance, case composition and determinism on random valid scenes.

Each example is a scene built in code: one or two heliostats in front of
the receiver (X' > 0), one sun 10-80 degrees high, either sunshape, on a
64-cell grid with small sampling so the module stays fast.  The last
property draws scenes that need not be valid: one heliostat 2-200 m away
anywhere in front of the receiver, with any reflectivity in [0, 1].  The
examples are derandomized, so every run of the suite draws the same scenes.
"""

import dataclasses
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helioflux as hf
from helioflux.cli import run
from helioflux.errors import ConfigError, HelioFluxError
from helioflux.metrics import ENGINES, VARIANTS, frozen_cantings


@st.composite
def heliostats(draw, name):
    distance = draw(st.floats(90.0, 110.0))
    bearing = math.radians(draw(st.floats(-40.0, 40.0)))
    z = draw(st.floats(-5.0, 5.0))
    across = math.sqrt(distance * distance - z * z)
    return hf.HeliostatSpec(name=name, position=(across * math.cos(bearing),
                                                 across * math.sin(bearing), z))


@st.composite
def scenes(draw):
    count = draw(st.integers(1, 2))
    sun = hf.SunPosition(azimuth=draw(st.floats(-60.0, 60.0)),
                         elevation=draw(st.floats(10.0, 80.0)))
    return hf.SceneConfig(
        site=hf.SiteSpec(),
        sunshape=hf.SunshapeModel(kind=draw(st.sampled_from(("pillbox",
                                                              "limb_darkened")))),
        receiver=hf.ReceiverSpec(grid=hf.GridSpec(extent=8.0, cells=64)),
        heliostats=tuple(draw(heliostats(f"h{k + 1}")) for k in range(count)),
        schedule=(hf.ScheduleEntry(label="t00", position=sun),),
        reference=hf.SunPosition(azimuth=0.0, elevation=44.63),
        engine="both", surface_samples=4, radial_nodes=2, azimuth_nodes=4)


PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)


@PROPERTY
@given(scenes())
def test_pair_map_is_single_map_plus_twin_maps(scene):
    _, maps = hf.day_course(scene, collect_maps=True)
    twin_maps = [hf.day_course(dataclasses.replace(scene, heliostats=(h.mirrored(),),
                                                   cases=("single",)),
                               collect_maps=True)[1] for h in scene.heliostats]
    for variant in VARIANTS:
        for engine in ENGINES["both"]:
            combined = maps[("t00", variant, "single", engine)]
            for twin in twin_maps:
                combined = hf.map_add(combined, twin[("t00", variant, "single", engine)])
            pair = maps[("t00", variant, "symmetric_pair", engine)]
            assert np.array_equal(combined.values, pair.values)


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
    # On-grid plus spilled GRT power equals DNI * sum(A cos i rho), with cos i
    # at each facet centre toward the sun centre.  GRT averages cos i over the
    # curved facet and the sun cone instead, which moves the sum by a few
    # parts per million on these scenes (7.1e-6 at worst); rel=1e-4 allows
    # that and would still catch a lost or doubled sample row.
    sun = scene.schedule[0].position
    s = hf.sun_vector(sun)
    for h in scene.heliostats:
        layout = hf.module_centres(h)
        cantings = frozen_cantings(h, layout, scene.reference)
        for variant in VARIANTS:
            facets = hf.realize_modules(h, layout, cantings[variant], sun)
            grt = hf.trace_flux_grt(facets, sun, scene.sunshape, scene.receiver,
                                    dni=scene.dni, surface_samples=scene.surface_samples,
                                    radial_nodes=scene.radial_nodes,
                                    azimuth_nodes=scene.azimuth_nodes)
            expected = scene.dni * sum(f.area * float(f.surface(0.0, 0.0)[1] @ s)
                                       * f.reflectivity for f in facets)
            assert grt.total_power + grt.spilled_power == pytest.approx(expected,
                                                                        rel=1e-4)


@PROPERTY
@given(scenes())
def test_mirrored_scene_gives_the_y_flipped_map(scene):
    # Mirroring every heliostat across the X'Z' plane and the sun (and the
    # reference sun the cantings are frozen at) to -azimuth mirrors the whole
    # optical path, so the map is the single map with Y' reversed.
    def mirrored(pos):
        return hf.SunPosition(azimuth=-pos.azimuth, elevation=pos.elevation)

    entry = scene.schedule[0]
    single = dataclasses.replace(scene, cases=("single",))
    twin = dataclasses.replace(
        single, heliostats=tuple(h.mirrored() for h in scene.heliostats),
        schedule=(dataclasses.replace(entry, position=mirrored(entry.position)),),
        reference=mirrored(scene.reference))
    _, maps = hf.day_course(single, collect_maps=True)
    _, twin_maps = hf.day_course(twin, collect_maps=True)
    for key, flux_map in maps.items():
        flipped = flux_map.values[::-1, :]
        tol = 1e-12 * float(flux_map.values.max())
        assert np.abs(twin_maps[key].values - flipped).max() <= tol


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
@given(any_heliostat(), st.floats(-60.0, 60.0), st.floats(10.0, 80.0))
def test_a_scene_that_builds_runs_or_fails_in_one_line(heliostat, azimuth, elevation):
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
                out_dir=out_dir,
                surface_samples=2, radial_nodes=1, azimuth_nodes=4)
        except ConfigError:
            return
        try:
            run(scene)
        except HelioFluxError:
            pass
