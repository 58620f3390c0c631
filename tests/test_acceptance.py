"""Acceptance criteria for the package, one test per criterion.

Each test prints a single ``criterion N PASS/FAIL`` line (run pytest with
``-s`` to see them as they happen).  The expensive day-course over the
bundled scene is shared through the session fixtures in conftest.py.
"""

import filecmp
import math
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import helioflux as hf

REF_SUN = hf.SunPosition(azimuth=0.0, elevation=44.63)

GOLDEN_TILTS = {
    (1, 1): (12.75, 7.50, 14.19, 8.34),
    (2, 1): (4.25, 7.50, 5.20, 7.55),
    (3, 1): (-4.25, 7.50, -3.85, 6.78),
    (4, 1): (-12.75, 7.50, -12.94, 6.04),
    (1, 2): (12.75, -7.50, 12.75, -5.89),
    (2, 2): (4.25, -7.50, 3.80, -6.70),
    (3, 2): (-4.25, -7.50, -5.19, -7.49),
    (4, 2): (-12.75, -7.50, -14.24, -8.24),
}


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {summary}")
        raise
    print(f"criterion {number:2d} PASS: {summary}")


def analytic_power(facets, sun, dni):
    s = hf.sun_vector(sun)
    total = 0.0
    for facet in facets:
        _, normal = facet.surface(0.0, 0.0)
        total += facet.area * float(normal @ s) * facet.reflectivity * dni
    return total


def case_facets(config, variant, case, sun):
    heliostats = list(config.heliostats)
    if case == "symmetric_pair":
        heliostats += [h.mirrored() for h in config.heliostats]
    facets = []
    for h in heliostats:
        layout = hf.module_centres(h)
        if variant == "spherical":
            canting = hf.spherical_canting(h, layout, h.slant_distance)
        else:
            ctx = hf.off_axis_context(h, config.reference)
            canting = hf.off_axis_canting(h, layout, ctx, h.slant_distance)
        facets.extend(hf.realize_modules(h, layout, canting, sun))
    return facets


def test_criterion_1_reference_incidence():
    with criterion(1, "bisector normal reproduces the 25.98 deg reference incidence"):
        s0 = hf.sun_vector(REF_SUN)
        target = hf.normalize(np.array([-0.8660, -0.5000, 0.0]))
        geom = hf.bisector_normal(s0, target)
        assert math.degrees(geom.incidence) == pytest.approx(25.98, abs=0.05)


def test_criterion_2_spherical_canting_golden(table1_config):
    with criterion(2, "spherical canting matches the golden table within 0.01 mrad"):
        h = table1_config.heliostats[0]
        layout = hf.module_centres(h)
        reported = hf.canting_report(
            hf.spherical_canting(h, layout, h.slant_distance))
        for (i, j), row in GOLDEN_TILTS.items():
            assert abs(reported[i - 1, j - 1, 0] - row[0]) <= 0.01
            assert abs(reported[i - 1, j - 1, 1] - row[1]) <= 0.01


def test_criterion_3_off_axis_canting_golden(table1_config):
    with criterion(3, "off-axis canting matches the golden table "
                      "(max 0.15, RMS 0.08 mrad)"):
        h = table1_config.heliostats[0]
        layout = hf.module_centres(h)
        ctx = hf.off_axis_context(h, table1_config.reference)
        sph = hf.canting_report(hf.spherical_canting(h, layout, h.slant_distance))
        oa = hf.canting_report(hf.off_axis_canting(h, layout, ctx, h.slant_distance))
        deltas = []
        for (i, j), row in GOLDEN_TILTS.items():
            deltas.append(oa[i - 1, j - 1, 0] - row[2])
            deltas.append(oa[i - 1, j - 1, 1] - row[3])
            # difference columns stay consistent at the same tolerance
            diff_a = oa[i - 1, j - 1, 0] - sph[i - 1, j - 1, 0]
            diff_h = oa[i - 1, j - 1, 1] - sph[i - 1, j - 1, 1]
            assert abs(diff_a - (row[2] - row[0])) <= 0.15
            assert abs(diff_h - (row[3] - row[1])) <= 0.15
        deltas = np.array(deltas)
        assert np.abs(deltas).max() <= 0.15
        assert math.sqrt(float((deltas ** 2).mean())) <= 0.08


def test_criterion_4_off_axis_degenerates_to_spherical():
    with criterion(4, "off-axis canting equals spherical at zero incidence"):
        spec = hf.HeliostatSpec()
        layout = hf.module_centres(spec)
        ctx = hf.OffAxisContext(incidence0=0.0, phi=0.0)
        oa = hf.off_axis_canting(spec, layout, ctx, 100.0)
        sph = hf.spherical_canting(spec, layout, 100.0)
        assert np.array_equal(oa.a, sph.a)
        assert np.array_equal(oa.h, sph.h)


def test_criterion_5_engine_cross_validation(table1_run):
    with criterion(5, "GRT vs convolution RMS/peak <= 2% across the schedule"):
        report, maps = table1_run
        assert len(report.engine_rms) == 20  # 5 times x 2 variants x 2 cases
        worst = max(report.engine_rms.values())
        assert worst <= 0.02
        print(f"    worst engine RMS/peak = {worst:.4f}")


def test_criterion_6_energy_conservation(table1_config, table1_run):
    with criterion(6, "total + spill match the analytic aperture power"):
        report, maps = table1_run
        for (label, variant, case, engine), flux_map in maps.items():
            if engine != "grt":
                continue
            entry = next(e for e in table1_config.schedule if e.label == label)
            facets = case_facets(table1_config, variant, case, entry.position)
            expected = analytic_power(facets, entry.position, table1_config.dni)
            got = flux_map.total_power + flux_map.spilled_power
            assert got == pytest.approx(expected, rel=0.01)
        # 4x sampling tightens the defaults budget tenfold
        entry = table1_config.schedule[2]
        facets = case_facets(table1_config, "off_axis", "single", entry.position)
        fine = hf.trace_flux_grt(facets, entry.position, table1_config.sunshape,
                                 table1_config.receiver, dni=table1_config.dni,
                                 surface_samples=2 * table1_config.surface_samples)
        expected = analytic_power(facets, entry.position, table1_config.dni)
        assert fine.total_power + fine.spilled_power == pytest.approx(expected,
                                                                      rel=0.001)


def test_criterion_7_superposition_and_symmetry(table1_config, table1_run):
    with criterion(7, "pair maps superpose exactly and mirror cleanly"):
        report, maps = table1_run
        h1 = table1_config.heliostats[0]
        h2 = h1.mirrored()
        shape = table1_config.sunshape
        receiver = table1_config.receiver

        def single_map(spec, entry):
            facets = case_facets(
                hf.SceneConfig(site=table1_config.site, sunshape=shape,
                               receiver=receiver, heliostats=(spec,),
                               schedule=table1_config.schedule,
                               reference=table1_config.reference),
                "spherical", "single", entry.position)
            return hf.trace_flux_grt(facets, entry.position, shape, receiver,
                                     dni=table1_config.dni,
                                     surface_samples=table1_config.surface_samples,
                                     radial_nodes=table1_config.radial_nodes,
                                     azimuth_nodes=table1_config.azimuth_nodes,
                                     heliostat_ids=(spec.name,))

        morning = table1_config.schedule[0]
        evening = table1_config.schedule[-1]

        # pair map is exactly the cell-wise sum of its singles
        mirrored_morning = single_map(h2, morning)
        single_morning = maps[(morning.label, "spherical", "single", "grt")]
        pair_morning = maps[(morning.label, "spherical", "symmetric_pair", "grt")]
        summed = hf.map_add(single_morning, mirrored_morning)
        assert np.array_equal(summed.values, pair_morning.values)

        # equinox-noon pair map is mirror-symmetric about y' = 0
        for variant in ("spherical", "off_axis"):
            noon_pair = maps[("12h00", variant, "symmetric_pair", "grt")]
            assert np.abs(noon_pair.values - noon_pair.values[::-1, :]).max() < 1e-10

        # mirrored heliostat at 09h00 replays the 15h00 single, mirrored
        single_evening = maps[(evening.label, "spherical", "single", "grt")]
        assert np.abs(mirrored_morning.values
                      - single_evening.values[::-1, :]).max() < 1e-10

        # the reported pair concentration decomposes like the published
        # additive pattern: C_pair(09h) from C_single(09h) + C_single,mirror(09h).
        # The additive structure is exact at map level (asserted above); the
        # peak of the sum trails the sum of peaks slightly because the two
        # spots do not peak in the same grid cell.
        c_single = hf.concentration_ratio(single_morning)
        c_mirror = hf.concentration_ratio(mirrored_morning)
        c_pair = hf.concentration_ratio(pair_morning)
        assert c_mirror == pytest.approx(
            hf.concentration_ratio(single_evening), abs=1e-10)
        assert c_pair <= c_single + c_mirror + 1e-9
        assert c_pair == pytest.approx(c_single + c_mirror, rel=0.02)
        print(f"    C_pair(09h00) = {c_pair:.2f} vs "
              f"{c_single:.2f} + {c_mirror:.2f} = {c_single + c_mirror:.2f}")


def test_criterion_8_concentration_gain(table1_run):
    with criterion(8, "off-axis gain in [1.03, 1.15] at noon, peaking mid-day"):
        report, maps = table1_run
        noon = report.labels.index("12h00")
        morning = report.labels.index("09h00")
        for case in ("single", "symmetric_pair"):
            ratio = 1.0 + report.gain[case][noon]
            assert 1.03 <= ratio <= 1.15
            # the reference engine's figures hold for the oracle engine too
            grt_ratio = (maps[("12h00", "off_axis", case, "grt")].values.max()
                         / maps[("12h00", "spherical", case, "grt")].values.max())
            assert 1.03 <= grt_ratio <= 1.15
            assert report.gain[case][noon] >= report.gain[case][morning]
        print(f"    noon gain single = {1 + report.gain['single'][noon]:.3f}, "
              f"pair = {1 + report.gain['symmetric_pair'][noon]:.3f}")


def test_criterion_9_convolution_identity_and_grid_refinement(table1_config):
    with criterion(9, "delta kernel reproduces the spot; peak stable on refinement"):
        entry = table1_config.schedule[2]
        facets = case_facets(table1_config, "off_axis", "single", entry.position)
        delta = hf.SunshapeModel(kind="pillbox", half_angle=1e-9)
        conv = hf.convolve_flux(facets, entry.position, delta, table1_config.receiver,
                                dni=table1_config.dni,
                                surface_samples=table1_config.surface_samples)
        spot = hf.geometric_spot(facets, entry.position, table1_config.receiver,
                                 dni=table1_config.dni,
                                 surface_samples=table1_config.surface_samples)
        assert np.array_equal(conv.values, spot.values)

        peaks = {}
        for cells in (256, 512):
            grid = hf.GridSpec(extent=table1_config.receiver.grid.extent, cells=cells)
            m = hf.convolve_flux(facets, entry.position, table1_config.sunshape,
                                 hf.ReceiverSpec(
                                     diameter=table1_config.receiver.diameter,
                                     grid=grid),
                                 dni=table1_config.dni,
                                 surface_samples=table1_config.surface_samples)
            peaks[cells] = m.values.max()
        assert abs(peaks[512] / peaks[256] - 1.0) < 0.01


@pytest.mark.slow
def test_criterion_10_full_pipeline_determinism(tmp_path):
    with criterion(10, "two scene runs produce bit-identical artifacts"):
        scene = hf.table1_scene_path()
        # The child runs from its own working directory, where a relative
        # PYTHONPATH resolves to nothing; point it at the package under test.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(hf.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        dirs = []
        for run in ("first", "second"):
            workdir = tmp_path / run
            workdir.mkdir()
            shutil.copy(scene, workdir / "table1.scene")
            proc = subprocess.run(
                [sys.executable, "-m", "helioflux", "run", "table1.scene"],
                cwd=workdir, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            dirs.append(workdir / "out")
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        assert len(names) == 84
        for name in names:
            assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name
