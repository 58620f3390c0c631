"""Command-line behavior: artifacts, errors, determinism on a reduced scene."""

import filecmp
import os

import numpy as np
import pytest

import helioflux as hf
from helioflux.cli import main

FAST_SCENE = """
[sunshape]
kind = limb_darkened
half_angle_deg = 0.1432394487827058

[receiver]
diameter = 1.2
grid_extent = 4.0
grid_cells = 64

[heliostat h1]
position = 86.6, 50.0, 0.0

[schedule]
hours = 9.0, 12.0

[run]
engine = conv
cases = single
surface_samples = 8
out = out
"""


@pytest.fixture
def fast_scene(tmp_path):
    path = tmp_path / "fast.scene"
    path.write_text(FAST_SCENE, encoding="utf-8")
    return str(path)


def test_validate_only_prints_echo(fast_scene, capsys):
    assert main(["run", fast_scene, "--validate-only"]) == 0
    out = capsys.readouterr().out
    assert "site.latitude = 45.37" in out
    assert "run.engine = conv" in out


def test_run_writes_expected_artifacts(fast_scene, tmp_path):
    out_dir = str(tmp_path / "artifacts")
    assert main(["run", fast_scene, "--out", out_dir]) == 0
    names = sorted(os.listdir(out_dir))
    assert "canting_h1.csv" in names
    assert "concentration.csv" in names
    assert "manifest.txt" in names
    for label in ("09h00", "12h00"):
        for variant in ("spherical", "off_axis"):
            stem = f"flux_{label}_{variant}_single_conv"
            assert f"{stem}.csv" in names
            assert f"{stem}.pgm" in names

    manifest = open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8").read()
    assert "run.surface_samples = 8" in manifest
    assert "sunshape.limb_coefficient = 0.5138" in manifest

    canting = open(os.path.join(out_dir, "canting_h1.csv"), encoding="utf-8").read()
    assert canting.splitlines()[1].startswith("i,j,spherical_a")
    rows = [l.split(",") for l in canting.splitlines()
            if l and not l.startswith(("#", "i,"))]
    assert len(rows) == 8
    by_index = {(int(r[0]), int(r[1])): [float(v) for v in r[2:]] for r in rows}
    # golden corner modules of the reference heliostat, reported mrad
    assert by_index[(1, 1)][0] == pytest.approx(12.75, abs=0.01)
    assert by_index[(1, 1)][1] == pytest.approx(7.50, abs=0.01)
    assert by_index[(1, 1)][2] == pytest.approx(14.19, abs=0.15)
    assert by_index[(4, 2)][3] == pytest.approx(-8.24, abs=0.15)


def test_run_records_engine_rms_with_both_engines(fast_scene, tmp_path):
    out_dir = str(tmp_path / "both")
    assert main(["run", fast_scene, "--engine", "both", "--out", out_dir,
                 "--samples", "8"]) == 0
    manifest = open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8").read()
    rms_lines = [l for l in manifest.splitlines() if l.startswith("rms.")]
    assert len(rms_lines) == 4  # 2 times x 2 variants x single case
    for line in rms_lines:
        assert float(line.split(" = ")[1]) <= 0.02


def test_pgm_format(fast_scene, tmp_path):
    out_dir = str(tmp_path / "pgm")
    assert main(["run", fast_scene, "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "flux_12h00_off_axis_single_conv.pgm"), "rb") as fh:
        blob = fh.read()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"64 64"
    maxval, raw = rest.split(b"\n", 1)
    assert maxval == b"65535"
    image = np.frombuffer(raw, dtype=">u2").reshape(64, 64)
    assert image.max() == 65535  # scaled to the peak


def _with(after, line):
    return FAST_SCENE.replace(after, after + "\n" + line)


BAD_SCENES = {
    "missing_sections": "[receiver]\ndiameter = 1.2\n",
    "angles_above_zenith": FAST_SCENE.replace("hours = 9.0, 12.0", "angles = 0 95"),
    "angles_below_nadir": FAST_SCENE.replace("hours = 9.0, 12.0",
                                             "angles = 0 45; 10 -95"),
    "reference_above_zenith": FAST_SCENE + "\n[reference]\nsun = 0 95\n",
    "times_after_2100": FAST_SCENE.replace("hours = 9.0, 12.0",
                                           "times = 2200-09-23T12:00"),
    "dni_zero": _with("cases = single", "dni = 0.0"),
    "module_width_zero": _with("position = 86.6, 50.0, 0.0", "module_width = 0.0"),
    "module_height_zero": _with("position = 86.6, 50.0, 0.0", "module_height = 0.0"),
    "angles_nan": FAST_SCENE.replace("hours = 9.0, 12.0", "angles = nan 45"),
    "grid_extent_nan": FAST_SCENE.replace("grid_extent = 4.0", "grid_extent = nan"),
    "diameter_inf": FAST_SCENE.replace("diameter = 1.2", "diameter = inf"),
    "dni_inf": _with("cases = single", "dni = inf"),
    "latitude_nan": FAST_SCENE + "\n[site]\nlatitude = nan\n",
    "near_receiver": FAST_SCENE.replace("position = 86.6, 50.0, 0.0",
                                        "position = 2.0, 0.5, -1.0"),
    "reflectivity_zero": _with("position = 86.6, 50.0, 0.0", "reflectivity = 0.0"),
}


@pytest.mark.parametrize("body", BAD_SCENES.values(), ids=BAD_SCENES.keys())
def test_cli_reports_config_error_single_line(body, tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ConfigError: ")
    assert not out.exists()


def test_cli_removes_partial_outputs_on_failure(tmp_path, capsys):
    # a sunshape too wide for the grid trips the kernel aliasing guard
    # mid-run, after some artifacts would have been written
    scene = FAST_SCENE.replace("half_angle_deg = 0.1432394487827058",
                               "half_angle_deg = 0.9")
    path = tmp_path / "aliased.scene"
    path.write_text(scene, encoding="utf-8")
    out_dir = str(tmp_path / "partial")
    assert main(["run", str(path), "--out", out_dir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: KernelAliasingError:")
    assert not os.listdir(out_dir)


def test_two_runs_are_bit_identical(fast_scene, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["run", fast_scene, "--out", a]) == 0
    assert main(["run", fast_scene, "--out", b]) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        if name == "manifest.txt":
            # the manifest echoes the output directory itself; compare the rest
            la = open(os.path.join(a, name), encoding="utf-8").read().splitlines()
            lb = open(os.path.join(b, name), encoding="utf-8").read().splitlines()
            assert [l for l in la if not l.startswith("run.out")] == \
                   [l for l in lb if not l.startswith("run.out")]
        else:
            assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                               shallow=False), name


# --- configuration echo and command-line overrides --------------------------------

MINIMAL_SCENE = """
[receiver]
diameter = 1.2

[heliostat h1]
position = 86.6, 50.0, 0.0

[schedule]
hours = 12.0
"""

# every default, in echo order, as --validate-only prints it for MINIMAL_SCENE
MINIMAL_ECHO = """\
site.latitude = 45.37
site.longitude = 0.0
sunshape.kind = limb_darkened
sunshape.half_angle_deg = 0.2664253747358328
sunshape.limb_coefficient = 0.5138
receiver.diameter = 1.2
receiver.grid_extent = 4.0
receiver.grid_cells = 256
heliostat.h1.position = 86.6, 50.0, 0.0
heliostat.h1.width = 3.4
heliostat.h1.height = 3.0
heliostat.h1.modules_across = 4
heliostat.h1.modules_up = 2
heliostat.h1.module_width = 0.7
heliostat.h1.module_height = 1.4
heliostat.h1.focal_length = 100.0
heliostat.h1.reflectivity = 1.0
schedule.12h00 = azimuth 0.0, elevation 44.63000000000001
reference.sun = azimuth 0.0, elevation 44.63
run.engine = both
run.cases = single, symmetric_pair
run.dni = 1.0
run.out = out
run.surface_samples = 32
run.radial_nodes = 24
run.azimuth_nodes = 48
"""

TABLE1_ECHO = """\
site.latitude = 45.37
site.longitude = 0.0
sunshape.kind = limb_darkened
sunshape.half_angle_deg = 0.1432394487827058
sunshape.limb_coefficient = 0.5138
receiver.diameter = 1.2
receiver.grid_extent = 4.0
receiver.grid_cells = 256
heliostat.h1.position = 86.6, 50.0, 0.0
heliostat.h1.width = 3.4
heliostat.h1.height = 3.0
heliostat.h1.modules_across = 4
heliostat.h1.modules_up = 2
heliostat.h1.module_width = 0.7
heliostat.h1.module_height = 1.4
heliostat.h1.focal_length = 100.0
heliostat.h1.reflectivity = 1.0
schedule.09h00 = azimuth -54.562127788120996, elevation 29.785922544055193
schedule.10h30 = azimuth -30.201114952377523, elevation 40.469952608874586
schedule.12h00 = azimuth 0.0, elevation 44.63000000000001
schedule.13h30 = azimuth 30.201114952377523, elevation 40.469952608874586
schedule.15h00 = azimuth 54.562127788120996, elevation 29.785922544055193
reference.sun = azimuth 0.0, elevation 44.63
run.engine = both
run.cases = single, symmetric_pair
run.dni = 1.0
run.out = out
run.surface_samples = 32
run.radial_nodes = 24
run.azimuth_nodes = 48
"""


@pytest.mark.parametrize("body, expected", [(MINIMAL_SCENE, MINIMAL_ECHO),
                                            (None, TABLE1_ECHO)],
                         ids=["minimal", "table1"])
def test_validate_only_echo_is_golden(body, expected, tmp_path, capsys):
    path = hf.table1_scene_path()
    if body is not None:
        path = tmp_path / "minimal.scene"
        path.write_text(body, encoding="utf-8")
    assert main(["run", str(path), "--validate-only"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("override", [["--grid", "7"], ["--grid", "0"], ["--grid", "8"],
                                      ["--grid", "17"], ["--samples", "0"],
                                      ["--samples", "1"]], ids="=".join)
def test_cli_override_outside_scene_bounds(override, fast_scene, tmp_path, capsys):
    out_dir = tmp_path / "rejected"
    assert main(["run", fast_scene, "--out", str(out_dir)] + override) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ConfigError:")
    assert not out_dir.exists()
