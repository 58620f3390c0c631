"""Scene file parsing, validation diagnostics, and the bundled scene."""

import dataclasses
import math

import numpy as np
import pytest

import helioflux as hf
from helioflux.cli import main
from helioflux.errors import ConfigError


def write_scene(tmp_path, body, name="test.scene"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


MINIMAL = """
[receiver]
diameter = 1.2

[heliostat h1]
position = 86.6, 50.0, 0.0

[schedule]
hours = 12.0
"""


# --- bundled scene --------------------------------------------------------------

def test_bundled_scene_reproduces_reference_parameters(table1_config):
    config = table1_config
    h = config.heliostats[0]
    assert h.position == (86.6, 50.0, 0.0)
    assert h.slant_distance == pytest.approx(100.0, abs=0.01)
    assert (h.modules_across, h.modules_up) == (4, 2)
    assert (h.module_width, h.module_height) == (0.7, 1.4)
    assert h.focal_length == 100.0
    assert (h.width, h.height) == (3.4, 3.0)
    assert config.receiver.diameter == 1.2
    assert config.receiver.grid.cells == 256
    assert config.reference.azimuth == 0.0
    assert config.reference.elevation == pytest.approx(44.63, abs=1e-9)
    assert [e.label for e in config.schedule] == \
        ["09h00", "10h30", "12h00", "13h30", "15h00"]
    # receiver incidence of the reference heliostat is 30 degrees; the
    # receiver plane faces +X'
    cos_beta = abs(h.target_direction()[0])
    assert math.degrees(math.acos(cos_beta)) == pytest.approx(30.0, abs=0.01)


def test_minimal_scene_defaults(tmp_path):
    config = hf.load_config(write_scene(tmp_path, MINIMAL))
    assert config.site.latitude == 45.37
    assert config.sunshape.kind == "limb_darkened"
    assert config.sunshape.half_angle == pytest.approx(4.65e-3, abs=1e-12)
    assert config.engine == "both"
    assert config.cases == ("single", "symmetric_pair")
    assert config.dni == 1.0
    assert config.surface_samples == 32


# --- validation errors -----------------------------------------------------------

def test_empty_file_lists_required_sections(tmp_path):
    with pytest.raises(ConfigError) as err:
        hf.load_config(write_scene(tmp_path, ""))
    message = str(err.value)
    for needed in ("[receiver]", "[heliostat <name>]", "[schedule]"):
        assert needed in message


def test_schedule_below_horizon_names_the_entry(tmp_path):
    body = MINIMAL.replace("hours = 12.0",
                           "angles = 0 44.63; 10 -5.0\nlabels = noon, night")
    with pytest.raises(ConfigError) as err:
        hf.load_config(write_scene(tmp_path, body))
    assert "entry 1" in str(err.value)
    assert "night" in str(err.value)


def test_unknown_key_is_an_error(tmp_path):
    body = MINIMAL + "\n[run]\nengin = conv\n"
    with pytest.raises(ConfigError, match="engin"):
        hf.load_config(write_scene(tmp_path, body))


def test_unknown_section_is_an_error(tmp_path):
    body = MINIMAL + "\n[receivers]\ndiameter = 1.0\n"
    with pytest.raises(ConfigError, match="receivers"):
        hf.load_config(write_scene(tmp_path, body))


def test_unknown_heliostat_key_is_an_error(tmp_path):
    body = MINIMAL + "\n[heliostat h2]\nposition = 86.6, -50.0, 0.0\nwidht = 3.4\n"
    with pytest.raises(ConfigError, match="widht"):
        hf.load_config(write_scene(tmp_path, body))


def test_parse_error_carries_line_context(tmp_path):
    with pytest.raises(ConfigError, match="line"):
        hf.load_config(write_scene(tmp_path, "[receiver\ndiameter = 1.2\n"))


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        hf.load_config(str(tmp_path / "absent.scene"))


def test_focal_length_outside_published_range(tmp_path):
    body = MINIMAL.replace("position = 86.6, 50.0, 0.0",
                           "position = 86.6, 50.0, 0.0\nfocal_length = 60.0")
    with pytest.raises(ConfigError, match="focal_length"):
        hf.load_config(write_scene(tmp_path, body))


def test_schedule_needs_exactly_one_mode(tmp_path):
    body = MINIMAL + "\n"
    body = body.replace("hours = 12.0", "hours = 12.0\nangles = 0 45")
    with pytest.raises(ConfigError, match="exactly one"):
        hf.load_config(write_scene(tmp_path, body))


def test_duplicate_heliostat_names_rejected(tmp_path):
    body = MINIMAL + "\n[heliostat h1]\nposition = 86.6, -50.0, 0.0\n"
    with pytest.raises(ConfigError):
        hf.load_config(write_scene(tmp_path, body))
    # two section headers that name the same heliostat meet SceneConfig's rule
    body = MINIMAL + "\n[heliostat  h1]\nposition = 86.6, -50.0, 0.0\n"
    with pytest.raises(ConfigError, match=r"\[heliostat h1\] duplicate name 'h1'"):
        hf.load_config(write_scene(tmp_path, body))


def test_heliostat_named_like_a_mirror_twin_rejected(tmp_path):
    # with the default symmetric_pair case, h1's twin is named h1_mirror
    body = MINIMAL + "\n[heliostat h1_mirror]\nposition = 95.0, -20.0, -3.0\n"
    with pytest.raises(ConfigError, match="h1_mirror.*twin of heliostat 'h1'"):
        hf.load_config(write_scene(tmp_path, body))
    config = hf.load_config(write_scene(tmp_path, body + "\n[run]\ncases = single\n"))
    assert [h.name for h in config.heliostats] == ["h1", "h1_mirror"]


def test_repeated_case_rejected(tmp_path):
    body = MINIMAL + "\n[run]\ncases = single, symmetric_pair, single\n"
    with pytest.raises(ConfigError, match="'single' is listed more than once"):
        hf.load_config(write_scene(tmp_path, body))


@pytest.mark.parametrize("body, key", [
    (MINIMAL.replace("[heliostat h1]", "[heliostat a/b]"), "[heliostat a/b] name"),
    (MINIMAL.replace("hours = 12.0", "hours = 12.0\nlabels = x/y"), "[schedule] labels"),
], ids=["heliostat", "label"])
def test_path_separator_in_file_name_rejected(body, key, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", write_scene(tmp_path, body), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {key}: ")
    assert err.endswith("contains a path separator\n") and err.count("\n") == 1
    assert not out.exists()


# each scene-file error the parser itself raises, with the key it names
FILE_ERRORS = {
    "missing_diameter": (MINIMAL.replace("diameter = 1.2", "grid_cells = 64"),
                         r"\[receiver\] missing required key 'diameter'"),
    "three_number_angles": (MINIMAL.replace("hours = 12.0", "angles = 0 44.63 1"),
                            r"\[schedule\] angles: entry 0: expected '<azimuth> <elevation>'"),
    "hours_25": (MINIMAL.replace("hours = 12.0", "hours = 25"),
                 r"\[schedule\] hours: 25.0 outside \[0, 24\]"),
    "times_not_iso": (MINIMAL.replace("hours = 12.0", "times = 2022-09-23 noon"),
                      r"\[schedule\] times: entry 0: '2022-09-23 noon' is not an ISO"),
    "equinox_noon_south": (MINIMAL + "\n[site]\nlatitude = -10\n",
                           r"\[reference\] equinox-noon needs a site latitude"),
    "bare_heliostat": (MINIMAL + "\n[heliostat]\nposition = 86.6, -50.0, 0.0\n",
                       r"\[heliostat\] heliostat sections need a name"),
    # a first word that merely starts with "heliostat" defines no heliostat
    "heliostats_typo": (MINIMAL.replace("[heliostat h1]", "[heliostats h1]"),
                        r"unknown section \[heliostats h1\]"),
    # configparser's own errors, whose messages span lines, name the file and line
    "no_section_header": ("stray line\n" + MINIMAL,
                          r"parse error in \S+test\.scene: File contains no section "
                          r"headers\. file: '\S+test\.scene', line: 1 'stray line\\n'$"),
    "parsing_error": (MINIMAL.replace("diameter = 1.2", "diameter 1.2"),
                      r"parse error in \S+test\.scene: .*'\S+test\.scene' \[line +3\]: "
                      r"'diameter 1\.2\\n'$"),
    # default labels drop the date, so a seasonal comparison needs labels
    "times_same_clock": (MINIMAL.replace("hours = 12.0",
                                         "times = 2022-03-21T12:00; 2022-06-21T12:00"),
                         r"\[schedule\] duplicate label '12h00'; name the entries "
                         r"with \[schedule\] labels"),
    "dni_above_2000": (MINIMAL + "\n[run]\ndni = 1e308\n",
                       r"\[run\] dni: 1e\+308 outside \(0, 2000\]"),
    # squaring 1e200 would overflow; the distance bound fails the scene first
    "beyond_10_km": (MINIMAL.replace("position = 86.6, 50.0, 0.0",
                                     "position = 1e200, 50.0, 0.0"),
                     r"\[heliostat h1\] position: 1e\+200 m from the receiver, "
                     r"beyond the 10000 m bound"),
}


@pytest.mark.parametrize("body, match", FILE_ERRORS.values(), ids=FILE_ERRORS.keys())
def test_scene_file_error_is_one_line_naming_its_key(body, match, tmp_path):
    with pytest.raises(ConfigError, match=match) as err:
        hf.load_config(write_scene(tmp_path, body))
    assert "\n" not in str(err.value)


def test_heliostat_behind_receiver_rejected(tmp_path):
    body = MINIMAL.replace("position = 86.6, 50.0, 0.0",
                           "position = -86.6, 50.0, 0.0")
    with pytest.raises(ConfigError, match="front face"):
        hf.load_config(write_scene(tmp_path, body))


def test_bad_engine_rejected(tmp_path):
    body = MINIMAL + "\n[run]\nengine = warp\n"
    with pytest.raises(ConfigError, match="warp"):
        hf.load_config(write_scene(tmp_path, body))


def test_bad_number_rejected_with_field(tmp_path):
    body = MINIMAL.replace("diameter = 1.2", "diameter = one-point-two")
    with pytest.raises(ConfigError, match="diameter"):
        hf.load_config(write_scene(tmp_path, body))


def _replace_heliostat(config, **changes):
    h1 = dataclasses.replace(config.heliostats[0], **changes)
    return dataclasses.replace(config, heliostats=(h1,))


def _replace_grid(config, **changes):
    grid = dataclasses.replace(config.receiver.grid, **changes)
    return dataclasses.replace(config, receiver=dataclasses.replace(config.receiver,
                                                                    grid=grid))


# each rule a scene file obeys, broken by a scene varied in code
IN_CODE = {
    "engine": (lambda c: dataclasses.replace(c, engine="warp"), "warp"),
    "case": (lambda c: dataclasses.replace(c, cases=("triple",)), "triple"),
    "below_horizon": (lambda c: dataclasses.replace(c, schedule=(hf.ScheduleEntry(
        label="night", position=hf.SunPosition(azimuth=0.0, elevation=-5.0)),)),
        "entry 0 .night.*horizon"),
    "surface_samples": (lambda c: dataclasses.replace(c, surface_samples=0),
                        "surface_samples"),
    "radial_nodes": (lambda c: dataclasses.replace(c, radial_nodes=0), "radial_nodes"),
    "azimuth_nodes": (lambda c: dataclasses.replace(c, azimuth_nodes=3), "azimuth_nodes"),
    "grid_cells": (lambda c: _replace_grid(c, cells=8), "grid_cells"),
    "focal_length": (lambda c: _replace_heliostat(c, focal_length=60.0), "focal_length"),
    "behind_receiver": (lambda c: _replace_heliostat(c, position=(-86.6, 50.0, 0.0)),
                        "front face"),
    "duplicate_label": (lambda c: dataclasses.replace(c, schedule=c.schedule[:1] * 2),
                        "duplicate label '09h00'"),
    "duplicate_name": (lambda c: dataclasses.replace(c, cases=("single",), heliostats=(
        c.heliostats[0],
        dataclasses.replace(c.heliostats[0], position=(95.0, -20.0, -3.0)))),
        r"\[heliostat h1\] duplicate name 'h1'"),
    "label_separator": (lambda c: dataclasses.replace(c, schedule=(dataclasses.replace(
        c.schedule[0], label="a/b"),)), "path separator"),
    "name_separator": (lambda c: _replace_heliostat(c, name="a/b"), "path separator"),
    "latitude_nan": (lambda c: dataclasses.replace(c, site=dataclasses.replace(
        c.site, latitude=math.nan)), "latitude"),
    "diameter_nan": (lambda c: dataclasses.replace(c, receiver=dataclasses.replace(
        c.receiver, diameter=math.nan)), "diameter"),
    "grid_extent_inf": (lambda c: _replace_grid(c, extent=math.inf), "extent"),
    "near_receiver": (lambda c: _replace_heliostat(c, position=(2.0, 0.5, -1.0)),
                      r"\[heliostat h1\] canting at the reference sun: .*small-angle"),
    "extreme_incidence": (lambda c: dataclasses.replace(c, reference=hf.SunPosition(
        azimuth=150.0, elevation=10.0)), r"\[heliostat h1\] .*cos i0 <= 0\.5"),
    "zero_reflectivity": (lambda c: _replace_heliostat(c, reflectivity=0.0), "reflectivity"),
    "no_heliostats": (lambda c: dataclasses.replace(c, heliostats=()), "no heliostat"),
    "no_cases": (lambda c: dataclasses.replace(c, cases=()), "at least one case"),
    "longitude": (lambda c: dataclasses.replace(c, site=dataclasses.replace(
        c.site, longitude=200.0)), "longitude 200.0 outside"),
    "dni_above_2000": (lambda c: dataclasses.replace(c, dni=2000.0000000000002),
                       r"dni: 2000\.0000000000002 outside"),
    "beyond_10_km": (lambda c: _replace_heliostat(c, position=(10000.000000000002, 0.0,
                                                               0.0)),
                     r"position: 10000\.000000000002 m from the receiver, beyond the "
                     r"10000 m bound"),
    "surface_samples_float": (lambda c: dataclasses.replace(c, surface_samples=4.0),
                              r"\[run\] surface_samples: 4\.0 is not an integer"),
    "radial_nodes_fraction": (lambda c: dataclasses.replace(c, radial_nodes=2.5),
                              r"\[run\] radial_nodes: 2\.5 is not an integer"),
    "azimuth_nodes_bool": (lambda c: dataclasses.replace(c, azimuth_nodes=True),
                           r"\[run\] azimuth_nodes: True is not an integer"),
    "grid_cells_float": (lambda c: _replace_grid(c, cells=64.0),
                         r"grid_cells: 64\.0 is not an integer"),
    "modules_across_float": (lambda c: _replace_heliostat(c, modules_across=4.0),
                             r"modules_across: 4\.0 is not an integer"),
    "modules_up_bool": (lambda c: _replace_heliostat(c, modules_up=True),
                        r"modules_up: True is not an integer"),
    "out_dir_nul": (lambda c: dataclasses.replace(c, out_dir="a\0b"),
                    r"\[run\] out: 'a\\x00b' contains a NUL byte"),
}


@pytest.mark.parametrize("vary, match", IN_CODE.values(), ids=IN_CODE.keys())
def test_scene_varied_in_code_meets_the_file_rules(vary, match, table1_config):
    with pytest.raises(ConfigError, match=match):
        vary(table1_config)


def test_numpy_integer_counts_build(table1_config):
    scene = _replace_heliostat(_replace_grid(table1_config, cells=np.int64(64)),
                               modules_across=np.int32(4), modules_up=np.uint8(2))
    scene = dataclasses.replace(scene, surface_samples=np.int64(4),
                                radial_nodes=np.int16(3), azimuth_nodes=np.int64(8))
    assert (scene.receiver.grid.cells, scene.heliostats[0].modules_across,
            scene.surface_samples) == (64, 4, 4)


def test_dni_bound_is_inclusive(table1_config, tmp_path):
    assert dataclasses.replace(table1_config, dni=2000.0).dni == 2000.0
    body = MINIMAL + "\n[run]\ndni = 2000\n"
    assert hf.load_config(write_scene(tmp_path, body)).dni == 2000.0


@pytest.mark.parametrize("position", [(1e4, 0.0, 0.0), (6000.0, 8000.0, 0.0),
                                      (6000.0, 0.0, -8000.0)])
def test_heliostat_distance_bound_is_inclusive(position, table1_config):
    scene = _replace_heliostat(table1_config, position=position)
    assert scene.heliostats[0].slant_distance == 1e4


def test_heliostat_section_name_may_follow_a_tab(tmp_path):
    body = MINIMAL.replace("[heliostat h1]", "[heliostat\th1]")
    assert [h.name for h in hf.load_config(write_scene(tmp_path, body)).heliostats] == ["h1"]


# --- schedule modes --------------------------------------------------------------

def test_schedule_hours_mode_builds_symmetric_path(tmp_path):
    body = MINIMAL.replace("hours = 12.0", "hours = 9.0, 12.0, 15.0")
    config = hf.load_config(write_scene(tmp_path, body))
    am, noon, pm = [e.position for e in config.schedule]
    assert noon.azimuth == 0.0
    assert noon.elevation == pytest.approx(90.0 - 45.37)
    assert am.azimuth == -pm.azimuth
    assert am.elevation == pm.elevation


def test_schedule_times_mode_uses_ephemeris(tmp_path):
    body = MINIMAL.replace("hours = 12.0", "times = 2022-09-23T12:00Z")
    config = hf.load_config(write_scene(tmp_path, body))
    expected = hf.ephemeris(config.site,
                            __import__("datetime").datetime(
                                2022, 9, 23, 12, 0,
                                tzinfo=__import__("datetime").timezone.utc))
    assert config.schedule[0].position.azimuth == pytest.approx(expected.azimuth)
    assert config.schedule[0].position.elevation == pytest.approx(expected.elevation)


def test_schedule_angle_labels(tmp_path):
    body = MINIMAL.replace("hours = 12.0", "angles = 0 44.63\nlabels = noon")
    config = hf.load_config(write_scene(tmp_path, body))
    assert config.schedule[0].label == "noon"


@pytest.mark.parametrize("schedule", [
    "hours = 9.0, 10.5, 12.0",
    "angles = -54.5 29.8; 0 44.63; 54.5 29.8",
    "times = 2022-09-23T09:00; 2022-09-23T10:30; 2022-09-23T12:00",
], ids=["hours", "angles", "times"])
def test_schedule_labels_shorter_than_schedule(schedule, tmp_path, capsys):
    body = MINIMAL.replace("hours = 12.0", schedule + "\nlabels = a, b")
    assert main(["run", write_scene(tmp_path, body), "--validate-only"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ConfigError: [schedule] labels")


def test_explicit_reference_angles(tmp_path):
    body = MINIMAL + "\n[reference]\nsun = 10.0 40.0\n"
    config = hf.load_config(write_scene(tmp_path, body))
    assert config.reference.azimuth == 10.0
    assert config.reference.elevation == 40.0


# --- echo and overrides -----------------------------------------------------------

def test_echo_covers_every_parameter_once(table1_config):
    lines = table1_config.echo()
    keys = [line.split(" = ")[0] for line in lines]
    assert len(keys) == len(set(keys))
    for expected in ("site.latitude", "site.longitude", "sunshape.kind",
                     "sunshape.half_angle_deg", "sunshape.limb_coefficient",
                     "receiver.diameter", "receiver.grid_extent",
                     "receiver.grid_cells", "heliostat.h1.position",
                     "heliostat.h1.focal_length", "heliostat.h1.reflectivity",
                     "schedule.12h00", "reference.sun", "run.engine", "run.cases",
                     "run.dni", "run.out", "run.surface_samples",
                     "run.radial_nodes", "run.azimuth_nodes"):
        assert expected in keys


def test_overrides(table1_config):
    config = hf.with_overrides(table1_config, engine="conv", out_dir="elsewhere",
                               grid_cells=128, surface_samples=16)
    assert config.engine == "conv"
    assert config.out_dir == "elsewhere"
    assert config.receiver.grid.cells == 128
    assert config.surface_samples == 16
    # original untouched
    assert table1_config.engine == "both"
