"""Scene file parsing, validation diagnostics, and the bundled scene."""

import dataclasses
import math

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
}


@pytest.mark.parametrize("vary, match", IN_CODE.values(), ids=IN_CODE.keys())
def test_scene_varied_in_code_meets_the_file_rules(vary, match, table1_config):
    with pytest.raises(ConfigError, match=match):
        vary(table1_config)


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
