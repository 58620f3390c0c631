"""Scene configuration: a flat INI-style text format.

Grammar (all angles in degrees, lengths in meters):

    [site]                       # optional
    latitude = <degrees North>
    longitude = <degrees East>

    [sunshape]                   # optional
    kind = limb_darkened | pillbox
    half_angle_deg = <angular radius of the solar disc>
    limb_coefficient = <c4 of B(rho) = 1 - c4 rho^4>

    [receiver]                   # required
    diameter = <aperture diameter>    # required
    grid_extent = <side of the square flux grid>   # extent x extent meters
    grid_cells = <cells per side, even>            # cells x cells square cells

    [heliostat NAME]             # required, one section per heliostat
    position = <X'>, <Y'>, <Z'>  # required, X' > 0
    width = <m>                  # likewise height, module_width, module_height
    modules_across = <count>     # likewise modules_up
    focal_length = <m>
    reflectivity = <fraction>

    [schedule]                   # required; exactly one of hours/angles/times
    hours = 9.0, 10.5, 12.0      # ideal equinox path at the site latitude
    # angles = -54.5 29.8; 0 44.63; 54.5 29.8
    # times = 2022-09-23T09:00; 2022-09-23T12:00   (UTC, uses the ephemeris)
    # labels = morning, noon, afternoon   (one per schedule entry)

    [reference]                  # optional
    sun = equinox-noon | <azimuth> <elevation>

    [run]                        # optional
    engine = grt | conv | both
    cases = <comma list of single, symmetric_pair, each at most once>
    dni = <direct normal irradiance, W/m^2>
    out = <output directory>
    surface_samples = <per facet axis>
    radial_nodes = <sun-cone rings>
    azimuth_nodes = <sun-cone spokes>

Heliostat names and schedule labels become part of output file names, so
neither may hold a path separator; with case symmetric_pair no heliostat
may carry the name of another's mirror twin, NAME_mirror.

``KEYS`` lists every key with its type and bounds.  A key absent from the
file takes the default of the dataclass field it fills; ``--validate-only``
on a minimal scene prints every default.  Unknown sections or keys are
errors; every default that applies is recorded in the config echo.
"""

import configparser
import math
import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from importlib import resources

from .errors import ConfigError
from .flux import DEFAULT_AZIMUTH_NODES, DEFAULT_RADIAL_NODES, DEFAULT_SURFACE_SAMPLES
from .heliostat import HeliostatSpec
from .metrics import CASE_TWINS, ENGINES
from .receiver import GridSpec, ReceiverSpec
from .sun import (ScheduleEntry, SiteSpec, SunPosition, SunshapeModel, ephemeris,
                  hour_label, ideal_equinox_position)

# section -> key -> (type, minimum, maximum).  A type in brackets is a
# comma-separated list of that type; a dict type takes one of its keys.
KEYS = {
    "site": {"latitude": (float, -90.0, 90.0), "longitude": (float, -180.0, 180.0)},
    "sunshape": {"kind": (str, None, None), "half_angle_deg": (float, None, None),
                 "limb_coefficient": (float, None, None)},
    "receiver": {"diameter": (float, 0.0, None), "grid_extent": (float, 0.1, None),
                 "grid_cells": (int, 16, None)},
    "heliostat": {"position": ([float], None, None), "width": (float, 0.0, None),
                  "height": (float, 0.0, None), "modules_across": (int, 1, None),
                  "modules_up": (int, 1, None), "module_width": (float, 0.0, None),
                  "module_height": (float, 0.0, None),
                  "focal_length": (float, 80.0, 120.0),
                  "reflectivity": (float, 0.0, 1.0)},
    "schedule": {"hours": ([float], 0.0, 24.0), "angles": (str, None, None),
                 "times": (str, None, None), "labels": ([str], None, None)},
    "reference": {"sun": (str, None, None)},
    "run": {"engine": (ENGINES, None, None), "cases": ([CASE_TWINS], None, None),
            "dni": (float, 0.0, None), "out": (str, None, None),
            "surface_samples": (int, 2, None), "radial_nodes": (int, 1, None),
            "azimuth_nodes": (int, 4, None)},
}


@dataclass(frozen=True)
class SceneConfig:
    """Fully resolved scene: every field is populated, defaults included."""

    site: SiteSpec
    sunshape: SunshapeModel
    receiver: ReceiverSpec
    heliostats: tuple
    schedule: tuple
    reference: SunPosition
    engine: str = "both"
    cases: tuple = tuple(CASE_TWINS)
    dni: float = 1.0
    out_dir: str = "out"
    surface_samples: int = DEFAULT_SURFACE_SAMPLES
    radial_nodes: int = DEFAULT_RADIAL_NODES
    azimuth_nodes: int = DEFAULT_AZIMUTH_NODES

    def echo(self):
        """Every effective parameter as '<section>.<key> = <value>' lines."""
        grid = self.receiver.grid
        shown = {
            "site": vars(self.site),
            "sunshape": {**vars(self.sunshape),
                         "half_angle_deg": math.degrees(self.sunshape.half_angle)},
            "receiver": {"diameter": self.receiver.diameter,
                         "grid_extent": grid.extent, "grid_cells": grid.cells},
        }
        lines = [f"{section}.{key} = {_text(values[key])}"
                 for section, values in shown.items() for key in KEYS[section]]
        lines += [f"heliostat.{h.name}.{key} = {_text(getattr(h, key))}"
                  for h in self.heliostats for key in KEYS["heliostat"]]
        lines += [f"schedule.{e.label} = {_sun_text(e.position)}" for e in self.schedule]
        lines.append(f"reference.sun = {_sun_text(self.reference)}")
        run = {**vars(self), "out": self.out_dir}
        lines += [f"run.{key} = {_text(run[key])}" for key in KEYS["run"]]
        return lines


def _text(value):
    if isinstance(value, tuple):
        return ", ".join(_text(item) for item in value)
    return repr(value) if isinstance(value, float) else str(value)


def _sun_text(pos):
    return f"azimuth {pos.azimuth!r}, elevation {pos.elevation!r}"


def table1_scene_path():
    """Path of the bundled single-heliostat reference scene."""
    return str(resources.files("helioflux").joinpath("data/table1.scene"))


def _split_list(raw):
    return [item.strip() for item in raw.split(",") if item.strip()]


def _bounded(where, key, value, minimum, maximum):
    if minimum is not None and value < minimum:
        raise ConfigError(f"[{where}] {key}: {value} below minimum {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"[{where}] {key}: {value} above maximum {maximum}")
    return value


def _parse(where, key, raw, kind, minimum, maximum):
    """One typed, bounds-checked value; a ConfigError names the key otherwise."""
    if isinstance(kind, list):
        return tuple(_parse(where, key, item, kind[0], minimum, maximum)
                     for item in _split_list(raw))
    if isinstance(kind, dict):
        if raw.strip() not in kind:
            raise ConfigError(f"[{where}] {key}: {raw.strip()!r} is not one of "
                              f"{', '.join(kind)}")
        return raw.strip()
    if kind is str:
        return raw.strip()
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{where}] {key}: {raw!r} is not {noun}") from None
    return _bounded(where, key, value, minimum, maximum)


def _section(section, items, where=None, required=()):
    """The values a section gives, by key; keys it leaves out keep their defaults."""
    where = where or section
    keys = KEYS[section]
    for key in items:
        if key not in keys:
            raise ConfigError(f"[{where}] unknown key {key!r}")
    for key in required:
        if key not in items:
            raise ConfigError(f"[{where}] missing required key {key!r}")
    return {key: _parse(where, key, raw, *keys[key]) for key, raw in items.items()}


def _file_safe(where, key, name):
    """A name that becomes part of an output file name holds no path separator."""
    if any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise ConfigError(f"[{where}] {key}: {name!r} contains a path separator")


def _build(where, make, *args, **values):
    try:
        return make(*args, **values)
    except ValueError as exc:
        raise ConfigError(f"[{where}] {exc}") from None


def _parse_heliostat(name, items):
    where = f"heliostat {name}"
    _file_safe(where, "name", name)
    values = _section("heliostat", items, where, required=("position",))
    if len(values["position"]) != 3:
        raise ConfigError(f"[{where}] position needs three coordinates")
    if values["position"][0] <= 0.0:
        raise ConfigError(f"[{where}] position: X' must be positive so the "
                          "receiver front face sees the heliostat")
    return _build(where, HeliostatSpec, name=name, **values)


def _parse_schedule(items, site):
    values = _section("schedule", items)
    modes = [k for k in ("hours", "angles", "times") if k in values]
    if len(modes) != 1:
        raise ConfigError("[schedule] needs exactly one of 'hours', 'angles' or 'times'")
    entries = []

    if modes[0] == "hours":
        for hour in values["hours"]:
            entries.append((hour_label(hour), ideal_equinox_position(site.latitude, hour)))
    elif modes[0] == "angles":
        pairs = [p.strip() for p in values["angles"].split(";") if p.strip()]
        for k, pair in enumerate(pairs):
            parts = pair.split()
            if len(parts) != 2:
                raise ConfigError(f"[schedule] angles: entry {k}: expected "
                                  f"'<azimuth> <elevation>', got {pair!r}")
            az, el = (_parse("schedule", "angles", p, float, None, None) for p in parts)
            entries.append((f"t{k:02d}", SunPosition(azimuth=az, elevation=el)))
    else:
        stamps = [p.strip() for p in values["times"].split(";") if p.strip()]
        for k, stamp in enumerate(stamps):
            try:
                t = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
            except ValueError:
                raise ConfigError(f"[schedule] times: entry {k}: {stamp!r} is not an "
                                  "ISO datetime") from None
            if t.tzinfo is None:
                t = t.replace(tzinfo=timezone.utc)
            entries.append((t.strftime("%Hh%M"), ephemeris(site, t)))

    labels = values.get("labels")
    if labels:
        if len(labels) != len(entries):
            raise ConfigError("[schedule] labels: count does not match the schedule length")
        for label in labels:
            _file_safe("schedule", "labels", label)
        entries = [(label, pos) for label, (_, pos) in zip(labels, entries)]
    if not entries:
        raise ConfigError("[schedule] the schedule is empty")
    for k, (label, pos) in enumerate(entries):
        if pos.elevation <= 0.0:
            raise ConfigError(f"[schedule] entry {k} ({label}): sun elevation "
                              f"{pos.elevation:.2f} deg is not above the horizon")
    seen = set()
    for label, _ in entries:
        if label in seen:
            raise ConfigError(f"[schedule] duplicate label {label!r}")
        seen.add(label)
    return tuple(ScheduleEntry(label=label, position=pos) for label, pos in entries)


def _parse_reference(items, site):
    raw = _section("reference", items).get("sun", "equinox-noon")
    if raw == "equinox-noon":
        if not 0.0 < site.latitude < 90.0:
            raise ConfigError("[reference] equinox-noon needs a site latitude in "
                              "(0, 90) degrees")
        return SunPosition(azimuth=0.0, elevation=90.0 - site.latitude)
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError("[reference] sun: expected 'equinox-noon' or "
                          "'<azimuth> <elevation>'")
    az, el = (_parse("reference", "sun", p, float, None, None) for p in parts)
    if el <= 0.0:
        raise ConfigError(f"[reference] sun elevation {el} deg is not above the horizon")
    return SunPosition(azimuth=az, elevation=el)


def load_config(path):
    """Parse and validate a scene file into a fully resolved SceneConfig."""
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",),
                                       inline_comment_prefixes=("#",), strict=True,
                                       interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from None

    sections = dict(parser.items())
    sections.pop("DEFAULT", None)

    heliostat_sections = {}
    for section in list(sections):
        if section.startswith("heliostat"):
            parts = section.split(None, 1)
            name = parts[1].strip() if len(parts) == 2 else ""
            if not name:
                raise ConfigError(f"[{section}] heliostat sections need a name: "
                                  "[heliostat NAME]")
            if name in heliostat_sections:
                raise ConfigError(f"duplicate heliostat name {name!r}")
            heliostat_sections[name] = dict(sections.pop(section))
        elif section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")

    missing = []
    if "receiver" not in sections:
        missing.append("[receiver]")
    if not heliostat_sections:
        missing.append("[heliostat <name>]")
    if "schedule" not in sections:
        missing.append("[schedule]")
    if missing:
        raise ConfigError(f"missing required sections: {', '.join(missing)}")

    site = _build("site", SiteSpec, **_section("site", sections.get("site", {})))

    shape = _section("sunshape", sections.get("sunshape", {}))
    if "half_angle_deg" in shape:
        shape["half_angle"] = math.radians(shape.pop("half_angle_deg"))
    sunshape = _build("sunshape", SunshapeModel, **shape)

    recv = _section("receiver", sections["receiver"], required=("diameter",))
    grid = {key.removeprefix("grid_"): recv.pop(key)
            for key in ("grid_extent", "grid_cells") if key in recv}
    receiver = _build("receiver", ReceiverSpec, grid=_build("receiver", GridSpec, **grid),
                      **recv)

    heliostats = tuple(_parse_heliostat(name, items)
                       for name, items in heliostat_sections.items())
    schedule = _parse_schedule(sections["schedule"], site)
    reference = _parse_reference(sections.get("reference", {}), site)

    run = _section("run", sections.get("run", {}))
    if "out" in run:
        run["out_dir"] = run.pop("out")
    config = SceneConfig(site=site, sunshape=sunshape, receiver=receiver,
                         heliostats=heliostats, schedule=schedule, reference=reference,
                         **run)
    _check_cases(config)
    return config


def _check_cases(config):
    """Every case is listed once, and no case's mirror twin takes a heliostat's name."""
    cases = config.cases
    if not cases:
        raise ConfigError("[run] cases: at least one case is required")
    for case in cases:
        if cases.count(case) > 1:
            raise ConfigError(f"[run] cases: {case!r} is listed more than once")
    names = {h.name for h in config.heliostats}
    for case in (c for c in cases if CASE_TWINS[c]):
        for h in config.heliostats:
            twin = h.mirrored().name
            if twin in names:
                raise ConfigError(f"[heliostat {twin}] the name is taken by the mirror "
                                  f"twin of heliostat {h.name!r} in case {case!r}")


def with_overrides(config, engine=None, out_dir=None, grid_cells=None,
                   surface_samples=None):
    """Apply command-line overrides, returning a new SceneConfig.

    The grid and sampling overrides meet the scene file's bounds.
    """
    if engine is not None:
        config = replace(config, engine=engine)
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    if grid_cells is not None:
        _bounded("receiver", "grid_cells", grid_cells, *KEYS["receiver"]["grid_cells"][1:])
        grid = _build("receiver", replace, config.receiver.grid, cells=grid_cells)
        config = replace(config, receiver=replace(config.receiver, grid=grid))
    if surface_samples is not None:
        _bounded("run", "surface_samples", surface_samples,
                 *KEYS["run"]["surface_samples"][1:])
        config = replace(config, surface_samples=surface_samples)
    return config
