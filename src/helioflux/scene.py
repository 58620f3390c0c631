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
    # angles = -54.5 29.8; 0 44.63; 54.5 29.8   (<azimuth> <elevation> entries)
    # times = 2022-09-23T09:00; 2022-09-23T12:00   (ISO, 1950-2100, uses the ephemeris)
    # labels = morning, noon, afternoon   (one per schedule entry)

    [reference]                  # optional
    sun = equinox-noon | <azimuth> <elevation>

    [run]                        # optional
    engine = grt | conv | both
    cases = <comma list of single, symmetric_pair, each at most once>
    dni = <direct normal irradiance, W/m^2, positive>
    out = <output directory>
    surface_samples = <per facet axis>
    radial_nodes = <sun-cone rings>
    azimuth_nodes = <sun-cone spokes>

``angles`` entries and ``reference sun`` share the ``<azimuth> <elevation>``
form; a ``times`` entry without a zone is UTC.

``KEYS`` lists every key with its type, and nothing else: this module
parses.  Every number must be finite, and ``[schedule] hours`` lies in
[0, 24], the one range no dataclass holds.  Each other range is checked
once, at construction, by the dataclass that holds the value, so a scene
read from a file and one varied in code with ``dataclasses.replace`` or
``with_overrides`` meet the same rules:

- ``SiteSpec``: latitude in [-90, 90], longitude in [-180, 180].
- ``SunshapeModel``: the kind, half angle and limb coefficient.
- ``SunPosition``: a finite azimuth, elevation in [-90, 90].
- ``GridSpec`` and ``ReceiverSpec``: a positive, finite extent and
  diameter, and an even cell count.
- ``HeliostatSpec``: three finite coordinates with X' > 0, the module
  counts and sizes, reflectivity in (0, 1].
- ``SceneConfig``, the scene-wide rules: a known engine, dni positive and
  finite, sampling minimums (``surface_samples`` 2, ``radial_nodes`` 1,
  ``azimuth_nodes`` 4), a grid of at least 16 cells and 0.1 m, at least
  one heliostat, focal lengths in [80, 120] m, a non-empty schedule with
  unique labels, every sun (schedule entries and the reference) above the
  horizon, unique heliostat names, and heliostat names and labels without
  a path separator, since both become part of output file names.  It
  calls ``metrics.case_heliostats`` for the case rule: known cases, each
  at most once, and with case symmetric_pair no heliostat named like
  another's mirror twin, NAME_mirror.  It builds ``metrics.frozen_cantings``
  for every heliostat of every case, mirror twins included, so a
  heliostat whose canting at the reference sun leaves the small-angle
  regime (|angle| < 0.1 rad) or whose reference incidence has
  cos i0 <= 0.5 fails at construction, not in the middle of a run.

A key absent from the file takes the default of the dataclass field it
fills; ``--validate-only`` on a minimal scene prints every default.
Unknown sections or keys are errors; every default that applies is
recorded in the config echo.
"""

import configparser
import math
import os
from dataclasses import dataclass, replace
from datetime import datetime
from importlib import resources

from .errors import ConfigError, DegenerateGeometry
from .flux import DEFAULT_AZIMUTH_NODES, DEFAULT_RADIAL_NODES, DEFAULT_SURFACE_SAMPLES
from .heliostat import HeliostatSpec, module_centres
from .metrics import CASE_TWINS, ENGINES, case_heliostats, frozen_cantings
from .receiver import GridSpec, ReceiverSpec
from .sun import (ScheduleEntry, SiteSpec, SunPosition, SunshapeModel, ephemeris,
                  hour_label, ideal_equinox_position)

# section -> key -> type.  A type in brackets is a comma-separated list of
# that type.
KEYS = {
    "site": {"latitude": float, "longitude": float},
    "sunshape": {"kind": str, "half_angle_deg": float, "limb_coefficient": float},
    "receiver": {"diameter": float, "grid_extent": float, "grid_cells": int},
    "heliostat": {"position": [float], "width": float, "height": float,
                  "modules_across": int, "modules_up": int, "module_width": float,
                  "module_height": float, "focal_length": float, "reflectivity": float},
    "schedule": {"hours": [float], "angles": str, "times": str, "labels": [str]},
    "reference": {"sun": str},
    "run": {"engine": str, "cases": [str], "dni": float, "out": str,
            "surface_samples": int, "radial_nodes": int, "azimuth_nodes": int},
}


@dataclass(frozen=True)
class SceneConfig:
    """Fully resolved scene: every field is populated, defaults included.

    Valid by construction: ``__post_init__`` checks the scene-wide rules
    listed in the module docstring, whether the scene comes from
    ``load_config``, ``with_overrides`` or ``dataclasses.replace``.
    """

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

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigError(f"[run] engine: {self.engine!r} is not one of "
                              f"{', '.join(ENGINES)}")
        if not 0.0 < self.dni < math.inf:
            raise ConfigError(f"[run] dni: {self.dni!r} is not positive and finite")
        grid = self.receiver.grid
        for where, key, value, least in (
                ("run", "surface_samples", self.surface_samples, 2),
                ("run", "radial_nodes", self.radial_nodes, 1),
                ("run", "azimuth_nodes", self.azimuth_nodes, 4),
                ("receiver", "grid_cells", grid.cells, 16),
                ("receiver", "grid_extent", grid.extent, 0.1)):
            if not value >= least:
                raise ConfigError(f"[{where}] {key}: {value} below minimum {least}")
        if not self.heliostats:
            raise ConfigError("[heliostat NAME] the scene has no heliostat")
        for k, h in enumerate(self.heliostats):
            _file_safe(f"heliostat {h.name}", "name", h.name)
            if h.name in (g.name for g in self.heliostats[:k]):
                raise ConfigError(f"[heliostat {h.name}] duplicate name {h.name!r}")
            if h.focal_length is not None and not 80.0 <= h.focal_length <= 120.0:
                raise ConfigError(f"[heliostat {h.name}] focal_length: "
                                  f"{h.focal_length} outside [80, 120]")
        if not self.schedule:
            raise ConfigError("[schedule] the schedule is empty")
        for k, entry in enumerate(self.schedule):
            _file_safe("schedule", "labels", entry.label)
            if entry.label in (e.label for e in self.schedule[:k]):
                raise ConfigError(f"[schedule] duplicate label {entry.label!r}")
            _above_horizon(f"[schedule] entry {k} ({entry.label}): sun", entry.position)
        _above_horizon("[reference] sun", self.reference)
        members = case_heliostats(self)
        for h in {h.name: h for case in members.values() for h in case}.values():
            try:
                frozen_cantings(h, module_centres(h), self.reference)
            except (ValueError, DegenerateGeometry) as exc:
                raise ConfigError(f"[heliostat {h.name}] canting at the reference sun: "
                                  f"{exc}") from None

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


def _split_list(raw, sep):
    return [item.strip() for item in raw.split(sep) if item.strip()]


def _parse(where, key, raw, kind):
    """One typed, finite value; a ConfigError names the key otherwise."""
    if isinstance(kind, list):
        return tuple(_parse(where, key, item, kind[0]) for item in _split_list(raw, ","))
    if kind is str:
        return raw.strip()
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{where}] {key}: {raw!r} is not {noun}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{where}] {key}: {raw!r} is not a finite number")
    return value


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
    return {key: _parse(where, key, raw, keys[key]) for key, raw in items.items()}


def _file_safe(where, key, name):
    """A name that becomes part of an output file name holds no path separator."""
    if any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise ConfigError(f"[{where}] {key}: {name!r} contains a path separator")


def _build(where, make, *args, **values):
    try:
        return make(*args, **values)
    except ValueError as exc:
        raise ConfigError(f"[{where}] {exc}") from None


def _sun_position(where, key, raw):
    """An '<azimuth> <elevation>' pair in degrees."""
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError(f"[{where}] {key}: expected '<azimuth> <elevation>', "
                          f"got {raw!r}")
    return _build(where, SunPosition, *(_parse(where, key, p, float) for p in parts))


def _above_horizon(where, pos):
    if pos.elevation <= 0.0:
        raise ConfigError(f"{where} elevation {pos.elevation:.2f} deg is not above "
                          "the horizon")


def _parse_heliostat(name, items):
    where = f"heliostat {name}"
    values = _section("heliostat", items, where, required=("position",))
    return _build(where, HeliostatSpec, name=name, **values)


def _parse_schedule(items, site):
    values = _section("schedule", items)
    modes = [k for k in ("hours", "angles", "times") if k in values]
    if len(modes) != 1:
        raise ConfigError("[schedule] needs exactly one of 'hours', 'angles' or 'times'")
    entries = []

    if modes[0] == "hours":
        for hour in values["hours"]:
            if not 0.0 <= hour <= 24.0:
                raise ConfigError(f"[schedule] hours: {hour} outside [0, 24]")
            entries.append((hour_label(hour), ideal_equinox_position(site.latitude, hour)))
    elif modes[0] == "angles":
        for k, pair in enumerate(_split_list(values["angles"], ";")):
            entries.append((f"t{k:02d}",
                            _sun_position("schedule", f"angles: entry {k}", pair)))
    else:
        for k, stamp in enumerate(_split_list(values["times"], ";")):
            try:
                t = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
            except ValueError:
                raise ConfigError(f"[schedule] times: entry {k}: {stamp!r} is not an "
                                  "ISO datetime") from None
            entries.append((t.strftime("%Hh%M"), _build("schedule", ephemeris, site, t)))

    labels = values.get("labels")
    if labels:
        if len(labels) != len(entries):
            raise ConfigError("[schedule] labels: count does not match the schedule length")
        entries = [(label, pos) for label, (_, pos) in zip(labels, entries)]
    return tuple(ScheduleEntry(label=label, position=pos) for label, pos in entries)


def _parse_reference(items, site):
    raw = _section("reference", items).get("sun", "equinox-noon")
    if raw == "equinox-noon":
        if not 0.0 < site.latitude < 90.0:
            raise ConfigError("[reference] equinox-noon needs a site latitude in "
                              "(0, 90) degrees")
        return SunPosition(azimuth=0.0, elevation=90.0 - site.latitude)
    return _sun_position("reference", "sun", raw)


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
    return SceneConfig(site=site, sunshape=sunshape, receiver=receiver,
                       heliostats=heliostats, schedule=schedule, reference=reference,
                       **run)


def with_overrides(config, engine=None, out_dir=None, grid_cells=None,
                   surface_samples=None):
    """Apply command-line overrides, returning a new SceneConfig.

    An override left at None keeps the scene's value.  The result meets the
    same rules as a scene file: ``GridSpec`` and ``SceneConfig`` check it.
    """
    grid = config.receiver.grid
    grid = replace(grid, cells=grid.cells if grid_cells is None else grid_cells)
    given = {"engine": engine, "out_dir": out_dir, "surface_samples": surface_samples}
    return replace(config, receiver=replace(config.receiver, grid=grid),
                   **{key: value for key, value in given.items() if value is not None})
