"""The benchmark's workloads and the correctness checks of their outputs.

A workload loads its scene, hands out one round of operations at a time,
and checks what each operation produced.  Operations reach helioflux through
module attributes (``cli.run``, ``metrics.day_course``,
``scene.load_config``) so that a traced run sees the wrapped functions.

* ``table1_both``: ``cli.run`` on the bundled scene, engine both: 84 artifacts.
* ``table1_conv``: the same with engine conv (GRT bypassed): 44 artifacts.
* ``field_conv``: one heliostat's day course per operation over a seeded
  field (see field.py), in memory.
"""

import dataclasses
import math
import os
import re
import shutil

import numpy as np

from helioflux import cli, metrics, scene
from helioflux.flux import convolve_flux, geometric_spot, trace_flux_grt
from helioflux.heliostat import (module_centres, off_axis_canting, off_axis_context,
                                 realize_modules, spherical_canting)

import checks
import field

VARIANTS = ("spherical", "off_axis")
ENGINES = {"both": ("grt", "conv"), "conv": ("conv",)}
CASES = ("single", "symmetric_pair")  # every workload runs both, single first


def facets_for(config, spec, variant, sun):
    """The facets one heliostat presents to ``sun`` under a canting variant."""
    layout = module_centres(spec)
    if variant == "spherical":
        canting = spherical_canting(spec, layout, spec.slant_distance)
    else:
        ctx = off_axis_context(spec, config.reference)
        canting = off_axis_canting(spec, layout, ctx, spec.slant_distance)
    return realize_modules(spec, layout, canting, sun)


def engine_values(config, engine, facets, sun):
    """One heliostat's map through the named engine, as the day course makes it."""
    if engine == "grt":
        m = trace_flux_grt(facets, sun, config.sunshape, config.receiver, dni=config.dni,
                           surface_samples=config.surface_samples,
                           radial_nodes=config.radial_nodes,
                           azimuth_nodes=config.azimuth_nodes)
    else:
        m = convolve_flux(facets, sun, config.sunshape, config.receiver, dni=config.dni,
                          surface_samples=config.surface_samples)
    return m.values


def reference_label(config):
    """Label of the schedule entry at the canting reference sun."""
    ref = config.reference
    for entry in config.schedule:
        if (abs(entry.position.azimuth - ref.azimuth) < 1e-6
                and abs(entry.position.elevation - ref.elevation) < 1e-6):
            return entry.label
    raise ValueError("the schedule does not contain the reference sun")


def check_day(config, spec, engines, get_map):
    """Check every map of one heliostat's day course, single and pair cases.

    ``get_map(key)`` returns (values, spilled power) for the key
    (label, variant, case, engine).  Returns (failures, peaks by key).
    """
    grid, dni = config.receiver.grid, config.dni
    twins = (spec, spec.mirrored())
    failures, peaks = [], {}
    for entry in config.schedule:
        sun = entry.position
        s = checks.sun_direction(sun.azimuth, sun.elevation)
        for variant in VARIANTS:
            power, spot = [], []
            for h in twins:
                facets = facets_for(config, h, variant, sun)  # the mirror twin's last
                power.append(checks.analytic_power([f.axes[:, 0] for f in facets],
                                                   [f.area for f in facets],
                                                   [f.reflectivity for f in facets], s, dni))
                spot.append(geometric_spot(facets, sun, config.receiver, dni=dni,
                                           surface_samples=config.surface_samples)
                            .total_power)
            single = {}
            for case in CASES:
                n = 1 if case == "single" else 2
                by_engine = {}
                for engine in engines:
                    key = (entry.label, variant, case, engine)
                    values, spilled = get_map(key)
                    failures += checks.energy_balance(key, values, spilled, grid.cell_area,
                                                      dni, sum(power[:n]))
                    if engine == "conv":
                        failures += checks.conv_matches_spot(key, values, grid.cell_area,
                                                             dni, sum(spot[:n]))
                    if case == "single":
                        single[engine] = values
                    else:
                        mirror = engine_values(config, engine, facets, sun)
                        failures += checks.pair_is_sum(key, values, single[engine], mirror)
                    peaks[key] = float(values.max())
                    by_engine[engine] = values
                if len(by_engine) == 2:
                    failures += checks.engine_agreement((entry.label, variant, case),
                                                        by_engine["grt"], by_engine["conv"])
    return failures, peaks


def check_gains(config, engines, peaks, low, high):
    """Off-axis over spherical peak at the reference sun, per case and engine."""
    label = reference_label(config)
    failures = []
    for case in CASES:
        for engine in engines:
            failures += checks.gain_in_range(
                (label, case, engine), peaks[(label, "off_axis", case, engine)],
                peaks[(label, "spherical", case, engine)], low, high)
    return failures


_HEADER = re.compile(r"# peak = (\S+), total_power = (\S+), spill_fraction = (\S+)")


def read_flux_csv(path):
    """(values, spilled power) of a flux CSV artifact, values in map layout."""
    with open(path, encoding="utf-8") as fh:
        match = _HEADER.search(fh.read(4096))
    if match is None:
        raise ValueError(f"{path}: no peak/total_power/spill_fraction header")
    total, spill_fraction = float(match.group(2)), float(match.group(3))
    image = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    spilled = spill_fraction * total / (1.0 - spill_fraction)
    return image[::-1, :].T, spilled


def read_pgm(path):
    """Pixel array of a 16-bit binary graymap."""
    with open(path, "rb") as fh:
        magic, size, maxval, pixels = fh.read().split(b"\n", 3)
    if magic != b"P5" or maxval != b"65535":
        raise ValueError(f"{path}: not a 16-bit P5 graymap")
    width, height = (int(v) for v in size.split())
    return np.frombuffer(pixels, dtype=">u2").reshape(height, width)


def check_pgm(key, pgm, values):
    """The graymap is the map scaled to its peak, rows from +z' down."""
    expected = values.T[::-1, :] / values.max() * 65535.0
    if pgm.shape != expected.shape or np.abs(pgm - expected).max() > 1.5:
        return [f"{key}: graymap does not match its flux map"]
    return []


def file_digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = checks.digest(fh.read())
    return out


class Table1:
    """``cli.run`` on the bundled scene; one operation is one run."""

    def __init__(self, engine, tmp):
        self.engine = engine
        self.tmp = tmp
        self.scene_path = scene.table1_scene_path()
        self.first = None

    def load(self):
        self.config = scene.with_overrides(scene.load_config(self.scene_path),
                                           engine=self.engine)
        self.ops_per_round = 1

    def operation(self, rep, k):
        # every repetition writes to the same directory: the manifest echoes it
        config = scene.with_overrides(self.config, out_dir=os.path.join(self.tmp, "out"))
        return lambda: cli.run(config)

    def after(self, rep, k, result):
        out = os.path.join(self.tmp, "out")
        digests = file_digests(out)
        if rep == 0:
            self.first = digests
            os.rename(out, os.path.join(self.tmp, "first"))
            return []
        shutil.rmtree(out)
        return checks.identical(self.first, digests, f"repetition {rep}")

    def expected_names(self):
        engines = ENGINES[self.engine]
        names = {"concentration.csv", "manifest.txt"}
        for h in self.config.heliostats:
            names |= {f"canting_{h.name}.csv", f"canting_{h.name}_mirror.csv"}
        for entry in self.config.schedule:
            for variant in VARIANTS:
                for case in CASES:
                    for engine in engines:
                        stem = f"flux_{entry.label}_{variant}_{case}_{engine}"
                        names |= {stem + ".csv", stem + ".pgm"}
        return names

    def finish(self):
        """Check the first repetition's artifacts against the method's laws."""
        out = os.path.join(self.tmp, "first")
        names = set(os.listdir(out))
        expected = self.expected_names()
        if names != expected:
            return [f"artifact set differs: missing {sorted(expected - names)}, "
                    f"extra {sorted(names - expected)}"]
        engines = ENGINES[self.engine]
        failures = []

        def get_map(key):
            stem = os.path.join(out, "flux_" + "_".join(key))
            values, spilled = read_flux_csv(stem + ".csv")
            failures.extend(check_pgm(key, read_pgm(stem + ".pgm"), values))
            return values, spilled

        for spec in self.config.heliostats:
            day_failures, peaks = check_day(self.config, spec, engines, get_map)
            failures += day_failures
            failures += check_gains(self.config, engines, peaks, *checks.NOON_GAIN_RANGE)
        return failures


class Field:
    """A seeded heliostat field, engine conv; one operation is one heliostat's day."""

    def __init__(self, seed, tmp):
        self.scene_path = os.path.join(tmp, "field.scene")
        with open(self.scene_path, "w", encoding="utf-8") as fh:
            fh.write(field.field_scene_text(seed))
        self.first = {}

    def load(self):
        self.config = scene.load_config(self.scene_path)
        self.scenes = [dataclasses.replace(self.config, heliostats=(h,))
                       for h in self.config.heliostats]
        self.ops_per_round = len(self.scenes)

    def operation(self, rep, k):
        config = self.scenes[k]
        return lambda: metrics.day_course(config, collect_maps=True)

    def after(self, rep, k, result):
        _, maps = result
        digests = {key: checks.digest(m.values.tobytes() + repr(m.spilled_power).encode())
                   for key, m in maps.items()}
        if rep > 0:
            return checks.identical(self.first[k], digests, f"repetition {rep}, heliostat {k}")
        self.first[k] = digests
        config = self.scenes[k]

        def get_map(key):
            m = maps.pop(key)  # drop each map once checked: a day holds ~80 MB
            return m.values, m.spilled_power

        failures, peaks = check_day(config, config.heliostats[0], ("conv",), get_map)
        return failures + check_gains(config, ("conv",), peaks, 1.0, math.inf)

    def finish(self):
        return []


def make(name, seed, tmp):
    if name == "table1_both":
        return Table1("both", tmp)
    if name == "table1_conv":
        return Table1("conv", tmp)
    if name == "field_conv":
        return Field(seed, tmp)
    raise ValueError(f"unknown workload {name!r}")
