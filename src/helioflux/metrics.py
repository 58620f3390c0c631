"""Concentration ratios, day-course simulation and variant comparison.

The concentration ratio of a map is its peak flux density over DNI, i.e.
the peak cell value of a map in suns.  A day course re-aims the heliostats
for every scheduled sun position while keeping each canting set frozen at
the one computed for the reference sun; the off-axis optimization is a
one-time re-alignment, not a per-time adjustment.  The two canting
variants share nothing else, so a day course may run either alone; the
gain, their one comparison, is derived from a report of both.  Nothing
here forks a process.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, HelioFluxError
from .flux import convolve_flux, map_add, trace_flux_grt
from .heliostat import (module_centres, off_axis_canting, off_axis_context,
                        realize_modules, spherical_canting)

VARIANTS = ("spherical", "off_axis")
# engine setting -> the engines it runs; the report reads the last one
ENGINES = {"grt": ("grt",), "conv": ("conv",), "both": ("grt", "conv")}
# case -> whether it adds the X'-mirror twin of every heliostat
CASE_TWINS = {"single": False, "symmetric_pair": True}


def concentration_ratio(flux_map):
    """Peak concentration in suns (peak cell value of the DNI-normalized map).

    Every figure that divides by a peak reads it here: a map whose peak is
    not positive and finite (no representable power on the grid) raises
    HelioFluxError.
    """
    if flux_map.values.size == 0:
        raise ValueError("empty flux map")
    peak = float(flux_map.values.max())
    if not 0.0 < peak < math.inf:
        raise HelioFluxError(f"{flux_map.engine} map of {', '.join(flux_map.heliostat_ids)} "
                             f"has peak {peak!r}: no representable power reaches the grid")
    return peak


def intercepted_power(flux_map, diameter):
    """Fraction of the on-grid power inside the centred disc of ``diameter``.

    A cell lies in the disc when r2[i] + r2[j] <= R^2 for its squared
    cell-centre coordinates r2; both terms are then at most R^2, so the
    disc's cells all lie in the square of rows and columns with r2 <= R^2.
    Only that bounding square is masked and summed.  Row-major order inside
    it keeps the disc's cells in the whole grid's order, so the sum is the
    one over the whole grid's mask, bit for bit.  The total is the whole
    grid's.
    """
    if not diameter > 0.0:
        raise ValueError("aperture diameter must be positive")
    r2 = flux_map.grid.centres() ** 2
    radius2 = (0.5 * diameter) ** 2
    band = np.flatnonzero(r2 <= radius2)
    box = slice(band[0], band[-1] + 1) if band.size else slice(0)
    inside = r2[box, None] + r2[None, box] <= radius2
    total = flux_map.values.sum()
    if total == 0.0:
        return 0.0
    return float(flux_map.values[box, box][inside].sum() / total)


@dataclass
class ConcentrationReport:
    """Per-time concentration figures for the simulated variants and every case.

    ``peak[(case, variant)]`` and ``intercepted[(case, variant)]`` are
    arrays over the schedule, for each of ``variants``.  ``heliostats``
    maps the name of every simulated heliostat, mirror twins included, to
    its spec; ``cantings[name]`` keeps its frozen canting set for every
    variant, simulated or not, ``engine_rms`` the cross-engine RMS/peak
    figures keyed (label, variant, case) when both engines ran.  ``peak``,
    ``intercepted`` and ``engine_rms`` are the per-variant figures, which
    ``merge`` joins across reports of one scene's variants, such as the two
    halves of a run split by variant.
    """

    labels: tuple
    cases: tuple
    variants: tuple
    engine: str
    peak: dict = field(default_factory=dict)
    intercepted: dict = field(default_factory=dict)
    heliostats: dict = field(default_factory=dict)
    cantings: dict = field(default_factory=dict)
    engine_rms: dict = field(default_factory=dict)

    def merge(self, other):
        """Take in ``other``, a report of this scene's other variants: its
        ``peak``, ``intercepted`` and ``engine_rms`` entries join this
        report's, and ``variants`` names both reports' in ``VARIANTS``
        order."""
        self.variants = tuple(v for v in VARIANTS if v in self.variants + other.variants)
        for name in ("peak", "intercepted", "engine_rms"):
            getattr(self, name).update(getattr(other, name))

    @property
    def gain(self):
        """C_offaxis / C_spherical - 1 per time, keyed by case, from the
        peaks of a report of both variants (negative entries mean the
        off-axis canting loses at that hour, which does happen far from the
        reference sun)."""
        return {case: self.peak[(case, "off_axis")] / self.peak[(case, "spherical")] - 1.0
                for case in self.cases}


def case_heliostats(scene):
    """Each case's heliostats, mirror twins included, keyed by case.

    Raises ConfigError for an empty case list, an unknown or repeated case,
    or a mirror twin that takes the name of a scene heliostat.
    ``SceneConfig`` calls it when it is built, so every scene meets it.
    """
    if not scene.cases:
        raise ConfigError("[run] cases: at least one case is required")
    names = {h.name for h in scene.heliostats}
    members = {}
    for case in scene.cases:
        if case not in CASE_TWINS:
            raise ConfigError(f"[run] cases: {case!r} is not one of "
                              f"{', '.join(CASE_TWINS)}")
        if case in members:
            raise ConfigError(f"[run] cases: {case!r} is listed more than once")
        twins = [h.mirrored() for h in scene.heliostats] if CASE_TWINS[case] else []
        for h, twin in zip(scene.heliostats, twins):
            if twin.name in names:
                raise ConfigError(f"[heliostat {twin.name}] the name is taken by the "
                                  f"mirror twin of heliostat {h.name!r} in case {case!r}")
        members[case] = list(scene.heliostats) + twins
    return members


def frozen_cantings(h, layout, reference):
    """Canting set per variant of one heliostat, frozen at the reference sun."""
    return {"spherical": spherical_canting(h, layout, h.slant_distance),
            "off_axis": off_axis_canting(h, layout, off_axis_context(h, reference),
                                         h.slant_distance)}


def day_course(scene, collect_maps=False, variants=VARIANTS):
    """Simulate the scene's schedule for each of ``variants`` and every case.

    Canting sets are computed once per heliostat from the scene reference
    sun and reused across all times.  A flux map depends only on the
    heliostat and the sun, so each heliostat's facets are realized once per
    (sun, variant), however often the schedule names that sun, and its conv
    maps are convolved and its GRT maps traced from them once per sun.  The
    variants share nothing but the canting sets, which are computed for
    every variant, so a day course of one variant gives, bit for bit, that
    variant's maps and figures of a day course of both; ``cli.run`` splits
    a GRT run by variant that way.  ``variants`` names distinct members of
    ``VARIANTS``, at least one, or ConfigError is raised.  A day course runs
    in the calling process and forks nothing.

    With the reference sun on the meridian (azimuth 0.0), the X'-mirror
    twin of a heliostat at sun (az, el) sees the mirror image of that
    heliostat's whole optical path at (-az, el): its map is the heliostat's
    map there with Y' reversed.  The sun-cone quadrature is mirror symmetric
    by construction (``cone_directions``), so the mirrored sun's cone is the
    mirror image of the sun's at every node count.  So where a case adds
    twins and (-az, el) is exactly the position of a schedule entry, a
    twin's GRT maps are its heliostat's there with Y' reversed; they
    are traced everywhere else.  A sun, its mirror image and any repeat of
    either run back to back, and the facets and GRT maps realized and
    traced for them are held only while they run; the figures and maps are
    keyed by time, so that order does not change them.  Maps are composed
    into cases by cell-wise addition, so a pair map is exactly the sum of
    the maps of its members.

    The schedule, cases and engine are the scene's; run a variant of a
    scene with ``dataclasses.replace`` or ``scene.with_overrides``.  The
    scene's rules (a non-empty schedule above the horizon, known cases and
    engine) hold from its construction; a scene that reaches this function
    already meets them.
    When the engine is "both", the reported numbers come from the
    convolution engine and the GRT maps feed the cross-engine RMS record.
    Each case map goes out once, as soon as it is composed, keyed
    (label, variant, case, engine).  A callable ``collect_maps`` is called
    with each key and map, and the report alone is returned; the maps of a
    mirror group are then held only while the group runs.  Any other true
    ``collect_maps`` collects every map into a dictionary, returned with the
    report.
    """
    variants = tuple(variants)
    if not variants or len(set(variants)) < len(variants) or not set(variants) <= set(VARIANTS):
        raise ConfigError(f"variants {variants!r}: name at least one of "
                          f"{', '.join(VARIANTS)}, each at most once")
    schedule, cases = scene.schedule, scene.cases
    engines = ENGINES[scene.engine]
    report = ConcentrationReport(labels=tuple(e.label for e in schedule),
                                 cases=tuple(cases), variants=variants,
                                 engine=engines[-1])

    members = case_heliostats(scene)
    report.heliostats = {h.name: h for case in cases for h in members[case]}
    layouts = {name: module_centres(h) for name, h in report.heliostats.items()}
    report.cantings = {name: frozen_cantings(h, layouts[name], scene.reference)
                       for name, h in report.heliostats.items()}

    maps = {}
    collected = bool(collect_maps) and not callable(collect_maps)
    emit = maps.__setitem__ if collected else collect_maps
    for (case, variant) in ((c, v) for c in cases for v in variants):
        report.peak[(case, variant)] = np.zeros(len(schedule))
        report.intercepted[(case, variant)] = np.zeros(len(schedule))

    # twin name -> its heliostat, whose GRT maps at the mirrored sun the
    # twin's maps are, with Y' reversed, wherever that sun is scheduled
    flips = {}
    if scene.reference.azimuth == 0.0 and any(CASE_TWINS[case] for case in cases):
        flips = {h.mirrored().name: h for h in scene.heliostats}
    positions = {entry.position for entry in schedule}

    def group(slot):
        # a sun, its repeats and, where twins flip, its mirror image
        sun = schedule[slot].position
        return sun.elevation, abs(sun.azimuth) if flips else sun.azimuth

    # The slots of a group run back to back, and each group caches the
    # facets and maps of a (heliostat, sun) only while it runs.
    ordered = sorted(range(len(schedule)), key=group)
    for _, slots in itertools.groupby(ordered, key=group):
        @functools.cache
        def realized(h, sun):
            return {variant: realize_modules(h, layouts[h.name],
                                             report.cantings[h.name][variant], sun)
                    for variant in variants}

        @functools.cache
        def traced(h, sun):
            return {variant: trace_flux_grt(f, sun, scene.sunshape, scene.receiver,
                                            dni=scene.dni,
                                            surface_samples=scene.surface_samples,
                                            radial_nodes=scene.radial_nodes,
                                            azimuth_nodes=scene.azimuth_nodes,
                                            heliostat_ids=(h.name,))
                    for variant, f in realized(h, sun).items()}

        @functools.cache
        def convolved(h, sun):
            return {variant: convolve_flux(f, sun, scene.sunshape, scene.receiver,
                                           dni=scene.dni,
                                           surface_samples=scene.surface_samples,
                                           heliostat_ids=(h.name,))
                    for variant, f in realized(h, sun).items()}

        for it in slots:
            entry = schedule[it]
            sun = entry.position
            mirrored = replace(sun, azimuth=-sun.azimuth)
            single = {}  # drops the previous time's maps before computing new ones
            for name, h in report.heliostats.items():
                own = single[name] = {}
                if "grt" in engines:
                    source = flips.get(name, h) if mirrored in positions else h
                    for variant, m in traced(source, sun if source is h else mirrored).items():
                        own[(variant, "grt")] = m if source is h else replace(
                            m, values=m.values[::-1, :], sun=sun, heliostat_ids=(name,))
                if "conv" in engines:
                    for variant, m in convolved(h, sun).items():
                        own[(variant, "conv")] = m
            for case in cases:
                for variant in variants:
                    case_maps, peaks = {}, {}
                    for eng in engines:
                        combined = case_maps[eng] = functools.reduce(
                            map_add, (single[h.name][(variant, eng)] for h in members[case]))
                        peaks[eng] = concentration_ratio(combined)
                        if emit:
                            emit((entry.label, variant, case, eng), combined)
                    if len(engines) == 2:
                        diff = case_maps["conv"].values - case_maps["grt"].values
                        rms = math.sqrt(float((diff * diff).mean()))
                        report.engine_rms[(entry.label, variant, case)] = rms / peaks["grt"]
                    report.peak[(case, variant)][it] = peaks[report.engine]
                    report.intercepted[(case, variant)][it] = intercepted_power(
                        case_maps[report.engine], scene.receiver.diameter)

    if collected:
        return report, maps
    return report
