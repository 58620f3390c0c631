"""Concentration ratios, day-course simulation and variant comparison.

The concentration ratio of a map is its peak flux density over DNI, i.e.
the peak cell value of a map in suns.  A day course re-aims the heliostats
for every scheduled sun position while keeping each canting set frozen at
the one computed for the reference sun; the off-axis optimization is a
one-time re-alignment, not a per-time adjustment.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .flux import convolve_flux, map_add, trace_flux_grt
from .heliostat import (module_centres, off_axis_canting, off_axis_context,
                        realize_modules, spherical_canting)

VARIANTS = ("spherical", "off_axis")
# engine setting -> the engines it runs; the report reads the last one
ENGINES = {"grt": ("grt",), "conv": ("conv",), "both": ("grt", "conv")}
# case -> whether it adds the X'-mirror twin of every heliostat
CASE_TWINS = {"single": False, "symmetric_pair": True}


def concentration_ratio(flux_map):
    """Peak concentration in suns (peak cell value of the DNI-normalized map)."""
    if flux_map.values.size == 0:
        raise ValueError("empty flux map")
    return float(flux_map.values.max())


def intercepted_power(flux_map, diameter):
    """Fraction of the on-grid power inside the centred disc of ``diameter``."""
    if diameter <= 0.0:
        raise ValueError("aperture diameter must be positive")
    r2 = flux_map.grid.centres() ** 2
    inside = r2[:, None] + r2[None, :] <= (0.5 * diameter) ** 2
    total = flux_map.values.sum()
    if total == 0.0:
        return 0.0
    return float(flux_map.values[inside].sum() / total)


@dataclass
class ConcentrationReport:
    """Per-time concentration figures for every variant and case.

    ``peak[(case, variant)]`` and ``intercepted[(case, variant)]`` are
    arrays over the schedule; ``gain[case]`` is C_offaxis / C_spherical - 1
    per time (negative entries mean the off-axis canting loses at that
    hour, which does happen far from the reference sun).  ``heliostats``
    maps the name of every simulated heliostat, mirror twins included, to
    its spec; ``cantings[name]`` keeps its frozen canting set per variant,
    ``engine_rms`` the cross-engine RMS/peak figures when both engines ran.
    """

    labels: tuple
    cases: tuple
    variants: tuple
    engine: str
    peak: dict = field(default_factory=dict)
    intercepted: dict = field(default_factory=dict)
    gain: dict = field(default_factory=dict)
    heliostats: dict = field(default_factory=dict)
    cantings: dict = field(default_factory=dict)
    engine_rms: dict = field(default_factory=dict)


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


def heliostat_maps(scene, h, layout, cantings, sun, engines):
    """One heliostat's flux maps at ``sun``, keyed (variant, engine)."""
    maps = {}
    for variant in VARIANTS:
        facets = realize_modules(h, layout, cantings[variant], sun)
        for eng in engines:
            if eng == "grt":
                maps[(variant, eng)] = trace_flux_grt(
                    facets, sun, scene.sunshape, scene.receiver, dni=scene.dni,
                    surface_samples=scene.surface_samples,
                    radial_nodes=scene.radial_nodes, azimuth_nodes=scene.azimuth_nodes,
                    heliostat_ids=(h.name,))
            else:
                maps[(variant, eng)] = convolve_flux(
                    facets, sun, scene.sunshape, scene.receiver, dni=scene.dni,
                    surface_samples=scene.surface_samples, heliostat_ids=(h.name,))
    return maps


def day_course(scene, collect_maps=False):
    """Simulate the scene's schedule for every variant and case.

    Canting sets are computed once per heliostat from the scene reference
    sun and reused across all times.  Per-heliostat maps are computed once
    per (time, variant, engine) and composed into cases by cell-wise
    addition, so a pair map is exactly the sum of its singles.

    The schedule, cases and engine are the scene's; run a variant of a
    scene with ``dataclasses.replace`` or ``scene.with_overrides``.  The
    scene's rules (a non-empty schedule above the horizon, known cases and
    engine) hold from its construction; a scene that reaches this function
    already meets them.
    When the engine is "both", the reported numbers come from the
    convolution engine and the GRT maps feed the cross-engine RMS record.
    Returns the report, and the map dictionary keyed
    (label, variant, case, engine) when ``collect_maps`` is set.
    """
    schedule, cases = scene.schedule, scene.cases
    engines = ENGINES[scene.engine]
    report = ConcentrationReport(labels=tuple(e.label for e in schedule),
                                 cases=tuple(cases), variants=VARIANTS,
                                 engine=engines[-1])

    members = case_heliostats(scene)
    report.heliostats = {h.name: h for case in cases for h in members[case]}
    layouts = {name: module_centres(h) for name, h in report.heliostats.items()}
    report.cantings = {name: frozen_cantings(h, layouts[name], scene.reference)
                       for name, h in report.heliostats.items()}

    maps = {}
    for (case, variant) in ((c, v) for c in cases for v in VARIANTS):
        report.peak[(case, variant)] = np.zeros(len(schedule))
        report.intercepted[(case, variant)] = np.zeros(len(schedule))

    for it, entry in enumerate(schedule):
        single = {}  # drops the previous time's maps before computing new ones
        for name, h in report.heliostats.items():
            single[name] = heliostat_maps(scene, h, layouts[name], report.cantings[name],
                                          entry.position, engines)
        for case in cases:
            first, *rest = members[case]
            for variant in VARIANTS:
                case_maps = {}
                for eng in engines:
                    combined = single[first.name][(variant, eng)]
                    for h in rest:
                        combined = map_add(combined, single[h.name][(variant, eng)])
                    case_maps[eng] = combined
                    if collect_maps:
                        maps[(entry.label, variant, case, eng)] = combined
                if len(engines) == 2:
                    ref = case_maps["grt"]
                    diff = case_maps["conv"].values - ref.values
                    rms = math.sqrt(float((diff * diff).mean()))
                    report.engine_rms[(entry.label, variant, case)] = \
                        rms / float(ref.values.max())
                chosen = case_maps[report.engine]
                report.peak[(case, variant)][it] = concentration_ratio(chosen)
                report.intercepted[(case, variant)][it] = intercepted_power(
                    chosen, scene.receiver.diameter)

    for case in cases:
        report.gain[case] = (report.peak[(case, "off_axis")]
                             / report.peak[(case, "spherical")] - 1.0)

    if collect_maps:
        return report, maps
    return report
