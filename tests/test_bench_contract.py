"""The package surface that the benchmark's per-layer tracer relies on.

``benchmarks/tracing.py`` wraps package functions by (owner, attribute)
and binds some of their arguments by name to count rays and bytes.  A
renamed function or argument would only show when someone runs
``benchmarks/run.py --trace 1``; these tests show it in the tier-1 suite.
The tracer module is compiled from its source here, so nothing is written
under ``benchmarks/``.
"""

import dataclasses
import inspect
import pathlib
import types

import pytest

import helioflux as hf
from helioflux import cli, flux, heliostat, metrics, scene

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# layer -> argument names its counter binds on the wrapped function
BOUND = {"flux.grt": ("facets", "surface_samples", "radial_nodes", "azimuth_nodes"),
         "flux.spot": ("facets", "surface_samples"),
         "fileio.flux_csv": ("path",),
         "fileio.flux_pgm": ("path",)}

TINY_SCENE = """
[receiver]
diameter = 1.2
grid_extent = 4.0
grid_cells = 64

[heliostat h1]
position = 86.6, 50.0, 0.0

[schedule]
hours = 12.0

[run]
engine = both
surface_samples = 4
radial_nodes = 3
azimuth_nodes = 8
"""


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_exists_and_is_callable(tracing):
    for owner, attr, layer, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({layer})"


def test_counters_bind_arguments_the_functions_take(tracing):
    layers = set()
    for owner, attr, layer, _ in tracing.TARGETS:
        if layer in BOUND:
            layers.add(layer)
            parameters = inspect.signature(getattr(owner, attr)).parameters
            for name in BOUND[layer]:
                assert name in parameters, f"{owner.__name__}.{attr} lost {name!r}"
    assert layers == set(BOUND)


def test_benchmark_engine_calls_bind():
    # the argument patterns benchmarks/workloads.py calls the engines with
    facets, sun, shape, receiver, config = object(), object(), object(), object(), object()
    inspect.signature(flux.trace_flux_grt).bind(facets, sun, shape, receiver, dni=1.0,
                                                surface_samples=8, radial_nodes=4,
                                                azimuth_nodes=8)
    inspect.signature(flux.convolve_flux).bind(facets, sun, shape, receiver, dni=1.0,
                                               surface_samples=8)
    inspect.signature(flux.geometric_spot).bind(facets, sun, receiver, dni=1.0,
                                                surface_samples=8)
    inspect.signature(metrics.day_course).bind(config, collect_maps=True)
    inspect.signature(scene.with_overrides).bind(config, engine="conv", out_dir="out",
                                                 grid_cells=64, surface_samples=8)


def test_benchmark_heliostat_calls_bind():
    # the calls and attributes of facets_for and check_day in benchmarks/workloads.py
    spec, layout, canting, ctx, sun = object(), object(), object(), object(), object()
    inspect.signature(heliostat.module_centres).bind(spec)
    inspect.signature(heliostat.spherical_canting).bind(spec, layout, 100.0)
    inspect.signature(heliostat.off_axis_context).bind(spec, sun)
    inspect.signature(heliostat.off_axis_canting).bind(spec, layout, ctx, 100.0)
    inspect.signature(heliostat.realize_modules).bind(spec, layout, canting, sun)
    fields = {f.name for f in dataclasses.fields(heliostat.Facet)}
    assert {"axes", "reflectivity"} <= fields
    assert isinstance(heliostat.Facet.area, property)
    assert callable(heliostat.HeliostatSpec.mirrored)
    assert isinstance(heliostat.HeliostatSpec.slant_distance, property)


def test_traced_run_reaches_every_layer(tracing, tmp_path):
    path = tmp_path / "tiny.scene"
    path.write_text(TINY_SCENE, encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        config = hf.with_overrides(scene.load_config(str(path)),
                                   out_dir=str(tmp_path / "out"))
        cli.run(config)
    finally:
        tracer.uninstall()
    untouched = {layer for _, _, layer, _ in tracing.TARGETS} - set(tracer.calls)
    assert not untouched
    assert tracer.counts["flux.grt_rays"] > 0
    assert tracer.counts["flux.spot_rays"] > 0
    assert tracer.counts["fileio.flux_csv_bytes"] > 0
    # the caller's day course runs one variant; the forked child's maps and
    # its wrapped calls stay in the child.  The day course hands each map to
    # the run's writers, so the writer boundary counts them: cases x engines
    assert tracer.calls["fileio.flux_csv"] == 2 * 2
