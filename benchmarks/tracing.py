"""Per-layer tracing by wrapping helioflux's public functions in this process.

``Tracer.install`` replaces each function under the module name through
which its callers reach it (``helioflux.metrics.convolve_flux``,
``helioflux.flux.geometric_spot``, ``Facet.sample_grid``, ...) with a wrapper
that records the call's span on a stack.  A layer's self time is its spans'
time minus the time of the wrapped calls inside them; counts are taken at
the same boundaries.  ``uninstall`` puts every original back.  No file of
the package changes.
"""

import inspect
import os
import time
from collections import Counter, defaultdict

import scipy.fft

from helioflux import cli, fileio, flux, metrics, scene
from helioflux.heliostat import Facet


def _arguments(function, args, kwargs):
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _grt_rays(tracer, function, args, kwargs, result):
    a = _arguments(function, args, kwargs)
    tracer.counts["flux.grt_rays"] += (len(a["facets"]) * a["surface_samples"] ** 2
                                       * a["radial_nodes"] * a["azimuth_nodes"])


def _spot_rays(tracer, function, args, kwargs, result):
    a = _arguments(function, args, kwargs)
    tracer.counts["flux.spot_rays"] += len(a["facets"]) * a["surface_samples"] ** 2


def _kernel_cells(tracer, function, args, kwargs, result):
    tracer.counts["sun.kernel_cells"] += result.size
    tracer.last_kernel_shape = result.shape


def _fft_points(tracer, function, args, kwargs, result):
    """Padded FFT size of the convolution, as ``flux._convolve_padded`` pads."""
    ky, kz = tracer.last_kernel_shape
    if (ky, kz) != (1, 1):  # a delta kernel skips the FFT
        ny, nz = result.values.shape
        tracer.counts["flux.fft_points"] += (scipy.fft.next_fast_len(ny + ky - 1)
                                             * scipy.fft.next_fast_len(nz + kz - 1))


def _maps(tracer, function, args, kwargs, result):
    if isinstance(result, tuple):
        tracer.counts["metrics.maps"] += len(result[1])


def _bytes(layer):
    def count(tracer, function, args, kwargs, result):
        path = _arguments(function, args, kwargs)["path"]
        tracer.counts[layer + "_bytes"] += os.path.getsize(path)
    return count


# (owner, attribute, layer, counter): the owner is the module or class
# whose attribute the callers read at call time.
TARGETS = [
    (scene, "load_config", "scene.load", None),
    (cli, "run", "cli.run", None),
    (cli, "day_course", "metrics.day_course", _maps),
    (metrics, "day_course", "metrics.day_course", _maps),
    (cli, "module_centres", "heliostat.canting", None),
    (metrics, "module_centres", "heliostat.canting", None),
    (metrics, "spherical_canting", "heliostat.canting", None),
    (metrics, "off_axis_context", "heliostat.canting", None),
    (metrics, "off_axis_canting", "heliostat.canting", None),
    (metrics, "realize_modules", "heliostat.realize", None),
    (Facet, "sample_grid", "heliostat.sample_grid", None),
    (flux, "cone_directions", "sun.cone", None),
    (flux, "build_kernel", "sun.kernel", _kernel_cells),
    (metrics, "trace_flux_grt", "flux.grt", _grt_rays),
    (flux, "geometric_spot", "flux.spot", _spot_rays),
    (metrics, "convolve_flux", "flux.conv", _fft_points),
    (metrics, "map_add", "flux.map_add", None),
    (fileio, "write_flux_csv", "fileio.flux_csv", _bytes("fileio.flux_csv")),
    (fileio, "write_flux_pgm", "fileio.flux_pgm", _bytes("fileio.flux_pgm")),
    (fileio, "write_canting_csv", "fileio.tables", None),
    (fileio, "write_concentration_csv", "fileio.tables", None),
    (fileio, "write_manifest", "fileio.tables", None),
]


class Tracer:
    """Self time, inclusive time, calls and counts per layer."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.last_kernel_shape = (1, 1)
        self._children = []  # time of wrapped calls inside each open span
        self._originals = []

    def _wrap(self, owner, attr, layer, counter):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                inner = self._children.pop()
                if self._children:
                    self._children[-1] += span
                self.self_s[layer] += span - inner
                self.total_s[layer] += span
                self.calls[layer] += 1
            if counter is not None:
                counter(self, original, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def install(self):
        for target in TARGETS:
            self._wrap(*target)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()

    def layer_metrics(self, rounds):
        """Per-round layer figures: seconds, exact counts and rates."""
        s = {layer: t / rounds for layer, t in self.self_s.items()}
        calls = {layer: n // rounds for layer, n in self.calls.items()}
        counts = {key: n // rounds for key, n in self.counts.items()}

        def rate(amount, seconds):
            return amount / seconds if seconds > 0.0 else 0.0

        m = {
            "heliostat.canting_s": s.get("heliostat.canting", 0.0),
            "heliostat.realize_s": s.get("heliostat.realize", 0.0),
            "heliostat.realize_calls": calls.get("heliostat.realize", 0),
            "heliostat.sample_grid_s": s.get("heliostat.sample_grid", 0.0),
            "heliostat.sample_grid_calls": calls.get("heliostat.sample_grid", 0),
            "sun.cone_s": s.get("sun.cone", 0.0),
            "sun.cone_calls": calls.get("sun.cone", 0),
            "sun.kernel_s": s.get("sun.kernel", 0.0),
            "sun.kernel_calls": calls.get("sun.kernel", 0),
            "sun.kernel_cells": counts.get("sun.kernel_cells", 0),
            "flux.grt_s": s.get("flux.grt", 0.0),
            "flux.grt_calls": calls.get("flux.grt", 0),
            "flux.grt_rays": counts.get("flux.grt_rays", 0),
            "flux.grt_rays_per_s": rate(counts.get("flux.grt_rays", 0), s.get("flux.grt", 0.0)),
            "flux.spot_s": s.get("flux.spot", 0.0),
            "flux.spot_calls": calls.get("flux.spot", 0),
            "flux.spot_rays": counts.get("flux.spot_rays", 0),
            "flux.conv_s": s.get("flux.conv", 0.0),
            "flux.conv_calls": calls.get("flux.conv", 0),
            "flux.fft_points": counts.get("flux.fft_points", 0),
            "flux.map_add_s": s.get("flux.map_add", 0.0),
            "flux.map_add_calls": calls.get("flux.map_add", 0),
            "metrics.day_course_s": s.get("metrics.day_course", 0.0),
            "metrics.maps": counts.get("metrics.maps", 0),
            "fileio.flux_csv_s": s.get("fileio.flux_csv", 0.0),
            "fileio.flux_csv_bytes": counts.get("fileio.flux_csv_bytes", 0),
            "fileio.flux_csv_mb_per_s": rate(counts.get("fileio.flux_csv_bytes", 0) / 1e6,
                                             s.get("fileio.flux_csv", 0.0)),
            "fileio.flux_pgm_s": s.get("fileio.flux_pgm", 0.0),
            "fileio.flux_pgm_bytes": counts.get("fileio.flux_pgm_bytes", 0),
            "fileio.tables_s": s.get("fileio.tables", 0.0),
            "cli.run_s": self.total_s.get("cli.run", 0.0) / rounds,
            "cli.self_s": s.get("cli.run", 0.0),
        }
        return m, sum(s.values())
