"""Shared fixtures: the bundled reference scene and its day-course results.

The day course over the full schedule with both engines is the expensive
part of the suite, so it runs once per session and every test that needs
maps or report figures reads from it.
"""

import pickle

import pytest

import helioflux as hf
from helioflux import metrics


@pytest.fixture(scope="session")
def table1_config():
    return hf.load_config(hf.table1_scene_path())


@pytest.fixture(scope="session")
def table1_run(table1_config):
    """(report, maps) for the bundled scene, both engines, both cases."""
    report, maps = hf.day_course(table1_config, collect_maps=True)
    return report, maps


@pytest.fixture(scope="session")
def reference_sun(table1_config):
    return table1_config.reference


@pytest.fixture(scope="session")
def noon_maps(table1_run):
    """Convenience access to the noon maps keyed (variant, case, engine)."""
    _, maps = table1_run
    return {(variant, case, engine): maps[("12h00", variant, case, engine)]
            for variant in ("spherical", "off_axis")
            for case in ("single", "symmetric_pair")
            for engine in ("grt", "conv")}


class SharedLog:
    """Pickled records appended to a file, each in one write, so that a
    process forked from this one, such as the child of a GRT run, adds to
    it too.  Read it once that process has ended."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def append(self, record):
        with open(self.path, "ab") as fh:
            fh.write(pickle.dumps(record))

    def read(self):
        records = []
        with open(self.path, "rb") as fh:
            while fh.peek(1):
                records.append(pickle.load(fh))
        return records


@pytest.fixture
def shared_log(tmp_path):
    return SharedLog(tmp_path / "shared.log")


@pytest.fixture
def grt_traces(monkeypatch, shared_log):
    """A reader of every ``metrics.trace_flux_grt`` call from now on, as
    (heliostat ids, sun), whether it ran in this process or in the child
    that a GRT run forks from it."""
    trace = metrics.trace_flux_grt

    def recording(facets, sun, *args, **kwargs):
        shared_log.append((kwargs["heliostat_ids"], sun))
        return trace(facets, sun, *args, **kwargs)

    monkeypatch.setattr(metrics, "trace_flux_grt", recording)
    return shared_log.read
