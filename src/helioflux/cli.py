"""Command-line entry point: validate a scene file and run the simulation.

    helioflux run SCENE [--engine {grt,conv,both}] [--out DIR] [--grid N]
                        [--samples N] [--validate-only]

A run writes, into the output directory: a canting table per heliostat, a
flux map (CSV and 16-bit graymap) per time/variant/case/engine, the
concentration report, and a manifest echoing every effective parameter.
Identical configurations produce bit-identical artifacts.  A run whose
engines include GRT uses two processes where the platform can fork: a GRT
worker traces the off-axis maps during the day course, then a writer
writes their files while this process writes the rest; a conv run stays in
this process.  On failure the partial outputs are removed, a single-line
``error: ...`` goes to stderr and the exit status is nonzero.  A reader
that closes the echo's pipe early is no failure.
"""

import argparse
import contextlib
import os
import sys
import time

from .errors import HelioFluxError
from .heliostat import module_centres
from .metrics import ENGINES, day_course, grt_worker, may_fork
from .scene import load_config, with_overrides
from . import fileio


def build_parser():
    parser = argparse.ArgumentParser(prog="helioflux",
                                     description="heliostat canting and flux simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scene file")
    run.add_argument("scene", help="scene configuration file")
    run.add_argument("--engine", choices=ENGINES,
                     help="flux engine selection (default from the scene file)")
    run.add_argument("--out", metavar="DIR", help="output directory")
    run.add_argument("--grid", type=int, metavar="N", help="override grid cell count")
    run.add_argument("--samples", type=int, metavar="N_S",
                     help="override facet surface samples per axis")
    run.add_argument("--validate-only", action="store_true",
                     help="validate and echo the configuration, write nothing")
    return parser


def _stem(key):
    label, variant, case, engine = key
    return f"flux_{label}_{variant}_{case}_{engine}"


def _write_flux_files(files, sender):
    # the forked writer's work: the CSV and graymap of each (map, CSV path,
    # graymap path) of ``files``, then None, or the error that stopped it,
    # sent through the pipe
    try:
        for flux_map, csv_path, pgm_path in files:
            fileio.write_flux_csv(flux_map, csv_path)
            fileio.write_flux_pgm(flux_map, pgm_path)
    except BaseException as exc:
        outcome = exc
    else:
        outcome = None
    try:
        sender.send(outcome)
    except Exception:  # an error that does not pickle
        sender.send(HelioFluxError(f"{type(outcome).__name__}: {outcome}"))


@contextlib.contextmanager
def _flux_writer(files):
    """Write the maps of ``files`` in a forked process while the ``with``
    block runs.

    The maps reach the child by fork, copy-on-write, and are never pickled.
    Leaving the block, however it is left, waits for the child to end.  An
    error that the child raised is then raised here, unless the block
    raised one of its own; a child that died raises HelioFluxError.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    reader, sender = context.Pipe(duplex=False)
    with reader:
        with sender:  # the child's end: closed here once the child has it
            child = context.Process(target=_write_flux_files, args=(files, sender))
            child.start()
        try:
            yield
        finally:
            try:
                outcome = reader.recv()
            except EOFError:
                outcome = HelioFluxError("the flux writer process ended before it "
                                         "wrote its maps")
            finally:
                child.join()
    if outcome is not None:
        raise outcome


def run(config):
    """Execute the scene and write the artifact set; returns written paths.

    A run whose engines include GRT opens the GRT worker process
    (``grt_worker``) for its day course.  Once the day course has returned
    and the worker has ended, where ``may_fork`` allows, it forks one writer
    process that writes the CSV and graymap of every off-axis map while
    this process writes the spherical ones, the canting tables, the report
    and the manifest.  The files are those of a serial run, byte for byte.
    This process names every path, the writer's too, so on any failure it
    waits for the writer to end and then removes each file of the run.  A
    conv run forks nothing.
    """
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def target(name):
        path = os.path.join(out_dir, name)
        written.append(path)
        return path

    try:
        grt = "grt" in ENGINES[config.engine]
        with (grt_worker() if grt else contextlib.nullcontext()) as worker:
            report, maps = day_course(config, collect_maps=True, worker=worker)

        keys, forked = sorted(maps), []
        if grt and may_fork():
            forked = [key for key in keys if key[1] == "off_axis"]
            keys = [key for key in keys if key[1] != "off_axis"]
        files = [(maps[key], target(_stem(key) + ".csv"), target(_stem(key) + ".pgm"))
                 for key in forked]
        with (_flux_writer(files) if files else contextlib.nullcontext()):
            for name in sorted(report.heliostats):
                cantings = report.cantings[name]
                fileio.write_canting_csv(module_centres(report.heliostats[name]),
                                         cantings["spherical"], cantings["off_axis"],
                                         target(f"canting_{name}.csv"))

            for key in keys:
                fileio.write_flux_csv(maps[key], target(_stem(key) + ".csv"))
                fileio.write_flux_pgm(maps[key], target(_stem(key) + ".pgm"))

            fileio.write_concentration_csv(report, target("concentration.csv"))
            fileio.write_manifest(config, report, target("manifest.txt"))
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    return written


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.scene)
        config = with_overrides(config, engine=args.engine, out_dir=args.out,
                                grid_cells=args.grid, surface_samples=args.samples)
        if args.validate_only:
            try:
                for line in config.echo():
                    print(line)
                sys.stdout.flush()
            except BrokenPipeError:
                # The reader closed standard output: it chose to read no
                # further, which is no failure.  Point the descriptor at
                # devnull so that the flush at interpreter exit does not
                # fail again.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        started = time.monotonic()
        written = run(config)
        elapsed = time.monotonic() - started
        print(f"wrote {len(written)} files to {config.out_dir} in {elapsed:.1f}s",
              file=sys.stderr)
        return 0
    except (HelioFluxError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
