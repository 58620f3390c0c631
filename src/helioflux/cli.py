"""Command-line entry point: validate a scene file and run the simulation.

    helioflux run SCENE [--engine {grt,conv,both}] [--out DIR] [--grid N]
                        [--samples N] [--validate-only]

A run writes, into the output directory: a canting table per heliostat, a
flux map (CSV and 16-bit graymap) per time/variant/case/engine, the
concentration report, and a manifest echoing every effective parameter.
Identical configurations produce bit-identical artifacts.  A run whose
engines include GRT forks one child where the platform can fork: the child
computes and writes the off-axis variant while this process computes and
writes the spherical one and the rest; a conv run stays in this process.
This is the only module that forks.  On failure the partial outputs are
removed, a single-line ``error: ...`` goes to stderr and the exit status
is nonzero.  A reader that closes the echo's pipe early is no failure.
"""

import argparse
import contextlib
import itertools
import os
import sys
import time

from .errors import HelioFluxError
from .heliostat import module_centres
from .metrics import ENGINES, VARIANTS, day_course
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


def may_fork():
    """Whether this process may fork a child: the platform has the "fork"
    start method and no other Python thread is running.

    Forking a process while another of its threads runs can leave a lock
    held for good in the child.
    """
    # imported here: a conv run imports neither, and importing them slows importing helioflux
    import multiprocessing
    import threading

    return "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1


def _call_and_send(function, args, sender):
    # the forked child's work: function(*args)'s result, or the error that
    # stopped it, sent through the pipe
    try:
        outcome = function(*args)
    except BaseException as exc:
        outcome = exc
    try:
        sender.send(outcome)
    except Exception:  # an error that does not pickle
        sender.send(HelioFluxError(f"{type(outcome).__name__}: {outcome}"))


@contextlib.contextmanager
def _forked(function, *args):
    """Call ``function(*args)`` in a forked process while the ``with`` block
    runs.

    The block gets a list that holds the call's result once it is left.
    The child starts with this process's memory, numpy state included,
    copy-on-write; only the result is pickled.  Leaving the block, however
    it is left, waits for the child to end.  An error that the child raised
    is then raised here, unless the block raised one of its own; a child
    that died raises HelioFluxError.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    reader, sender = context.Pipe(duplex=False)
    result = []
    with reader:
        with sender:  # the child's end: closed here once the child has it
            child = context.Process(target=_call_and_send, args=(function, args, sender))
            child.start()
        try:
            yield result
        finally:
            try:
                outcome = reader.recv()
            except EOFError:
                outcome = HelioFluxError("the forked process of the run ended before "
                                         "it finished")
            finally:
                child.join()
    if isinstance(outcome, BaseException):
        raise outcome
    result.append(outcome)


def _write_maps(maps, paths):
    for key in sorted(maps):
        fileio.write_flux_csv(maps[key], paths[key][0])
        fileio.write_flux_pgm(maps[key], paths[key][1])


def _off_axis_run(config, paths):
    # the forked child's run: the off-axis day course and its flux files;
    # only the figures go back
    report, maps = day_course(config, collect_maps=True, variants=("off_axis",))
    _write_maps(maps, paths)
    return {name: getattr(report, name) for name in ("peak", "intercepted", "engine_rms")}


def run(config):
    """Execute the scene and write the artifact set; returns written paths.

    Where the engines include GRT and ``may_fork`` allows, the run forks
    one child at its start.  The child runs the off-axis day course, writes
    its flux files and sends back only its figures, while this process runs
    the spherical day course and writes its flux files and the canting
    tables.  The variants share no work but the canting sets, so the files
    are those of a serial run, byte for byte.  This process then merges the
    child's figures into its report and writes the report and the
    manifest.  It names every path, the child's too, before the fork, so on
    any failure it waits for the child to end and then removes each file of
    the run.  A conv run forks nothing.
    """
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def target(name):
        path = os.path.join(out_dir, name)
        written.append(path)
        return path

    try:
        engines = ENGINES[config.engine]
        paths = {key: (target(_stem(key) + ".csv"), target(_stem(key) + ".pgm"))
                 for key in itertools.product([entry.label for entry in config.schedule],
                                              VARIANTS, config.cases, engines)}
        variants, child = VARIANTS, contextlib.nullcontext([])
        if "grt" in engines and may_fork():
            variants = ("spherical",)
            child = _forked(_off_axis_run, config, paths)
        with child as figures:
            report, maps = day_course(config, collect_maps=True, variants=variants)
            for name in sorted(report.heliostats):
                cantings = report.cantings[name]
                fileio.write_canting_csv(module_centres(report.heliostats[name]),
                                         cantings["spherical"], cantings["off_axis"],
                                         target(f"canting_{name}.csv"))
            _write_maps(maps, paths)
        for merged in figures:  # the child's figures, if a child ran
            report.variants = VARIANTS
            for name, table in merged.items():
                getattr(report, name).update(table)

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
