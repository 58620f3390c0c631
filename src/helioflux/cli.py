"""Command-line entry point: validate a scene file and run the simulation.

    helioflux run SCENE [--engine {grt,conv,both}] [--out DIR] [--grid N]
                        [--samples N] [--validate-only]

A run writes, into the output directory: a canting table per heliostat, a
flux map (CSV and 16-bit graymap) per time/variant/case/engine, the
concentration report, and a manifest echoing every effective parameter.
Identical configurations produce bit-identical artifacts.  A run whose
engines include GRT forks one child with ``os.fork`` where the platform
can fork: the child computes and writes the off-axis variant while this
process computes and writes the spherical one and the rest, and the
child's report comes back pickled through one pipe; a conv run stays in
this process.  This is the only module that forks.  On failure the
child is killed, the partial outputs are removed, a single-line
``error: ...`` goes to stderr and the exit status is nonzero.  SIGTERM
during a run also kills the child and removes the partial outputs; the
exit status is then 143.  A reader that closes the echo's pipe
early is no failure.
"""

import argparse
import contextlib
import itertools
import os
import pickle
import signal
import sys
import threading
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


def may_fork():
    """Whether this process may fork a child: the platform has ``os.fork``
    and no other Python thread is running.

    Forking a process while another of its threads runs can leave a lock
    held for good in the child.
    """
    return hasattr(os, "fork") and threading.active_count() == 1


@contextlib.contextmanager
def _forked(function, *args):
    """Call ``function(*args)`` in a child made by ``os.fork`` while the
    ``with`` block runs.

    The block gets a list that holds the call's result once it is left.
    The child starts with this process's memory, numpy state included,
    copy-on-write.  It pickles the call's result, or the error that stopped
    it, into a pipe and ends with ``os._exit``.  Leaving the block without
    an error reads the pipe to its end.  Leaving it with an error, or any
    error in that read (SIGTERM's ``SystemExit`` or a ``KeyboardInterrupt``
    too), kills the child with SIGKILL instead of waiting for its call, and
    that error is raised.  Either way the child is reaped before the
    ``with`` statement ends.  An error that the child raised is then raised
    here; a child whose message is missing or cut short raises
    HelioFluxError.
    """
    reader, sender = os.pipe()
    # the child's end unbuffered: os._exit flushes nothing
    with open(reader, "rb") as reader, open(sender, "wb", buffering=0) as sender:
        child = os.fork()
        if not child:
            try:
                outcome = function(*args)
            except BaseException as exc:
                outcome = exc
            try:
                sender.write(pickle.dumps(outcome))
            except Exception:  # an error that does not pickle
                sender.write(pickle.dumps(HelioFluxError(f"{type(outcome).__name__}: {outcome}")))
            finally:
                os._exit(0)
        sender.close()  # the child's end: the pipe ends once the child's copy closes
        result = []
        try:
            yield result
            message = reader.read()
        except BaseException:
            os.kill(child, signal.SIGKILL)
            raise
        finally:
            os.waitpid(child, 0)
    try:
        outcome = pickle.loads(message)
    except (EOFError, pickle.UnpicklingError):
        outcome = HelioFluxError("the forked process of the run ended before it finished")
    if isinstance(outcome, BaseException):
        raise outcome
    result.append(outcome)


def _variant_run(config, paths, variants):
    """Run the day course of ``variants``, write its flux files to their
    ``paths`` and return its report."""
    report, maps = day_course(config, collect_maps=True, variants=variants)
    for key in sorted(maps):
        fileio.write_flux_csv(maps[key], paths[key][0])
        fileio.write_flux_pgm(maps[key], paths[key][1])
    return report


def run(config):
    """Execute the scene and write the artifact set; returns written paths.

    Where the engines include GRT and ``may_fork`` allows, the run forks
    one child at its start.  The child runs the off-axis day course, writes
    its flux files and sends back its report, while this process runs the
    spherical day course and writes its flux files and the canting tables.
    The variants share no work but the canting sets, so the files are
    those of a serial run, byte for byte.  This process then merges the
    child's report into its own and writes the report and the manifest.
    It names every path, the child's too, before the fork, so on any
    failure, SIGTERM's ``SystemExit`` included, it kills and reaps the
    child and then removes each file of the run.  A conv run forks nothing.
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
        paths = {key: [target("_".join(("flux",) + key) + ext) for ext in (".csv", ".pgm")]
                 for key in itertools.product([entry.label for entry in config.schedule],
                                              VARIANTS, config.cases, engines)}
        variants, child = VARIANTS, contextlib.nullcontext([])
        if "grt" in engines and may_fork():
            variants, child = ("spherical",), _forked(_variant_run, config, paths, ("off_axis",))
        with child as others:
            report = _variant_run(config, paths, variants)
            for name, h in sorted(report.heliostats.items()):
                cantings = report.cantings[name]
                fileio.write_canting_csv(module_centres(h), cantings["spherical"],
                                         cantings["off_axis"], target(f"canting_{name}.csv"))
        for other in others:  # the child's report, if a child ran
            report.merge(other)

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
        # SIGTERM ends the run as an error does: its child killed, its files removed
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        try:
            written = run(config)
        finally:
            signal.signal(signal.SIGTERM, previous)
        elapsed = time.monotonic() - started
        print(f"wrote {len(written)} files to {config.out_dir} in {elapsed:.1f}s",
              file=sys.stderr)
        return 0
    except (HelioFluxError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
