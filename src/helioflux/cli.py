"""Command-line entry point: validate a scene file and run the simulation.

    helioflux run SCENE [--engine {grt,conv,both}] [--out DIR] [--grid N]
                        [--samples N] [--validate-only]

A run writes, into the output directory: a canting table per heliostat, a
flux map (CSV and 16-bit graymap) per time/variant/case/engine, the
concentration report, and a manifest echoing every effective parameter.
Identical configurations produce bit-identical artifacts.  On failure the
partial outputs are removed, a single-line ``error: ...`` goes to stderr
and the exit status is nonzero.  A reader that closes the echo's pipe early
is no failure.
"""

import argparse
import os
import sys
import time

from .errors import HelioFluxError
from .heliostat import module_centres
from .metrics import ENGINES, day_course
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


def run(config):
    """Execute the scene and write the artifact set; returns written paths."""
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def target(name):
        path = os.path.join(out_dir, name)
        written.append(path)
        return path

    try:
        report, maps = day_course(config, collect_maps=True)

        for name in sorted(report.heliostats):
            cantings = report.cantings[name]
            fileio.write_canting_csv(module_centres(report.heliostats[name]),
                                     cantings["spherical"], cantings["off_axis"],
                                     target(f"canting_{name}.csv"))

        for key in sorted(maps):
            label, variant, case, engine = key
            stem = f"flux_{label}_{variant}_{case}_{engine}"
            fileio.write_flux_csv(maps[key], target(stem + ".csv"))
            fileio.write_flux_pgm(maps[key], target(stem + ".pgm"))

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
