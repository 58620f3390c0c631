"""Deterministic file outputs: CSV tables, graymaps and the run manifest.

CSV dialect: comma separated, '.' decimal point, '#'-prefixed header lines.
Graymaps are binary 16-bit portable graymaps (P5, maxval 65535) scaled to
the map peak, rows from the top of the receiver (+z') down.
"""

import numpy as np

from . import __version__
from .flux import map_stats
from .heliostat import canting_table


def write_flux_csv(flux_map, path):
    stats = map_stats(flux_map)
    grid = flux_map.grid
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# flux map [suns], engine = {flux_map.engine}\n")
        fh.write(f"# sun azimuth_deg = {flux_map.sun.azimuth!r}, "
                 f"elevation_deg = {flux_map.sun.elevation!r}\n")
        fh.write(f"# heliostats = {';'.join(flux_map.heliostat_ids)}\n")
        fh.write(f"# dni = {flux_map.dni!r}\n")
        fh.write(f"# grid extent_y = {grid.extent!r} m, extent_z = {grid.extent!r} m, "
                 f"cells = {grid.cells} x {grid.cells}\n")
        fh.write(f"# peak = {stats['peak']!r}, total_power = {stats['total_power']!r}, "
                 f"spill_fraction = {stats['spill_fraction']!r}\n")
        fh.write("# rows: z' descending from +extent/2; columns: y' ascending\n")
        image = flux_map.values.T[::-1, :]  # (z rows top-down, y columns)
        row_format = ",".join(["%.9e"] * image.shape[1]) + "\n"
        # most rows miss the spot: a row of +0.0 cells only is written as one
        # string formatted once.  A -0.0 or NaN cell makes its row live, so
        # every row reads exactly as if it were formatted cell by cell.
        zero_row = row_format % ((0.0,) * image.shape[1])
        live = ((image != 0.0) | np.signbit(image)).any(axis=1)
        for row, is_live in zip(image, live.tolist()):
            fh.write(row_format % tuple(row.tolist()) if is_live else zero_row)


def write_flux_pgm(flux_map, path):
    peak = float(flux_map.values.max())
    image = flux_map.values.T[::-1, :]
    if peak > 0.0:
        scaled = np.floor(image / peak * 65535.0 + 0.5).astype(">u2")
    else:
        scaled = np.zeros(image.shape, dtype=">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode("ascii"))
        fh.write(scaled.tobytes())


def write_canting_csv(layout, spherical, off_axis, path):
    rows = canting_table(layout, spherical, off_axis)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# module tilt angles, reported convention "
                 "(2x mirror-normal rotation), mrad\n")
        fh.write("i,j,spherical_a,spherical_h,offaxis_a,offaxis_h,delta_a,delta_h\n")
        for i, j, sa, sh, oa, oh, da, dh in rows:
            fh.write(f"{i},{j},{sa:.6f},{sh:.6f},{oa:.6f},{oh:.6f},{da:.6f},{dh:.6f}\n")


def write_concentration_csv(report, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# concentration ratios [suns], engine = {report.engine}\n")
        fh.write("quantity," + ",".join(report.labels) + "\n")
        for quantity, table in (("peak", report.peak), ("intercepted", report.intercepted)):
            for variant in report.variants:
                for case in report.cases:
                    fh.write(f"{quantity}_{variant}_{case},"
                             + ",".join(f"{v:.6f}" for v in table[(case, variant)]) + "\n")
        for case in report.cases:
            fh.write(f"gain_{case}," + ",".join(f"{v:.6f}" for v in report.gain[case]) + "\n")


def write_manifest(config, report, path):
    """Config echo, versions and cross-engine figures; no wall-clock content."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# helioflux run manifest\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"numpy = {np.__version__}\n")
        fh.write("\n# effective configuration (defaults included)\n")
        for line in config.echo():
            fh.write(line + "\n")
        if report.engine_rms:
            fh.write("\n# cross-engine RMS(grt - conv) / peak(grt)\n")
            for (label, variant, case), value in sorted(report.engine_rms.items()):
                fh.write(f"rms.{label}.{variant}.{case} = {value:.6f}\n")
