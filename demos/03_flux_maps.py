"""Receiver flux maps from both engines, exported for inspection.

Renders the noon flux map of the reference heliostat with the grid ray
tracer and the FFT convolution engine, compares them, and writes CSV and
16-bit graymap files under demo_output/ in the working directory.
"""

import math
import os

import helioflux as hf
from helioflux import fileio

OUT = os.path.abspath("demo_output")
os.makedirs(OUT, exist_ok=True)

spec = hf.HeliostatSpec(name="h1")
layout = hf.module_centres(spec)
reference = hf.SunPosition(azimuth=0.0, elevation=44.63)
shape = hf.SunshapeModel(half_angle=2.5e-3)  # calibrated effective sun
receiver = hf.ReceiverSpec()

ctx = hf.off_axis_context(spec, reference)
cantings = {
    "spherical": hf.spherical_canting(spec, layout, spec.slant_distance),
    "off_axis": hf.off_axis_canting(spec, layout, ctx, spec.slant_distance),
}

for variant, canting in cantings.items():
    facets = hf.realize_modules(spec, layout, canting, reference)
    grt = hf.trace_flux_grt(facets, reference, shape, receiver, heliostat_ids=("h1",))
    conv = hf.convolve_flux(facets, reference, shape, receiver, heliostat_ids=("h1",))

    stats = hf.map_stats(grt)
    rms = math.sqrt(float(((conv.values - grt.values) ** 2).mean()))
    print(f"{variant:9s}: peak {stats['peak']:6.2f} suns, "
          f"power {stats['total_power']:5.2f} W/(W/m^2), "
          f"centroid ({stats['centroid'][0]:+.3f}, {stats['centroid'][1]:+.3f}) m, "
          f"engines agree to {100 * rms / stats['peak']:.2f}% RMS/peak")

    for engine, flux_map in (("grt", grt), ("conv", conv)):
        stem = os.path.join(OUT, f"noon_{variant}_{engine}")
        fileio.write_flux_csv(flux_map, stem + ".csv")
        fileio.write_flux_pgm(flux_map, stem + ".pgm")

print(f"\nwrote maps to {OUT}/ (open the .pgm files with any image viewer)")
print("the off-axis map is visibly tighter: same power, higher peak")
