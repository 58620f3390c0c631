"""Projected sunshape kernels: the flux signature of the solar disc.

The convolution engine spreads the geometric spot with the image of the sun
projected along the beam onto the receiver plane: a circle of radius
L * theta_s at normal incidence that stretches to an ellipse at oblique
incidence.  Limb darkening concentrates the same energy toward the centre.
"""

import math

import numpy as np

import helioflux as hf

grid = hf.GridSpec()
L = 100.0

print(f"receiver grid: {grid.cells} x {grid.cells} cells of "
      f"{1000 * grid.cell_size:.2f} mm over {grid.extent} x {grid.extent} m\n")

for beta_deg, label in ((0.0, "normal incidence"), (30.0, "30 deg incidence")):
    beam = hf.normalize(np.array([-math.cos(math.radians(beta_deg)),
                                  -math.sin(math.radians(beta_deg)), 0.0]))
    for kind in ("pillbox", "limb_darkened"):
        model = hf.SunshapeModel(kind=kind, half_angle=4.65e-3)
        kernel = hf.build_kernel(model, L, beam, grid)
        off = (np.arange(kernel.shape[0]) - kernel.shape[0] // 2) * grid.cell_size
        span_y = off[np.any(kernel > 0, axis=1)]
        span_z = off[np.any(kernel > 0, axis=0)]
        print(f"{label:18s} {kind:13s}: support "
              f"{span_y.max() - span_y.min():.3f} x {span_z.max() - span_z.min():.3f} m, "
              f"peak weight {kernel.max():.2e}, sum {kernel.sum():.6f}")
    print()

model = hf.SunshapeModel(kind="limb_darkened")
rho = np.linspace(0.0, 1.0, 6)
profile = hf.sunshape_radiance(model, rho)
print("limb-darkened radiance across the disc (rho -> relative brightness):")
print("  " + "  ".join(f"{r:.1f}:{b:.3f}" for r, b in zip(rho, profile)))
print("\nthe rim carries about half the central radiance, so the projected")
print("kernel peaks harder than a pillbox of the same size and total energy")
