"""Receiver-plane geometry: the flux grid and the aperture.

The receiver plane is the world Y'Z' plane (normal along +X') with its
centre at the origin; every flux map lives on one square grid in that
plane, the same cell count and extent along y' and z'.
No code takes the plane's normal as a value; three places assume it:
``flux._trace_spot`` intersects rays with x' = 0, ``sun.build_kernel``
takes cos(beta) = -beam_x, and ``HeliostatSpec`` requires X' > 0 so that
the front face sees the heliostat.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_integer


@dataclass(frozen=True)
class GridSpec:
    """Square receiver-plane grid centred on the origin.

    ``extent`` x ``extent`` metres split into ``cells`` x ``cells`` square
    cells; the cell count must be even (FFT-friendly).
    """

    extent: float = 4.0
    cells: int = 256

    def __post_init__(self):
        if not 0.0 < self.extent < math.inf:
            raise ConfigError(f"grid extent {self.extent} is not positive and finite")
        require_integer("grid_cells", self.cells)
        if not self.cells > 0:
            raise ConfigError(f"grid cell count {self.cells} is not positive")
        if self.cells % 2:
            raise ConfigError(f"grid cell count {self.cells} is not even")

    @property
    def cell_size(self):
        return self.extent / self.cells

    @property
    def cell_area(self):
        return self.cell_size * self.cell_size

    def centres(self):
        """Cell-centre coordinates along either axis, y' or z'."""
        return (np.arange(self.cells) + 0.5) * self.cell_size - 0.5 * self.extent


@dataclass(frozen=True)
class ReceiverSpec:
    """Aperture diameter plus the flux grid on the receiver plane."""

    diameter: float = 1.2
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if not 0.0 < self.diameter < math.inf:
            raise ConfigError(f"receiver diameter {self.diameter} is not positive "
                              "and finite")
