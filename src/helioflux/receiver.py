"""Receiver-plane geometry: the flux grid and the aperture.

The receiver plane is the world Y'Z' plane (normal along +X') with its
centre at the origin; every flux map lives on a regular grid in that plane.
This module is the one place the plane is fixed: the flux engines and
``sun.build_kernel`` assume it rather than take a normal.
"""

from dataclasses import dataclass, field

import numpy as np

RECEIVER_NORMAL = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class GridSpec:
    """Regular receiver-plane grid centred on the origin.

    Cell counts must be even (FFT-friendly) and cells square.
    """

    extent_y: float = 4.0
    extent_z: float = 4.0
    cells_y: int = 256
    cells_z: int = 256

    def __post_init__(self):
        if self.extent_y <= 0.0 or self.extent_z <= 0.0:
            raise ValueError("grid extents must be positive")
        if self.cells_y <= 0 or self.cells_z <= 0:
            raise ValueError("cell counts must be positive")
        if self.cells_y % 2 or self.cells_z % 2:
            raise ValueError("cell counts must be even")
        if abs(self.extent_y / self.cells_y - self.extent_z / self.cells_z) > 1e-12:
            raise ValueError("grid cells must be square")

    @property
    def cell_size(self):
        return self.extent_y / self.cells_y

    @property
    def cell_area(self):
        return self.cell_size * self.cell_size

    def centres_y(self):
        return (np.arange(self.cells_y) + 0.5) * self.cell_size - 0.5 * self.extent_y

    def centres_z(self):
        return (np.arange(self.cells_z) + 0.5) * self.cell_size - 0.5 * self.extent_z


@dataclass(frozen=True)
class ReceiverSpec:
    """Aperture diameter plus the flux grid on the receiver plane."""

    diameter: float = 1.2
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if self.diameter <= 0.0:
            raise ValueError("receiver diameter must be positive")
