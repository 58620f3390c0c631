"""Receiver-plane geometry: the flux grid and the aperture.

The receiver plane is the world Y'Z' plane (normal along +X') with its
centre at the origin; every flux map lives on one square grid in that
plane, the same cell count and extent along y' and z'.
This module is the one place the plane is fixed: the flux engines and
``sun.build_kernel`` assume it rather than take a normal.
"""

from dataclasses import dataclass, field

import numpy as np

RECEIVER_NORMAL = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class GridSpec:
    """Square receiver-plane grid centred on the origin.

    ``extent`` x ``extent`` metres split into ``cells`` x ``cells`` square
    cells; the cell count must be even (FFT-friendly).
    """

    extent: float = 4.0
    cells: int = 256

    def __post_init__(self):
        if self.extent <= 0.0:
            raise ValueError("grid extent must be positive")
        if self.cells <= 0:
            raise ValueError("cell count must be positive")
        if self.cells % 2:
            raise ValueError("cell count must be even")

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
        if self.diameter <= 0.0:
            raise ValueError("receiver diameter must be positive")
