"""Scatter (cyclic) decomposition (paper Section 3.2.iii, Fig. 2c).

``BS(1)``: element *i* lives on processor ``i mod pmax`` at local slot
``i div pmax``.
"""

from __future__ import annotations

import numpy as np

from .blockscatter import BlockScatter

__all__ = ["Scatter"]


class Scatter(BlockScatter):
    """Cyclic decomposition: ``proc(i) = i mod pmax``,
    ``local(i) = i div pmax``."""

    kind = "scatter"

    def __init__(self, n: int, pmax: int):
        super().__init__(n, pmax, 1)

    def proc(self, i: int) -> int:
        return i % self.pmax

    def local(self, i: int) -> int:
        return i // self.pmax

    def owned_array(self, p: int):
        return np.arange(p, self.n, self.pmax)

    def owned_slots(self, p: int):
        count = len(range(p, self.n, self.pmax))
        return slice(p, self.n, self.pmax), slice(0, count, 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scatter(n={self.n}, pmax={self.pmax})"
