"""Block decomposition (paper Section 3.2.ii, Fig. 2b).

The paper defines block as the ``BS(b)`` special case whose single course
covers all the data: ``pmax.b >= n`` with ``b = ceil(n/pmax)``.  Then
``proc(i) = i div b`` and ``local(i) = i mod b``, and the course parameter
``k`` vanishes (``k_max = 0``).
"""

from __future__ import annotations

import numpy as np

from ..core.ifunc import ceil_div
from .blockscatter import BlockScatter

__all__ = ["Block"]


class Block(BlockScatter):
    """Contiguous block decomposition: processor *p* owns
    ``[p.b, min((p+1).b, n) - 1]`` with ``b = ceil(n/pmax)`` (or an explicit
    block size covering all data in one course)."""

    kind = "block"

    def __init__(self, n: int, pmax: int, b: int | None = None):
        if b is None:
            b = max(1, ceil_div(n, pmax)) if n else 1
        if b * pmax < n:
            raise ValueError(
                f"block size {b} too small: {pmax} processors cover only "
                f"{b * pmax} < {n} elements in one course"
            )
        super().__init__(n, pmax, b)

    # Single-course closed forms (identical results to BlockScatter's, but
    # worth keeping explicit: they are the formulas the paper quotes).

    def proc(self, i: int) -> int:
        return i // self.b

    def local(self, i: int) -> int:
        return i % self.b

    def owned_array(self, p: int):
        return np.arange(p * self.b, min((p + 1) * self.b, self.n))

    def owned_slots(self, p: int):
        lo, hi = min(p * self.b, self.n), min((p + 1) * self.b, self.n)
        return slice(lo, hi, 1), slice(0, hi - lo, 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block(n={self.n}, pmax={self.pmax}, b={self.b})"
