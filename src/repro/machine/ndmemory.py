"""Multi-dimensional placement helpers for the distributed machine.

Grid-decomposed arrays live as dense local nd-arrays per node (shape
``grid.local_shape(p)``), filled per axis through the same
:func:`~repro.machine.memory.node_slots` as 1-D placement.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..decomp.multidim import GridDecomposition
from .memory import LocalMemory, node_slots

__all__ = ["scatter_global_nd", "gather_global_nd"]


def scatter_global_nd(
    name: str,
    global_array: np.ndarray,
    grid: GridDecomposition,
    memories: List[LocalMemory],
) -> None:
    """Distribute an nd-array onto node memories under a grid
    decomposition."""
    if tuple(global_array.shape) != grid.shape:
        raise ValueError(
            f"array {name!r} shape {global_array.shape} != decomposition "
            f"shape {grid.shape}"
        )
    for p, mem in enumerate(memories):
        local = np.zeros(grid.local_shape(p), dtype=global_array.dtype)
        g, l = node_slots(grid.dims, grid.grid_coord(p))
        local[l] = global_array[g]
        mem.arrays[name] = local


def gather_global_nd(
    name: str,
    grid: GridDecomposition,
    memories: List[LocalMemory],
    dtype=np.float64,
) -> np.ndarray:
    """Reassemble the global nd-array from the node memories."""
    out = np.zeros(grid.shape, dtype=dtype)
    for p, mem in enumerate(memories):
        g, l = node_slots(grid.dims, grid.grid_coord(p))
        out[g] = mem[name][l]
    return out
