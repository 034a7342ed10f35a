"""Per-node local memories and decomposition-aware load/store.

``A'`` — the machine image of a decomposed structure ``A`` (paper Eq. (2))
— materializes here as one local numpy array per processor, indexed by the
decomposition's ``local`` function.  ``scatter_global``/``gather_global``
move whole structures between the global (host) view and the node
memories, which is how experiment harnesses initialize and check runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..decomp.base import Decomposition
from ..decomp.overlap import OverlappedBlock
from ..decomp.replicated import Replicated

__all__ = ["LocalMemory", "node_slots", "scatter_global", "gather_global"]


class LocalMemory:
    """Named local arrays of one node."""

    def __init__(self, p: int):
        self.p = p
        self.arrays: Dict[str, np.ndarray] = {}

    def alloc(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        arr = np.zeros(max(size, 0), dtype=dtype)
        self.arrays[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self.arrays

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}[{v.size}]" for k, v in self.arrays.items())
        return f"LocalMemory(p={self.p}: {inner})"


def node_slots(dims: Sequence[Decomposition], coord: Sequence[int]):
    """``(global, local)`` indices of the elements one node owns.

    Each axis contributes its decomposition's ``owned_slots`` at the
    node's grid coordinate; a 1-D decomposition is the one-axis case.
    When every axis is a range or a stride the indices stay slices (a
    strided copy); otherwise ``np.ix_`` crosses per-axis index arrays.
    """
    axes = [d.owned_slots(c) for d, c in zip(dims, coord)]
    if all(isinstance(g, slice) for g, _ in axes):
        return tuple(g for g, _ in axes), tuple(l for _, l in axes)
    arrays = [[np.arange(s.start, s.stop, s.step) if isinstance(s, slice) else s
               for s in ax] for ax in axes]
    return np.ix_(*(g for g, _ in arrays)), np.ix_(*(l for _, l in arrays))


def scatter_global(
    name: str,
    global_array: np.ndarray,
    d: Decomposition,
    memories: List[LocalMemory],
) -> None:
    """Distribute *global_array* into the node memories according to *d*.

    Replicated structures are copied whole to every node; overlapped
    blocks also fill their halo copies (so a run starts halo-consistent).
    """
    if len(global_array) != d.n:
        raise ValueError(
            f"array {name!r} has {len(global_array)} elements, decomposition "
            f"covers {d.n}"
        )
    if isinstance(d, Replicated):
        for mem in memories:
            mem.arrays[name] = np.array(global_array, copy=True)
        return
    for p, mem in enumerate(memories):
        if isinstance(d, OverlappedBlock):
            lo, hi = d.resident_range(p)
            local = mem.alloc(name, hi - lo + 1, dtype=global_array.dtype)
            local[:] = global_array[lo : hi + 1]
            continue
        local = mem.alloc(name, d.local_size(p), dtype=global_array.dtype)
        g, l = node_slots((d,), (p,))
        local[l] = global_array[g]


def gather_global(
    name: str,
    d: Decomposition,
    memories: List[LocalMemory],
    dtype=np.float64,
) -> np.ndarray:
    """Reassemble the global view of a decomposed structure.

    For replicated structures node 0's copy is returned (all copies are
    asserted identical — a write-all-copies invariant check).
    """
    if isinstance(d, Replicated):
        ref = memories[0][name]
        for mem in memories[1:]:
            if not np.array_equal(mem[name], ref):
                raise AssertionError(
                    f"replicated array {name!r} diverged between nodes"
                )
        return np.array(ref, copy=True)
    out = np.zeros(d.n, dtype=dtype)
    for p, mem in enumerate(memories):
        local = mem[name]
        if isinstance(d, OverlappedBlock):
            # the owned block sits after the left halo, at offset lo
            g, lo = d.owned_slots(p)[0], d.resident_range(p)[0]
            out[g] = local[g.start - lo : g.stop - lo]
            continue
        g, l = node_slots((d,), (p,))
        out[g] = local[l]
    return out
