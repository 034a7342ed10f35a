"""Shared-memory backing for the multi-process runtime.

The parent owns every segment: one :class:`ShmSession` per run creates a
``multiprocessing.shared_memory`` segment per global array, copies the
environment in, and unlinks everything when the run finishes.  Workers
attach read/write views through the same float64 ndarray layout, so the
gather/scatter index arrays the lowering precomputes address the global
arrays zero-copy — placement is one memcpy per array, with no per-node
local buffers to fill.

Attachment deliberately bypasses the per-process resource tracker
(``track=False`` where available, an ``unregister`` call otherwise):
only the creating parent may unlink, and a tracked attach would spawn
spurious "leaked shared_memory" warnings when a worker exits.

A module-level registry of segment names created by this process backs
:func:`unlink_leftovers`, the atexit/``shutdown_runtime`` safety net —
test runs must never leak ``/dev/shm`` entries.
"""

from __future__ import annotations

import itertools
import os
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, FrozenSet, Tuple

import numpy as np

__all__ = [
    "ShmSession",
    "active_segments",
    "attach_segment",
    "unlink_leftovers",
]

_COUNTER = itertools.count()

#: names of segments created (and not yet unlinked) by this process
_ACTIVE: set = set()


def _segment_name() -> str:
    # short enough for macOS's 31-char POSIX name limit
    return f"repro-mp-{os.getpid() % 100000}-{next(_COUNTER)}"


def attach_segment(name: str,
                   untrack: bool = False) -> shared_memory.SharedMemory:
    """Attach an existing segment without taking over its cleanup (the
    creating parent owns the unlink).

    *untrack* matters only on Python < 3.13, where attaching registers
    the name with the resource tracker: a spawn-started worker has its
    own tracker and must unregister (or its exit would unlink a segment
    the parent still uses), while a fork-started worker shares the
    parent's tracker — there the duplicate registration is a set no-op
    and unregistering would strip the parent's own entry."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        seg = shared_memory.SharedMemory(name=name)
        if untrack:
            try:
                resource_tracker.unregister(seg._name, "shared_memory")
            except Exception:
                pass
        return seg


class ShmSession:
    """The shared-memory image of one run's global arrays.

    ``views[name]`` is the parent's float64 ndarray over the segment;
    :meth:`spec` is what workers need to attach their own views.  The
    session must be closed (normally in a ``finally``) — closing drops
    the views, closes and unlinks every segment.
    """

    def __init__(self, arrays: Dict[str, np.ndarray]):
        self.segs: Dict[str, shared_memory.SharedMemory] = {}
        self.views: Dict[str, np.ndarray] = {}
        try:
            for name, arr in arrays.items():
                a = np.ascontiguousarray(arr, dtype=np.float64)
                seg = shared_memory.SharedMemory(
                    create=True, size=max(a.nbytes, 8), name=_segment_name())
                _ACTIVE.add(seg.name)
                view = np.ndarray(a.shape, dtype=np.float64, buffer=seg.buf)
                view[...] = a
                self.segs[name] = seg
                self.views[name] = view
        except Exception:
            self.close()
            raise

    def spec(self) -> Dict[str, Tuple[str, Tuple[int, ...]]]:
        """``{array: (segment name, shape)}`` — the workers' attach map."""
        return {name: (seg.name, self.views[name].shape)
                for name, seg in self.segs.items()}

    def read(self, name: str) -> np.ndarray:
        """Copy an array out of shared memory (safe to keep after close)."""
        return np.array(self.views[name])

    def close(self) -> None:
        self.views = {}
        segs, self.segs = self.segs, {}
        for seg in segs.values():
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except Exception:
                pass
            _ACTIVE.discard(seg.name)


def active_segments() -> FrozenSet[str]:
    """Names of segments this process created and has not unlinked."""
    return frozenset(_ACTIVE)


def unlink_leftovers() -> int:
    """Unlink any segment a crashed/interrupted session left behind.
    Returns how many were reclaimed."""
    reclaimed = 0
    for name in list(_ACTIVE):
        try:
            seg = attach_segment(name)
            seg.close()
            seg.unlink()
            reclaimed += 1
        except Exception:
            pass
        _ACTIVE.discard(name)
    return reclaimed
