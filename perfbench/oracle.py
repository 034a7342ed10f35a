"""Hand-written NumPy references for every output the benchmark checks.

They share no code with :mod:`repro`: each applies the stencil's
formula to whole slices, in the same operand order as the V-cal source,
so a correct SPMD execution is bit-identical to them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def stencil_1d(a0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A[i] := B[i - 1] + B[i] + B[i + 1]`` for ``1 <= i <= n - 2``."""
    out = a0.copy()
    out[1:-1] = b[:-2] + b[1:-1] + b[2:]
    return out


def jacobi_step(s: np.ndarray, t: np.ndarray) -> None:
    """``T[i, j] := (S[i-1, j] + S[i+1, j] + (S[i, j-1] + S[i, j+1])) / 4``
    on the interior, in place on *t*."""
    t[1:-1, 1:-1] = (s[:-2, 1:-1] + s[2:, 1:-1]
                     + (s[1:-1, :-2] + s[1:-1, 2:])) / 4


def stencil_2d(t0: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = t0.copy()
    jacobi_step(s, out)
    return out


def jacobi_loop(s0: np.ndarray, t0: np.ndarray, steps: int):
    """Double-buffered Jacobi: one step, then swap S and T; returns the
    final ``(S, T)`` bindings."""
    s, t = s0.copy(), t0.copy()
    for _ in range(steps):
        jacobi_step(s, t)
        s, t = t, s
    return s, t


def mismatch(name: str, got, want: np.ndarray) -> Optional[str]:
    """None when *got* equals *want* bit for bit, else a one-line reason."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != {want.shape}"
    if not np.array_equal(got, want):
        bad = int(np.count_nonzero(got != want))
        return f"{name}: {bad} element(s) differ from the NumPy reference"
    return None
