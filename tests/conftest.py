"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.ifunc import AffineF, ConstantF, ModularF, MonotoneF
from repro.decomp import Block, BlockScatter, Scatter, SingleOwner


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def decompositions(max_n: int = 64, max_p: int = 8):
    """Strategy producing bijective 1-D decompositions."""

    def build(draw_tuple):
        kind, n, pmax, b, owner = draw_tuple
        pmax = max(1, pmax)
        n = max(1, n)
        if kind == "block":
            return Block(n, pmax)
        if kind == "scatter":
            return Scatter(n, pmax)
        if kind == "bs":
            return BlockScatter(n, pmax, max(1, b))
        return SingleOwner(n, pmax, owner % pmax)

    return st.tuples(
        st.sampled_from(["block", "scatter", "bs", "single"]),
        st.integers(1, max_n),
        st.integers(1, max_p),
        st.integers(1, 8),
        st.integers(0, max_p - 1),
    ).map(build)


def affine_funcs(max_a: int = 6, max_c: int = 10):
    """Non-degenerate affine access functions, both slopes."""
    return st.tuples(
        st.integers(-max_a, max_a).filter(lambda a: a != 0),
        st.integers(-max_c, max_c),
    ).map(lambda t: AffineF(*t))


def index_funcs():
    """Constant, affine, modular, or monotone access functions."""
    constant = st.integers(0, 40).map(ConstantF)
    affine = affine_funcs()
    modular = st.tuples(
        st.integers(1, 3),
        st.integers(0, 10),
        st.integers(3, 30),
        st.integers(0, 5),
    ).map(lambda t: ModularF(AffineF(t[0], t[1]), t[2], t[3]))
    monotone = st.just(
        MonotoneF(lambda i: i + i // 4, 1, "i+i div 4")
    )
    return st.one_of(constant, affine, modular, monotone)


# ---------------------------------------------------------------------------
# plain fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fig2_params():
    """The Fig. 2 configuration: 15 elements on 4 processors."""
    return {"n": 15, "pmax": 4}


@pytest.fixture
def no_native(monkeypatch):
    """Force the native probe to report the tier unavailable."""
    from repro.pipeline.native import reset_native_support

    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    reset_native_support()
    yield
    monkeypatch.undo()
    reset_native_support()


@pytest.fixture
def no_mpi(monkeypatch):
    """Force the mpi backend unavailable (fused-fallback path)."""
    from repro.mpi.support import reset_mpi_support

    monkeypatch.setenv("REPRO_NO_MPI", "1")
    monkeypatch.delenv("REPRO_MPI_STUB", raising=False)
    reset_mpi_support()
    yield
    monkeypatch.undo()
    reset_mpi_support()
