"""Vectorized placement and collection against the per-element oracle.

``scatter_global``/``gather_global`` and their grid forms move whole
index sets at once, computed from each decomposition's closed forms
(``owned_array``/``owned_slots``).  The per-element loops they replaced
live on here as the oracle: every node's local array and every collected
global array must be bit-identical to what the loops produce, dtype and
shape included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp import (
    Block,
    BlockScatter,
    Collapsed,
    Decomposition,
    GridDecomposition,
    OverlappedBlock,
    Replicated,
    Scatter,
    SingleOwner,
)
from repro.machine import DistributedMachine
from repro.machine.memory import LocalMemory, gather_global, scatter_global
from repro.machine.ndmemory import gather_global_nd, scatter_global_nd

from .conftest import decompositions


# ---------------------------------------------------------------------------
# the per-element oracle (the loops placement used to run)
# ---------------------------------------------------------------------------

def oracle_scatter(name, global_array, d, memories):
    if isinstance(d, Replicated):
        for mem in memories:
            mem.arrays[name] = np.array(global_array, copy=True)
        return
    if isinstance(d, OverlappedBlock):
        for p, mem in enumerate(memories):
            lo, hi = d.resident_range(p)
            size = max(0, hi - lo + 1)
            local = mem.alloc(name, size, dtype=global_array.dtype)
            if size:
                local[:] = global_array[lo : hi + 1]
        return
    for p, mem in enumerate(memories):
        local = mem.alloc(name, d.local_size(p), dtype=global_array.dtype)
        for i in d.owned(p):
            local[d.local(i)] = global_array[i]


def oracle_gather(name, d, memories, dtype=np.float64):
    if isinstance(d, Replicated):
        return np.array(memories[0][name], copy=True)
    out = np.zeros(d.n, dtype=dtype)
    for p, mem in enumerate(memories):
        local = mem[name]
        for i in d.owned(p):
            slot = (d.local_slot(p, i) if isinstance(d, OverlappedBlock)
                    else d.local(i))
            out[i] = local[slot]
    return out


def oracle_scatter_nd(name, global_array, grid, memories):
    for p, mem in enumerate(memories):
        local = np.zeros(grid.local_shape(p), dtype=global_array.dtype)
        for idx in grid.owned(p):
            local[grid.local(idx)] = global_array[idx]
        mem.arrays[name] = local


def oracle_gather_nd(name, grid, memories, dtype=np.float64):
    out = np.zeros(grid.shape, dtype=dtype)
    for p, mem in enumerate(memories):
        for idx in grid.owned(p):
            out[idx] = mem[name][grid.local(idx)]
    return out


# ---------------------------------------------------------------------------
# decompositions under test
# ---------------------------------------------------------------------------

class ReversedBlock(Decomposition):
    """Block ownership, local slots counted down from the block's end.

    Defines only ``proc``/``local``: every other query, ``owned_array``
    and ``owned_slots`` included, is the base class default.
    """

    kind = "reversed-block"

    def __init__(self, n: int, pmax: int):
        super().__init__(n, pmax)
        self.b = max(1, -(-n // pmax))

    def proc(self, i: int) -> int:
        return i // self.b

    def local(self, i: int) -> int:
        return self.b - 1 - i % self.b


def one_d(n: int, pmax: int):
    """Every 1-D decomposition class at (n, pmax)."""
    out = [Block(n, pmax), Scatter(n, pmax), SingleOwner(n, pmax, pmax - 1),
           Replicated(n, pmax), ReversedBlock(n, pmax),
           OverlappedBlock(n, pmax, 1), OverlappedBlock(n, pmax, 3)]
    out += [BlockScatter(n, pmax, b) for b in (1, 2, 3, 5)]
    if pmax == 1:
        out.append(Collapsed(n))
    return out


SIZES = [(0, 1), (0, 4), (1, 1), (3, 4), (5, 8), (7, 3), (15, 4), (16, 4),
         (17, 5), (40, 3)]
DTYPES = [np.float64, np.float32, np.int32, np.int64, np.complex128]


def cases_1d():
    for n, pmax in SIZES:
        for d in one_d(n, pmax):
            yield pytest.param(d, id=f"{type(d).__name__}-{d.kind}-n{n}-p{pmax}"
                               f"-{getattr(d, 'b', '')}-{getattr(d, 'halo', '')}")


def grids():
    return [
        GridDecomposition([Block(6, 2), Scatter(5, 2)]),
        GridDecomposition([BlockScatter(11, 2, 3), Collapsed(4)]),
        GridDecomposition([Block(2, 3), Block(7, 2)]),         # empty nodes
        GridDecomposition([Block(0, 2), Scatter(3, 2)]),       # n = 0 axis
        GridDecomposition([ReversedBlock(7, 2), Scatter(5, 3)]),
        GridDecomposition([ReversedBlock(5, 2), BlockScatter(9, 2, 2)]),
        GridDecomposition([OverlappedBlock(9, 2, 1), Block(4, 2)]),
        GridDecomposition([Block(6, 2), Scatter(5, 2), Collapsed(4)]),
        GridDecomposition([BlockScatter(7, 2, 2), ReversedBlock(4, 2),
                           Scatter(3, 3)]),
    ]


def values(shape, dtype, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.integers(-1000, 1000, size=shape)
    if np.issubdtype(dtype, np.complexfloating):
        return (a + 1j * rng.integers(-9, 9, size=shape)).astype(dtype)
    if np.issubdtype(dtype, np.floating):
        return (a + rng.random(shape)).astype(dtype)
    return a.astype(dtype)


def out_dtypes(dtype):
    """Gather into the default float64 and into the input dtype (complex
    input only into its own: the cast to real would drop data)."""
    if np.issubdtype(dtype, np.complexfloating):
        return (dtype,)
    return (np.float64, dtype)


def assert_same_memories(got, want, name):
    for g, w in zip(got, want):
        assert g[name].dtype == w[name].dtype
        assert g[name].shape == w[name].shape
        assert np.array_equal(g[name], w[name])


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# 1-D
# ---------------------------------------------------------------------------

class TestOneDimensional:
    @pytest.mark.parametrize("d", list(cases_1d()))
    def test_owned_array_matches_owned(self, d):
        for p in range(d.pmax):
            arr = d.owned_array(p)
            assert arr.dtype == np.int64
            assert arr.tolist() == list(d.owned(p))

    @pytest.mark.parametrize("d", list(cases_1d()))
    def test_local_size_is_one_past_the_largest_slot(self, d):
        for p in range(d.pmax):
            want = max((d.local(i) for i in d.owned(p)), default=-1) + 1
            assert d.local_size(p) == want

    @pytest.mark.parametrize("d", list(cases_1d()))
    def test_scatter_and_gather_match_oracle(self, d):
        for dtype in DTYPES:
            g = values(d.n, dtype)
            got = [LocalMemory(p) for p in range(d.pmax)]
            want = [LocalMemory(p) for p in range(d.pmax)]
            scatter_global("A", g, d, got)
            oracle_scatter("A", g, d, want)
            assert_same_memories(got, want, "A")
            for out_dtype in out_dtypes(dtype):
                back = gather_global("A", d, got, dtype=out_dtype)
                assert_bit_identical(back, oracle_gather("A", d, want,
                                                         dtype=out_dtype))
            assert np.array_equal(gather_global("A", d, got, dtype=dtype), g)

    def test_overlapped_gather_reads_owned_not_halo(self):
        d = OverlappedBlock(10, 3, 2)
        mems = [LocalMemory(p) for p in range(3)]
        scatter_global("A", np.arange(10.0), d, mems)
        for mem in mems:      # poison every halo copy
            mem["A"][:] = -1.0
        for p, mem in enumerate(mems):
            lo = d.resident_range(p)[0]
            for i in d.owned(p):
                mem["A"][i - lo] = float(i)
        assert np.array_equal(gather_global("A", d, mems), np.arange(10.0))

    @given(decompositions(max_n=48, max_p=6))
    @settings(max_examples=150, deadline=None)
    def test_random_decompositions_match_oracle(self, d):
        g = values(d.n, np.float64)
        got = [LocalMemory(p) for p in range(d.pmax)]
        want = [LocalMemory(p) for p in range(d.pmax)]
        scatter_global("A", g, d, got)
        oracle_scatter("A", g, d, want)
        assert_same_memories(got, want, "A")
        assert_bit_identical(gather_global("A", d, got),
                             oracle_gather("A", d, want))

    def test_machine_place_collect_round_trip(self):
        for d in one_d(17, 4):
            m = DistributedMachine(4)
            g = values(17, np.float64)
            m.place("A", g, d)
            assert_bit_identical(m.collect("A"), g)

    def test_locals_do_not_alias_the_global_array(self):
        for d in (Block(8, 2), Scatter(8, 2), Collapsed(8),
                  OverlappedBlock(8, 2, 1)):
            g = np.arange(8.0)
            mems = [LocalMemory(p) for p in range(d.pmax)]
            scatter_global("A", g, d, mems)
            g[:] = -1.0
            assert all((m["A"] >= 0).all() for m in mems)
            back = gather_global("A", d, mems)
            mems[0]["A"][:] = -2.0
            assert (back >= 0).all()

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="has 5 elements, decomposition covers 6"):
            scatter_global("A", np.zeros(5), Block(6, 2),
                           [LocalMemory(p) for p in range(2)])

    def test_replicated_divergence_asserts(self):
        d = Replicated(6, 3)
        mems = [LocalMemory(p) for p in range(3)]
        scatter_global("A", np.arange(6.0), d, mems)
        mems[2]["A"][4] = 99.0
        with pytest.raises(AssertionError, match="diverged between nodes"):
            gather_global("A", d, mems)

    def test_replicated_copies_are_independent(self):
        d = Replicated(4, 2)
        g = np.arange(4.0)
        mems = [LocalMemory(p) for p in range(2)]
        scatter_global("A", g, d, mems)
        g[0] = 9.0
        assert mems[0]["A"][0] == 0.0
        assert mems[0]["A"] is not mems[1]["A"]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class TestGrid:
    @pytest.mark.parametrize("grid", grids(), ids=repr)
    def test_owned_array_matches_owned_per_axis(self, grid):
        for d in grid.dims:
            for p in range(d.pmax):
                assert d.owned_array(p).tolist() == list(d.owned(p))

    @pytest.mark.parametrize("grid", grids(), ids=repr)
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda t: np.dtype(t).name)
    def test_scatter_and_gather_match_oracle(self, grid, dtype):
        g = values(grid.shape, dtype)
        got = [LocalMemory(p) for p in range(grid.pmax)]
        want = [LocalMemory(p) for p in range(grid.pmax)]
        scatter_global_nd("T", g, grid, got)
        oracle_scatter_nd("T", g, grid, want)
        assert_same_memories(got, want, "T")
        for out_dtype in out_dtypes(dtype):
            assert_bit_identical(
                gather_global_nd("T", grid, got, dtype=out_dtype),
                oracle_gather_nd("T", grid, want, dtype=out_dtype))
        assert np.array_equal(gather_global_nd("T", grid, got, dtype=dtype), g)

    @given(st.lists(st.tuples(st.sampled_from(["block", "scatter", "bs", "rev"]),
                              st.integers(0, 9), st.integers(1, 3),
                              st.integers(1, 4)),
                    min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_random_grids_match_oracle(self, axes):
        build = {"block": lambda n, p, b: Block(n, p),
                 "scatter": lambda n, p, b: Scatter(n, p),
                 "bs": BlockScatter,
                 "rev": lambda n, p, b: ReversedBlock(n, p)}
        grid = GridDecomposition([build[k](n, p, b) for k, n, p, b in axes])
        g = values(grid.shape, np.float64)
        got = [LocalMemory(p) for p in range(grid.pmax)]
        want = [LocalMemory(p) for p in range(grid.pmax)]
        scatter_global_nd("T", g, grid, got)
        oracle_scatter_nd("T", g, grid, want)
        assert_same_memories(got, want, "T")
        assert_bit_identical(gather_global_nd("T", grid, got),
                             oracle_gather_nd("T", grid, want))

    def test_every_element_placed_once(self):
        grid = GridDecomposition([Block(6, 2), Scatter(5, 2), Collapsed(4)])
        mems = [LocalMemory(p) for p in range(grid.pmax)]
        scatter_global_nd("T", np.ones(grid.shape), grid, mems)
        assert sum(m["T"].sum() for m in mems) == np.prod(grid.shape)
        for p, mem in enumerate(mems):
            assert mem["T"].shape == grid.local_shape(p)

    def test_shape_mismatch_raises(self):
        grid = GridDecomposition([Block(4, 2), Block(4, 2)])
        with pytest.raises(ValueError, match=r"shape \(4, 3\) != decomposition shape \(4, 4\)"):
            scatter_global_nd("T", np.zeros((4, 3)), grid,
                              [LocalMemory(p) for p in range(grid.pmax)])
