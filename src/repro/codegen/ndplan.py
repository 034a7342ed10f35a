"""Multi-dimensional SPMD generation over processor grids.

The paper presents its derivation for the canonical 1-D clause "for
reasons of clarity" (§2.6); the index-set machinery is d-dimensional
throughout.  This module implements the natural d-dimensional lifting for
shared-memory machines: with a product decomposition
(:class:`~repro.decomp.multidim.GridDecomposition`) the owner of
``M[f_0(i_0), .., f_k(i_k)]`` is the grid point
``(proc_0(f_0(i_0)), .., proc_k(f_k(i_k)))`` — so the membership set
``Modify_p`` *factorizes into a Cartesian product of 1-D memberships*,
and every Table I closed form applies per dimension unchanged.

Loop dimensions the write does not constrain (e.g. the reduction index
``j`` in ``y[i] := y[i] + M[i,j] x[j]``) iterate their full range on the
owning node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..backends import RunContext, dispatch
from ..core.clause import Clause, Ordering
from ..core.view import ProjectedMap, SeparableMap
from ..decomp.base import Decomposition
from ..decomp.multidim import GridDecomposition
from ..machine.shared import SharedMachine
from ..sets.membership import Work
from ..sets.table1 import OptimizedAccess

__all__ = ["NDPlan", "compile_clause_nd", "run_shared_nd"]

AnyDec = Union[Decomposition, GridDecomposition]


def _lhs_dims_funcs(clause: Clause) -> Tuple[Tuple[int, ...], tuple]:
    imap = clause.lhs.imap
    if isinstance(imap, SeparableMap):
        return tuple(range(imap.dim)), imap.funcs
    if isinstance(imap, ProjectedMap):
        return imap.dims, imap.funcs
    raise ValueError(
        "ND generation needs a separable/projected write access"
    )


@dataclass
class NDPlan:
    """Compiled d-dimensional clause: per-output-dimension memberships."""

    clause: Clause
    write_dec: AnyDec
    #: loop-dimension index feeding each output dimension
    out_dims: Tuple[int, ...]
    #: per-output-dimension Table I enumerator
    dim_access: List[OptimizedAccess]
    #: loop bounds per loop dimension
    loop_bounds: List[Tuple[int, int]]
    pmax: int
    #: unified pipeline IR and pass trace (set by ``compile_clause_nd``)
    ir: object = field(default=None, repr=False, compare=False)
    trace: object = field(default=None, repr=False, compare=False)

    def rules(self) -> Dict[str, str]:
        return {
            f"dim{k}": acc.rule for k, acc in enumerate(self.dim_access)
        }

    def modify_indices(
        self, p: int, work: Optional[Work] = None
    ) -> List[Tuple[int, ...]]:
        """``Modify_p`` as the Cartesian product of per-dimension sets,
        in lexicographic order over the loop dimensions."""
        coord = (self.write_dec.grid_coord(p)
                 if isinstance(self.write_dec, GridDecomposition) else (p,))
        per_loop_dim: List[List[int]] = []
        for d, (lo, hi) in enumerate(self.loop_bounds):
            if d in self.out_dims:
                k = self.out_dims.index(d)
                enum = self.dim_access[k].enumerate(coord[k], work)
                per_loop_dim.append(enum.indices())
            else:
                per_loop_dim.append(list(range(lo, hi + 1)))
        return list(itertools.product(*per_loop_dim))


def compile_clause_nd(
    clause: Clause, decomps: Dict[str, AnyDec]
) -> NDPlan:
    """Compile a d-dimensional clause against a grid decomposition of the
    written array (shared-memory execution).

    A shim over the unified pass pipeline: reads address global memory
    directly here, so only the written array needs a decomposition."""
    out_dims, funcs = _lhs_dims_funcs(clause)
    if len(set(out_dims)) != len(out_dims):
        raise ValueError(
            "two output dimensions draw from the same loop dimension"
        )
    wd = decomps[clause.lhs.name]
    ndim_w = wd.ndim if isinstance(wd, GridDecomposition) else 1
    if ndim_w != len(funcs):
        raise ValueError(
            f"write decomposition rank {ndim_w} != access rank {len(funcs)}"
        )
    from ..pipeline import compile_plan

    return compile_plan(
        clause, decomps, require_read_decomps=False
    ).to_nd_plan()


def run_shared_nd(
    plan: NDPlan,
    env: Dict[str, np.ndarray],
    machine: Optional[SharedMachine] = None,
    backend: str = "scalar",
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
) -> SharedMachine:
    """Execute on the shared-memory machine (direct global addressing).

    *backend* picks the executor through the ladder of
    :data:`repro.backends.BACKENDS` (see :func:`repro.backends.dispatch`
    and ``docs/execution.md``); every fallback is a trace note.
    *processes*/*timeout* apply to ``mp``/``mpi``.
    """
    if machine is None:
        machine = SharedMachine(plan.pmax, env)
    ctx = RunContext.of(plan, env, machine, "run_shared_nd",
                        distributed=False, processes=processes,
                        timeout=timeout)
    return dispatch(backend, ctx, lambda: _run_shared_nd_scalar(plan, machine))


def _run_shared_nd_scalar(plan: NDPlan, machine: SharedMachine) -> SharedMachine:
    """The §2.9 template over the factorized membership products."""
    clause = plan.clause
    if clause.ordering is Ordering.SEQ:
        # global lexicographic serialization, charged to owners
        order: List[Tuple[int, Tuple[int, ...]]] = []
        for p in range(plan.pmax):
            for idx in plan.modify_indices(p):
                order.append((p, idx))
        order.sort(key=lambda t: t[1])
        target = machine.env[clause.lhs.name]
        for p, idx in order:
            machine.stats[p].iterations += 1
            if clause.guard is not None and not clause.guard.eval(
                idx, machine.env
            ):
                continue
            ai = clause.lhs.array_index(idx)
            target[ai if len(ai) > 1 else ai[0]] = clause.rhs.eval(
                idx, machine.env
            )
            machine.stats[p].local_updates += 1
        return machine

    def phase(p: int):
        writes = []
        work = Work()
        for idx in plan.modify_indices(p, work):
            machine.stats[p].iterations += 1
            if clause.guard is not None and not clause.guard.eval(
                idx, machine.env
            ):
                continue
            ai = clause.lhs.array_index(idx)
            writes.append((clause.lhs.name, ai, clause.rhs.eval(idx, machine.env)))
        machine.stats[p].membership_tests += work.tests
        return writes

    # SharedMachine.run_phase stores via [idx] — adapt tuple indices
    buffers = [phase(p) for p in range(plan.pmax)]
    for p, buf in enumerate(buffers):
        for name, ai, value in buf:
            machine.env[name][ai if len(ai) > 1 else ai[0]] = value
            machine.stats[p].local_updates += 1
        machine.stats[p].barriers += 1
    return machine
