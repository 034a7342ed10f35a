"""Barrier elimination between clauses (paper §2.9, footnote 1).

"The expensive barrier synchronization can in many cases be eliminated or
merged with other synchronizations in intra-statement optimizations."

A barrier between two ``//`` clauses is needed exactly when some datum
flows between *different processors* across the phase boundary — or when
fusing would expose a cross-processor read/write overlap *within* one of
the clauses (the unfused template hides intra-clause overlap behind the
global double-buffer).  With the owner-computes rule all of this is
decidable at compile time from the decompositions and access functions.
This module decides it on NumPy vectors built from their closed forms:
for each clause, the element every iteration of ``lo:hi`` writes and
reads, and the processor that runs it (``proc_array`` of the written
element).  Each dependence test is a sorted lookup of the accessed
elements among the written ones plus an owner comparison; no element is
visited in Python.  :func:`clause_access_maps` keeps the per-element
enumeration as the reference oracle of the tests; no compile path calls
it.

``run_program_shared`` then executes a multi-clause program on the
shared-memory machine, fusing phases whose separating barrier was proven
removable, and reports how many barriers remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.clause import Clause, Ordering, Program
from ..decomp.base import Decomposition
from ..decomp.replicated import Replicated
from ..machine.shared import SharedMachine
from ..machine.vectorize import apply_ifunc
from .plan import check_canonical, compile_clause

__all__ = [
    "AccessMaps",
    "clause_access_maps",
    "has_cross_processor_overlap",
    "barrier_removable",
    "plan_barriers",
    "run_program_shared",
]

Elem = Tuple[str, int]


@dataclass
class AccessMaps:
    """Which (array, element) each clause touches, and from which
    processor (owner of the touching iteration)."""

    writes: Dict[Elem, Set[int]]
    reads: Dict[Elem, Set[int]]


def clause_access_maps(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> AccessMaps:
    """Exact access maps of a 1-D clause under owner-computes.

    Guards are treated as reads that *may* happen (conservative: the
    guard value is unknown at compile time, so every guarded iteration
    counts for both its reads and its write).
    """
    plan = compile_clause(clause, decomps)
    writes: Dict[Elem, Set[int]] = {}
    reads: Dict[Elem, Set[int]] = {}
    for i in range(plan.imin, plan.imax + 1):
        owners = plan.writers_of(i)
        w_elem = (plan.write_name, plan.write_func(i))
        writes.setdefault(w_elem, set()).update(owners)
        for read in plan.reads:
            r_elem = (read.name, read.func(i))
            reads.setdefault(r_elem, set()).update(owners)
    return AccessMaps(writes, reads)


@dataclass
class _Accesses:
    """One clause's accesses as vectors over its iterations ``lo:hi``.

    ``owner[k]`` is the processor running iteration ``lo + k``; ``None``
    stands for every processor ``0:pmax-1`` (a replicated write).
    ``written`` holds the sorted distinct written elements and
    ``writer`` the owner of each (again ``None`` when replicated).
    Guards count as reads that may happen, as in the oracle."""

    write_name: str
    pmax: int
    owner: Optional[np.ndarray]
    written: np.ndarray
    writer: Optional[np.ndarray]
    reads: List[Tuple[str, np.ndarray]]


def _proc(dec: Decomposition, elems: np.ndarray) -> np.ndarray:
    """``dec.proc`` over *elems*: the closed form inside ``[0, n)``, the
    scalar ``proc`` outside it (the BND001 accesses), where the two may
    disagree — Block's ``i // b`` against the BS(b) ``(i // b) mod pmax``
    it inherits as ``proc_array``."""
    inside = (elems >= 0) & (elems < dec.n)
    if inside.all():
        return dec.proc_array(elems)
    out = np.empty(elems.shape, dtype=np.int64)
    out[inside] = dec.proc_array(elems[inside])
    for k in np.flatnonzero(~inside):
        out[k] = dec.proc(int(elems[k]))
    return out


def _accesses(clause: Clause, decomps: Dict[str, Decomposition]) -> _Accesses:
    """Build a clause's access vectors; refuses exactly what
    :func:`compile_clause` refuses (``KeyError`` / ``ValueError``)."""
    write_dec = check_canonical(clause, decomps)
    bounds = clause.domain.bounds
    it = np.arange(bounds.lower[0], bounds.upper[0] + 1, dtype=np.int64)
    write = apply_ifunc(clause.lhs.scalar_func(), it)
    written, first = np.unique(write, return_index=True)
    owner = writer = None
    if not isinstance(write_dec, Replicated):
        owner = _proc(write_dec, write)
        writer = owner[first]
    reads = [(ref.name, apply_ifunc(ref.scalar_func(), it))
             for ref in clause.reads()]
    return _Accesses(clause.lhs.name, write_dec.pmax, owner, written, writer,
                     reads)


def _first_escape(
    elems: np.ndarray, owner: Optional[np.ndarray], pmax: int,
    target: _Accesses,
) -> Optional[Tuple[int, int, Optional[int]]]:
    """First position ``k`` where ``elems[k]`` is an element *target*
    writes and a processor accessing it there (``owner[k]``, or all of
    ``0:pmax-1`` when *owner* is None) is not among its writers.

    Returns ``(k, accessing processor, writer)`` — writer None when
    *target*'s write is replicated — or None when no position escapes."""
    pos = np.searchsorted(target.written, elems)
    hit = pos < target.written.size
    hit[hit] = target.written[pos[hit]] == elems[hit]
    k = np.flatnonzero(hit)
    if target.writer is None:
        writer = None
        if owner is None:
            acc = np.full(k.size, target.pmax)
            bad = np.full(k.size, pmax > target.pmax)
        else:
            acc = owner[k]
            bad = (acc < 0) | (acc >= target.pmax)
    else:
        writer = target.writer[pos[k]]
        if owner is None:
            acc = np.where(writer != 0, 0, 1)
            bad = (pmax > 1) | (writer != 0)
        else:
            acc = owner[k]
            bad = acc != writer
    j = np.flatnonzero(bad)
    if not j.size:
        return None
    j = j[0]
    return int(k[j]), int(acc[j]), None if writer is None else int(writer[j])


def _earliest(
    accessed: List[Tuple[str, np.ndarray]], owner: Optional[np.ndarray],
    pmax: int, target: _Accesses,
) -> Optional[Tuple[int, int, Optional[int], str]]:
    """The earliest escape (:func:`_first_escape`) over several accesses
    ``(array, elements)``, with the element named: ``(k, accessing
    processor, writer, "B[255]")``."""
    best = None
    for name, elems in accessed:
        if name != target.write_name:
            continue
        hit = _first_escape(elems, owner, pmax, target)
        if hit and (best is None or hit[0] < best[0]):
            best = hit + (f"{name}[{elems[hit[0]]}]",)
    return best


def _on(writer: Optional[int]) -> str:
    return "every processor" if writer is None else f"p{writer}"


def _phase_conflict(a1: _Accesses, a2: _Accesses) -> Optional[str]:
    """First cross-processor dependence between consecutive clauses, in
    the accessing clause's iteration order: flow (c1 writes, c2 reads)
    or anti (c1 reads, c2 writes).

    An output dependence (both write one element) never crosses
    processors here: both clauses place that array through the same
    decomposition, so the element has the same writer(s) in each."""
    flow = _earliest(a2.reads, a2.owner, a2.pmax, a1)
    if flow:
        _, reader, writer, elem = flow
        return f"flow {elem} written on {_on(writer)}, read on p{reader}"
    anti = _earliest(a1.reads, a1.owner, a1.pmax, a2)
    if anti:
        _, reader, writer, elem = anti
        return f"anti {elem} read on p{reader}, written on {_on(writer)}"
    return None


def has_cross_processor_overlap(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> bool:
    """True when, within ONE clause, an element is written by one
    processor and read (or written) by a different one — i.e. the global
    double-buffer of the unfused template is load-bearing.

    Fast path: the static analyzer's interference certificate.  A
    certified clause (non-replicated write, no read of the written
    array) provably has one writer per element and reads no written
    element, so the vector test would always return False — skip it."""
    from ..analysis import certified_independent

    if certified_independent(clause, decomps):
        return False
    acc = _accesses(clause, decomps)
    if acc.owner is None and acc.pmax > 1 and acc.written.size:
        return True  # a replicated write: every element has pmax writers
    return _earliest(acc.reads, acc.owner, acc.pmax, acc) is not None


def _barrier_conflict(
    c1: Clause, c2: Clause, decomps: Dict[str, Decomposition]
) -> Optional[str]:
    """Why the barrier between *c1* and *c2* must stay — the first
    witness, e.g. ``flow B[255] written on p0, read on p1`` — or None
    when it can be eliminated.  Raises what :func:`compile_clause`
    raises on a clause outside the canonical 1-D form."""
    if c1.ordering is not Ordering.PAR or c2.ordering is not Ordering.PAR:
        return "'•' ordering"
    for c in (c1, c2):
        if has_cross_processor_overlap(c, decomps):
            return f"intra-clause overlap in {c.name!r}"
    return _phase_conflict(_accesses(c1, decomps), _accesses(c2, decomps))


def barrier_removable(
    c1: Clause, c2: Clause, decomps: Dict[str, Decomposition]
) -> bool:
    """Can the barrier between *c1* and *c2* be eliminated?"""
    return _barrier_conflict(c1, c2, decomps) is None


def plan_barriers(
    program: Program, decomps: Dict[str, Decomposition]
) -> List[bool]:
    """``flags[k]`` — is a barrier needed after clause ``k``?  The final
    barrier (program end) is always kept.

    Decided by the pipeline's `eliminate-barriers` pass: each clause is
    compiled with its successor so the decision lands in the pass trace."""
    from ..pipeline import compile_plan

    clauses = program.clauses
    flags: List[bool] = []
    for c1, c2 in zip(clauses, clauses[1:]):
        ir = compile_plan(c1, decomps, successor=c2)
        flags.append(ir.barrier_needed)
    flags.append(True)
    return flags


def run_program_shared(
    program: Program,
    decomps: Dict[str, Decomposition],
    env: Dict[str, np.ndarray],
    eliminate_barriers: bool = True,
    backend: str = "scalar",
    strict: bool = False,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
) -> Tuple[SharedMachine, int]:
    """Execute a multi-clause program on the shared-memory machine.

    Thin legacy wrapper: the program is compiled through
    :func:`repro.pipeline.compile_program` (whose `fuse-clauses` pass
    groups consecutive clauses with removable barriers) and executed by
    :func:`repro.pipeline.run_program`.  Returns the machine and the
    number of barriers actually executed.

    The full backend registry applies, exactly as for single clauses
    (``overlap`` degrades to the vector backend with a trace note).
    """
    from ..pipeline import compile_program, run_program

    pir = compile_program(program, decomps,
                          eliminate_barriers=eliminate_barriers)
    pmax = max(d.pmax for d in decomps.values())
    machine = SharedMachine(pmax, env)
    return run_program(pir, env, backend=backend, strict=strict,
                       processes=processes, timeout=timeout,
                       machine=machine)
