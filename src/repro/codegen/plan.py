"""Compiling a V-cal clause + decompositions into an SPMD plan.

This is the Section 2.6 derivation made executable.  Starting from the
canonical clause (paper Eq. (1))

    ``∆(i ∈ (imin:imax)) [f(i)]A := Expr([g(i)](B), ...)``

and a decomposition for every array, the plan captures the rewritten form
Eq. (3): the processor parameter ``p``, the membership condition
``proc_A(f(i)) = p`` (compiled to a Table I enumerator — the *owner
computes* rule), and the placement ``(proc, local)`` of every read.

The plan is machine-independent; :mod:`repro.codegen.shared_tmpl` and
:mod:`repro.codegen.dist_tmpl` instantiate it for the two machine models,
and :mod:`repro.codegen.pysource` emits it as Python node-program source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.clause import Clause, Ordering
from ..core.expr import Ref
from ..core.ifunc import IFunc
from ..decomp.base import Decomposition
from ..decomp.replicated import Replicated
from ..sets.membership import Work
from ..sets.table1 import OptimizedAccess, optimize_access

__all__ = ["CompiledRead", "SPMDPlan", "check_canonical", "compile_clause"]


@dataclass
class CompiledRead:
    """One read access ``[g(i)](B)`` with its decomposition and enumerator.

    ``temp`` names the per-iteration value slot in generated code; ``pos``
    is the read's position in the clause (tags disambiguate two reads of
    the same array with different access functions).
    """

    ref: Ref
    dec: Decomposition
    func: IFunc
    pos: int
    reside: OptimizedAccess

    @property
    def name(self) -> str:
        return self.ref.name

    @property
    def temp(self) -> str:
        return f"v{self.pos}"

    @property
    def always_local(self) -> bool:
        return isinstance(self.dec, Replicated)


@dataclass
class SPMDPlan:
    """Everything the machine templates need to emit node programs."""

    clause: Clause
    imin: int
    imax: int
    write_dec: Decomposition
    write_func: IFunc
    modify: OptimizedAccess
    reads: List[CompiledRead]
    pmax: int
    compile_work: Work = field(default_factory=Work)
    #: unified pipeline IR and pass trace (set by ``compile_clause``)
    ir: object = field(default=None, repr=False, compare=False)
    trace: object = field(default=None, repr=False, compare=False)

    @property
    def write_name(self) -> str:
        return self.clause.lhs.name

    @property
    def write_replicated(self) -> bool:
        return isinstance(self.write_dec, Replicated)

    def modify_indices(self, p: int, work: Optional[Work] = None) -> List[int]:
        """``Modify_p`` via the chosen Table I rule."""
        if self.write_replicated:
            return list(range(self.imin, self.imax + 1))
        return self.modify.indices(p, work)

    def reside_indices(
        self, read: CompiledRead, p: int, work: Optional[Work] = None
    ) -> List[int]:
        """``Reside_p`` of one read access."""
        return read.reside.indices(p, work)

    def writers_of(self, i: int) -> List[int]:
        """Processors that update ``A[f(i)]`` — one under owner-computes,
        all of them for a replicated target."""
        if self.write_replicated:
            return list(range(self.pmax))
        return [self.write_dec.proc(self.write_func(i))]

    def rules(self) -> Dict[str, str]:
        """Which Table I rule fired for each access (diagnostics)."""
        out = {f"write:{self.write_name}": self.modify.rule}
        for r in self.reads:
            out[f"read{r.pos}:{r.name}"] = r.reside.rule
        return out


def compile_clause(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> SPMDPlan:
    """Compile a 1-D canonical clause against per-array decompositions.

    A thin shim over the unified pass pipeline
    (:func:`repro.pipeline.compile_plan`): it enforces this entry point's
    historical contract (:func:`check_canonical`), then projects the Plan
    IR back onto :class:`SPMDPlan` (the IR and pass trace ride along as
    ``plan.ir`` / ``plan.trace``).
    """
    check_canonical(clause, decomps)
    from ..pipeline import compile_plan

    return compile_plan(clause, decomps).to_spmd_plan()


def check_canonical(
    clause: Clause, decomps: Dict[str, Decomposition]
) -> Decomposition:
    """Refuse clauses outside the paper's canonical 1-D form and return
    the write decomposition.

    Raises ``ValueError`` for a non-1-D domain, an OverlappedBlock array,
    a read decomposed over a different ``pmax`` than the write, or a
    non-separable access, and ``KeyError`` when an array lacks a
    decomposition.
    """
    if clause.domain.dim != 1:
        raise ValueError(
            "SPMD generation implements the paper's canonical 1-D clause; "
            f"got a {clause.domain.dim}-D domain"
        )
    from ..decomp.overlap import OverlappedBlock

    for name in clause.array_names():
        if isinstance(decomps.get(name), OverlappedBlock):
            raise ValueError(
                f"array {name!r} uses an OverlappedBlock: overlapped "
                "structures address local memory through halo slots — use "
                "repro.codegen.halo.compile_halo_stencil instead"
            )
    write_dec = decomps[clause.lhs.name]
    clause.lhs.scalar_func()  # same non-separable ValueError as always
    pmax = write_dec.pmax

    for ref in clause.reads():
        dec = decomps[ref.name]
        if dec.pmax != pmax:
            raise ValueError(
                f"array {ref.name!r} decomposed over {dec.pmax} processors, "
                f"but {clause.lhs.name!r} over {pmax}"
            )
        ref.scalar_func()
    return write_dec
