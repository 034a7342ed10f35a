"""Execution-backend registry and the one fallback ladder.

One canonical table of every ``backend=`` flavor the generated node
programs can run under, shared by the CLI and the ``run_*`` runners so
an unknown name fails the same way everywhere: a one-line error that
lists the valid backends instead of a traceback from deep inside a
template.

The registry also centralizes *availability*: backends that depend on an
optional package (``native`` → numba, ``mpi`` → mpi4py) register a probe
here, so every runner and the CLI report "numba not installed" /
"mpi4py unavailable" the same way.

:func:`dispatch` decides *which executor runs* one compiled clause.  It
walks the ladder ``mpi → mp → native → fused → vector/overlap →
scalar``: each rung either refuses (one trace note naming the rung it
falls back to and why) or runs its IR-level executor.  When every rung
refuses, the caller's scalar template runs.  The runners in
:mod:`repro.codegen` only build their machine and scalar template; the
table below is the single place the ladder lives (see
``docs/execution.md`` § "Availability and the fallback matrix").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional

__all__ = [
    "BACKENDS",
    "BackendAvailability",
    "RunContext",
    "UnknownBackendError",
    "availability_snapshot",
    "backend_availability",
    "backend_names",
    "dispatch",
    "first_rung",
    "validate_backend",
]


class UnknownBackendError(ValueError):
    """A ``backend=`` name not present in the registry."""


#: name -> one-line description, in increasing order of specialization
BACKENDS: "OrderedDict[str, str]" = OrderedDict((
    ("scalar", "per-element reference templates (paper §2.9/§2.10)"),
    ("vector", "NumPy segment executor (batched messages)"),
    ("overlap", "vector + interior compute while messages are in flight"),
    ("fused", "compile-once fused node kernels, in-process"),
    ("native", "numba-njit compiled node kernels (falls back to fused "
               "when numba is absent)"),
    ("mp", "multi-process runtime: fused kernels on real OS processes"),
    ("mpi", "multi-node SPMD under mpiexec: nonblocking point-to-point "
            "messages over a Cartesian process grid (falls back to "
            "fused when mpi4py is absent)"),
))


class BackendAvailability(NamedTuple):
    """One backend's probed availability."""

    backend: str
    available: bool
    mode: str       # "builtin" | the probe's mode ("njit", "stub", ...)
    reason: str     # one-line availability note (the fallback message)


def backend_availability(backend: str) -> BackendAvailability:
    """Probe whether *backend* can actually run in this process.

    In-process backends are always available ("builtin"); optional-
    dependency backends delegate to their cached probe.  The ``reason``
    string is what :func:`dispatch` puts on the trace when falling back.
    """
    if backend == "native":
        from .pipeline.native import native_support

        s = native_support()
        return BackendAvailability("native", s.available, s.mode, s.reason)
    if backend == "mpi":
        from .mpi.support import mpi_support

        s = mpi_support()
        return BackendAvailability("mpi", s.available, s.mode, s.reason)
    validate_backend(backend)
    return BackendAvailability(backend, True, "builtin",
                               "always available (in-process)")


def availability_snapshot() -> "OrderedDict[str, dict]":
    """Every backend's availability as plain dicts (benchmark metadata,
    ``repro calibrate`` output)."""
    return OrderedDict(
        (name, backend_availability(name)._asdict()) for name in BACKENDS)


def backend_names() -> tuple:
    """The valid backend names."""
    return tuple(BACKENDS)


def validate_backend(backend: str, context: Optional[str] = None) -> str:
    """Return *backend* if known; raise otherwise.

    The exception message is a single line naming the valid choices —
    callers surface it verbatim (the CLI turns it into ``error: ...``).
    """
    if backend in BACKENDS:
        return backend
    where = f" for {context}" if context else ""
    raise UnknownBackendError(
        f"unknown backend {backend!r}{where}; valid backends: "
        + ", ".join(BACKENDS)
    )


# ---------------------------------------------------------------------------
# the fallback ladder
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    """Everything a rung needs to refuse or run one compiled clause.

    *machine* is the shared machine (always present) or, on the
    distributed flavor, a pre-placed machine the caller supplied (or
    ``None``).  *where* names the runner in validation errors."""

    ir: object
    env: Dict[str, object]
    machine: object
    distributed: bool
    seq: bool
    replicated: bool
    where: str
    trace: object = None
    strict: bool = False
    model: object = None
    processes: Optional[int] = None
    timeout: Optional[float] = None

    @classmethod
    def of(cls, plan, env, machine, where: str, *, distributed: bool,
           **opts) -> "RunContext":
        """The context of a compiled plan (1-D or N-D, either flavor)."""
        from .core.clause import Ordering

        return cls(ir=getattr(plan, "ir", None), env=env, machine=machine,
                   distributed=distributed,
                   seq=plan.clause.ordering is Ordering.SEQ,
                   replicated=getattr(plan, "write_replicated", False),
                   where=where, trace=getattr(plan, "trace", None), **opts)


def _structural(ctx: RunContext) -> Optional[str]:
    """Refusals shared by every in-process rung."""
    if ctx.ir is None:
        return "plan carries no IR"
    if ctx.seq:
        return "sequential (•) clause is a serial chain"
    if ctx.distributed and ctx.replicated:
        return "replicated write (per-copy broadcast)"
    return None


def _process_refusal(runtime: str):
    """The mp/mpi refusal: they own their placement and lower the plan
    themselves (a • clause is refused by the lowering)."""
    def refuse(ctx: RunContext) -> Optional[str]:
        if ctx.ir is None:
            return "plan carries no IR"
        if ctx.distributed and ctx.machine is not None:
            return (f"a pre-placed machine was supplied; the {runtime} "
                    "owns its own placement")
        if ctx.distributed and ctx.replicated:
            return "replicated write (per-copy broadcast)"
        return None
    return refuse


def _refuse_fused(ctx: RunContext) -> Optional[str]:
    why = _structural(ctx)
    if why is not None:
        return why
    k = getattr(ctx.ir, "kernels", None)
    if k is not None and (k.dist if ctx.distributed else k.shared) is not None:
        return None
    if ctx.strict:  # a fallback never swallows strict gating
        from .machine.fused import check_strict

        check_strict(ctx.ir, True)
    if k is None:
        return "no fused kernels on the plan"
    return (k.dist_note if ctx.distributed else k.shared_note) \
        or "no kernels for this flavor"


def _run_mpi(ctx: RunContext):
    from .mpi.exec import run_distributed_mpi, run_shared_mpi

    if ctx.distributed:
        return run_distributed_mpi(ctx.ir, ctx.env, strict=ctx.strict,
                                   processes=ctx.processes,
                                   timeout=ctx.timeout)
    return run_shared_mpi(ctx.ir, ctx.env, ctx.machine, strict=ctx.strict,
                          processes=ctx.processes, timeout=ctx.timeout)


def _run_mp(ctx: RunContext):
    from .runtime import run_distributed_mp, run_shared_mp

    if ctx.distributed:
        return run_distributed_mp(ctx.ir, ctx.env, strict=ctx.strict,
                                  processes=ctx.processes,
                                  timeout=ctx.timeout)
    return run_shared_mp(ctx.ir, ctx.env, ctx.machine, strict=ctx.strict,
                         processes=ctx.processes, timeout=ctx.timeout)


def _run_native(ctx: RunContext):
    from .machine.native import run_distributed_native, run_shared_native

    if ctx.distributed:
        return run_distributed_native(ctx.ir, ctx.env, ctx.machine,
                                      model=ctx.model, strict=ctx.strict)
    return run_shared_native(ctx.ir, ctx.env, ctx.machine,
                             strict=ctx.strict)


def _run_fused(ctx: RunContext):
    from .machine.fused import run_distributed_fused, run_shared_fused

    if ctx.distributed:
        return run_distributed_fused(ctx.ir, ctx.env, ctx.machine,
                                     model=ctx.model, strict=ctx.strict)
    return run_shared_fused(ctx.ir, ctx.env, ctx.machine, strict=ctx.strict)


def _run_vector(ctx: RunContext):
    from .machine.vectorize import run_distributed_vector, run_shared_vector

    if ctx.distributed:
        return run_distributed_vector(ctx.ir, ctx.env, ctx.machine,
                                      model=ctx.model)
    return run_shared_vector(ctx.ir, ctx.env, ctx.machine)


def _run_overlap(ctx: RunContext):
    from .machine.vectorize import run_distributed_overlap

    return run_distributed_overlap(ctx.ir, ctx.env, ctx.machine,
                                   model=ctx.model)


def _mpi_unavailable() -> Optional[str]:
    av = backend_availability("mpi")
    return None if av.available else av.reason


def _mpi_refusals():
    from .mpi.exec import MpiUnavailableError
    from .runtime import MpLoweringError

    return (MpLoweringError, MpiUnavailableError)


def _mp_refusals():
    from .runtime import MpLoweringError

    return (MpLoweringError,)


def _native_refusals():
    from .pipeline.native import NativeBuildError

    return (NativeBuildError,)


def _never() -> Optional[str]:
    return None


def _no_refusals():
    return ()


class _Rung(NamedTuple):
    fallback: str
    refuse: Callable[[RunContext], Optional[str]]
    run: Callable[[RunContext], object]
    #: exception types the executor raises to refuse (reason in args[0])
    refusals: Callable[[], tuple] = _no_refusals
    #: availability probe: the reason the backend cannot run here
    unavailable: Callable[[], Optional[str]] = _never


#: the ladder: every non-scalar backend's refusal, executor and fallback
_RUNGS: Dict[str, _Rung] = {
    "mpi": _Rung("fused", _process_refusal("MPI backend"), _run_mpi,
                 _mpi_refusals, _mpi_unavailable),
    "mp": _Rung("fused", _process_refusal("mp runtime"), _run_mp,
                _mp_refusals),
    "native": _Rung("fused", _structural, _run_native, _native_refusals),
    "fused": _Rung("vector", _refuse_fused, _run_fused),
    "vector": _Rung("scalar", _structural, _run_vector),
    "overlap": _Rung("scalar", _structural, _run_overlap),
}


def _fall_back(name: str, why: str, trace) -> str:
    nxt = _RUNGS[name].fallback
    if trace is not None:
        trace.note(f"backend={name!r} fell back to the {nxt} path: {why}")
    return nxt


def first_rung(backend: str, where: str, trace=None,
               distributed: bool = False) -> str:
    """Validate *backend* and return the rung to try first: ``overlap``
    runs as ``vector`` on shared memory (there is no communication to
    hide) and an unavailable backend steps down, one note each."""
    validate_backend(backend, context=where)
    if backend == "overlap" and not distributed:
        if trace is not None:
            trace.note("backend='overlap' on shared memory: no messages "
                       "to overlap; running the vector backend")
        backend = "vector"
    while backend != "scalar":
        why = _RUNGS[backend].unavailable()
        if why is None:
            break
        backend = _fall_back(backend, why, trace)
    return backend


def dispatch(backend: str, ctx: RunContext, scalar: Callable[[], object]):
    """Run one compiled clause on the first rung of the ladder that
    accepts it, starting at *backend*; ``scalar()`` (the caller's
    §2.9/§2.10 template) runs when every rung refuses.  Distributed
    deadlocks carry the static verifier's verdict."""
    if not ctx.distributed:
        return _walk(backend, ctx, scalar)
    from .analysis import annotate_deadlock
    from .machine.scheduler import DeadlockError

    try:
        return _walk(backend, ctx, scalar)
    except DeadlockError as err:
        annotate_deadlock(err, ctx.ir)
        raise


def _walk(backend: str, ctx: RunContext, scalar: Callable[[], object]):
    name = first_rung(backend, ctx.where, ctx.trace, ctx.distributed)
    while name != "scalar":
        rung = _RUNGS[name]
        why = rung.refuse(ctx)
        if why is None:
            try:
                return rung.run(ctx)
            except rung.refusals() as err:  # evaluated only on a raise
                why = str(err)
        name = _fall_back(name, why, ctx.trace)
    return scalar()
