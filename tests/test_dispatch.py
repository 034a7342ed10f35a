"""The backend dispatch table (``repro.backends.dispatch``).

One parametrized matrix over runner x requested backend x refusal cause:
for each case, which executor actually ran, the exact ordered trace
notes (one per skipped rung) and bit-identity with the sequential
evaluator.  Where mpi4py or numba is installed the "available" branch of
a rung runs and its refusal comes from the executor itself; the expected
notes account for that, so the matrix holds in every environment.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.machine.fused as fused_mod
import repro.machine.native as native_mod
import repro.machine.vectorize as vectorize_mod
import repro.mpi.exec as mpi_mod
import repro.runtime as runtime_mod
from repro.backends import backend_availability
from repro.codegen import compile_clause, run_distributed, run_shared
from repro.codegen.nddist import (
    collect_nd,
    compile_clause_nd_dist,
    run_distributed_nd,
)
from repro.codegen.ndplan import compile_clause_nd, run_shared_nd
from repro.core import (
    SEQ,
    AffineF,
    Bounds,
    Clause,
    IdentityF,
    IndexSet,
    Ref,
    SeparableMap,
    copy_env,
    evaluate_clause,
)
from repro.decomp import Block, GridDecomposition, Replicated
from repro.machine import DistributedMachine
from repro.machine.ndmemory import scatter_global_nd
from repro.pipeline import clear_plan_cache

N, P = 24, 4          # 1-D: Block over 4 nodes
NI, NJ = 8, 6         # 2-D: 2x2 grid of Blocks

SEQ_WHY = "sequential (•) clause is a serial chain"
SEQ_LOWER = SEQ_WHY + "; scalar path kept"
REPL = "replicated write (per-copy broadcast)"
NOKERN = "no fused kernels on the plan"
NOKERN_LOWER = "plan carries no fused kernels (lower-kernels fallback)"
PRE_MP = ("a pre-placed machine was supplied; the mp runtime owns its "
          "own placement")
PRE_MPI = ("a pre-placed machine was supplied; the MPI backend owns its "
           "own placement")
NO_NATIVE = "disabled by REPRO_NO_NATIVE"
NO_MPI = "disabled by REPRO_NO_MPI"
ALIAS = ("backend='overlap' on shared memory: no messages to overlap; "
         "running the vector backend")


def fb(name, nxt, why):
    return f"backend={name!r} fell back to the {nxt} path: {why}"


def mpi_first(why):
    """The mpi rung's note: its availability probe speaks first."""
    av = backend_availability("mpi")
    return fb("mpi", "fused", why if av.available else av.reason)


# ---------------------------------------------------------------------------
# clauses and runners
# ---------------------------------------------------------------------------

def id1():
    return SeparableMap([IdentityF()])


def clause_1d(seq=False):
    if seq:  # A[i] := A[i-1] + B[i], a serial chain
        return Clause(IndexSet(Bounds((1,), (N - 1,))), Ref("A", id1()),
                      Ref("A", SeparableMap([AffineF(1, -1)]))
                      + Ref("B", id1()), ordering=SEQ)
    return Clause(IndexSet(Bounds((1,), (N - 2,))), Ref("A", id1()),
                  Ref("B", SeparableMap([AffineF(1, -1)]))
                  + Ref("B", SeparableMap([AffineF(1, 1)])))


def id2():
    return SeparableMap([IdentityF(), IdentityF()])


def clause_2d(seq=False):
    if seq:  # T[i,j] := T[i,j-1] * 2 + S[i,j], a serial chain
        return Clause(IndexSet(Bounds((0, 1), (NI - 1, NJ - 1))),
                      Ref("T", id2()),
                      Ref("T", SeparableMap([IdentityF(), AffineF(1, -1)]))
                      * 2 + Ref("S", id2()), ordering=SEQ)
    return Clause(IndexSet(Bounds((0, 0), (NI - 1, NJ - 2))),
                  Ref("T", id2()),
                  Ref("S", SeparableMap([IdentityF(), AffineF(1, 1)])) * 2)


def grid():
    return GridDecomposition([Block(NI, 2), Block(NJ, 2)])


def env_1d():
    rng = np.random.default_rng(3)
    return {"A": rng.random(N), "B": rng.random(N)}


def env_2d():
    rng = np.random.default_rng(3)
    return {"S": rng.random((NI, NJ)), "T": rng.random((NI, NJ))}


def preplace(env, decomps, pmax):
    m = DistributedMachine(pmax)
    for name, dec in decomps.items():
        if isinstance(dec, GridDecomposition):
            scatter_global_nd(name, np.asarray(env[name], dtype=np.float64),
                              dec, m.memories)
            m.decomps[name] = dec
        else:
            m.place(name, env[name], dec)
    return m


def setup(runner, cause):
    """(clause, plan, env0, decomps, write name) for one case."""
    seq = cause == "seq"
    if runner in ("run_shared", "run_distributed"):
        cl, env0, w = clause_1d(seq), env_1d(), "A"
        decomps = {"A": Replicated(N, P) if cause == "replicated"
                   else Block(N, P), "B": Block(N, P)}
        plan = compile_clause(cl, decomps)
    else:
        cl, env0, w = clause_2d(seq), env_2d(), "T"
        decomps = {"T": grid(), "S": grid()}
        compile_nd = (compile_clause_nd if runner == "run_shared_nd"
                      else compile_clause_nd_dist)
        plan = compile_nd(cl, decomps)
    if cause == "no_kernels":
        plan.ir.kernels = None
    return cl, plan, env0, decomps, w


def execute(runner, cause, plan, env, decomps, backend, w):
    """Run one case; return the post-state of the written array."""
    if runner == "run_shared":
        return run_shared(plan, env, backend=backend).env[w]
    if runner == "run_shared_nd":
        return run_shared_nd(plan, env, backend=backend).env[w]
    machine = (preplace(env, decomps, plan.pmax) if cause == "preplaced"
               else None)
    if runner == "run_distributed":
        return run_distributed(plan, env, machine,
                               backend=backend).collect(w)
    return collect_nd(run_distributed_nd(plan, env, machine,
                                         backend=backend), w)


# ---------------------------------------------------------------------------
# the expected table: (executor that ran, ordered notes)
# ---------------------------------------------------------------------------

SHARED = ("run_shared", "run_shared_nd")
DIST = ("run_distributed", "run_distributed_nd")
ALL = SHARED + DIST


def expected(runner, backend, cause):
    shared = runner in SHARED
    if cause == "none":
        if backend == "overlap" and shared:
            return "vector", [ALIAS]
        return backend, []
    if cause in ("seq", "replicated"):
        why = SEQ_WHY if cause == "seq" else REPL
        lower = SEQ_LOWER if cause == "seq" else REPL
        tail = [fb("fused", "vector", why), fb("vector", "scalar", why)]
        return "scalar", {
            "vector": tail[1:],
            "overlap": ([ALIAS] + tail[1:] if shared
                        else [fb("overlap", "scalar", why)]),
            "fused": tail,
            "native": [fb("native", "fused", why)] + tail,
            "mp": [fb("mp", "fused", lower)] + tail,
            "mpi": [mpi_first(lower)] + tail,
        }[backend]
    if cause == "preplaced":
        return "fused", {"mp": [fb("mp", "fused", PRE_MP)],
                         "mpi": [mpi_first(PRE_MPI)]}[backend]
    if cause == "no_native":
        return "fused", [fb("native", "fused", NO_NATIVE)]
    if cause == "no_mpi":
        return "fused", [fb("mpi", "fused", NO_MPI)]
    assert cause == "no_kernels"
    tail = [fb("fused", "vector", NOKERN)]
    return "vector", {
        "fused": tail,
        "native": [fb("native", "fused", NOKERN_LOWER)] + tail,
        "mp": [fb("mp", "fused", NOKERN_LOWER)] + tail,
        "mpi": [mpi_first(NOKERN_LOWER)] + tail,
    }[backend]


CASES = (
    [(r, b, "none") for r in ALL for b in ("vector", "overlap", "fused")]
    + [(r, b, "seq") for r in SHARED
       for b in ("vector", "overlap", "fused", "native", "mp", "mpi")]
    + [("run_distributed", b, "replicated")
       for b in ("vector", "overlap", "fused", "native", "mp", "mpi")]
    + [(r, b, "preplaced") for r in DIST for b in ("mp", "mpi")]
    + [(r, "native", "no_native") for r in ALL]
    + [(r, "mpi", "no_mpi") for r in ALL]
    + [(r, b, "no_kernels") for r in ALL
       for b in ("fused", "native", "mp", "mpi")]
)

#: (module, function, executor label) of every IR-level executor
EXECUTORS = [
    (mpi_mod, "run_shared_mpi", "mpi"),
    (mpi_mod, "run_distributed_mpi", "mpi"),
    (runtime_mod, "run_shared_mp", "mp"),
    (runtime_mod, "run_distributed_mp", "mp"),
    (native_mod, "run_shared_native", "native"),
    (native_mod, "run_distributed_native", "native"),
    (fused_mod, "run_shared_fused", "fused"),
    (fused_mod, "run_distributed_fused", "fused"),
    (vectorize_mod, "run_shared_vector", "vector"),
    (vectorize_mod, "run_distributed_vector", "vector"),
    (vectorize_mod, "run_distributed_overlap", "overlap"),
]


def spy(orig, label, done):
    def wrapper(*args, **kwargs):
        out = orig(*args, **kwargs)
        done.append(label)
        return out
    return wrapper


@pytest.fixture
def ran(monkeypatch):
    """Labels of the executors that returned (refusals raise)."""
    done = []
    for mod, fn, label in EXECUTORS:
        monkeypatch.setattr(mod, fn, spy(getattr(mod, fn), label, done))
    return done


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def cause_env(request):
    """Activate the availability fixture a cause names."""
    cause = request.param
    if cause in ("no_native", "no_mpi"):
        request.getfixturevalue(cause)
    return cause


@pytest.mark.parametrize(
    "runner,backend,cause_env", CASES, indirect=["cause_env"],
    ids=[f"{r}-{b}-{c}" for r, b, c in CASES])
def test_dispatch_matrix(runner, backend, cause_env, ran):
    cause = cause_env
    cl, plan, env0, decomps, w = setup(runner, cause)
    want_executor, want_notes = expected(runner, backend, cause)
    n0 = len(plan.trace.notes)

    got = execute(runner, cause, plan, copy_env(env0), decomps, backend, w)

    assert ran == ([] if want_executor == "scalar" else [want_executor])
    assert plan.trace.notes[n0:] == want_notes
    ref = evaluate_clause(cl, copy_env(env0))[w]
    assert np.array_equal(got, ref)


def test_ladder_lives_in_backends_only():
    """No runner writes its own fallback note: the ladder is
    ``repro.backends.dispatch`` and nothing else."""
    codegen = Path(__file__).resolve().parents[1] / "src" / "repro" / "codegen"
    offenders = [p.name for p in sorted(codegen.glob("*.py"))
                 if "fell back" in p.read_text(encoding="utf-8")]
    assert offenders == []
