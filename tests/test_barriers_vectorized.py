"""The §2.9 barrier decision on closed-form vectors against the
per-element oracle.

``barrier_removable`` / ``has_cross_processor_overlap`` decide from NumPy
vectors: the element every iteration writes and reads and the processor
that runs it.  The decision they replaced lives on here as the oracle:
``clause_access_maps`` enumerates the access maps one element at a time
and ``oracle_phase_conflict`` walks them.  On every generated clause pair
both must give the same bool, or raise the same exception type.

The second half guards the compile cost: deciding a barrier compiles
nothing, so a clause compiled with its successor is one plan-cache miss
and one kernel set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import certified_independent
from repro.codegen.barriers import (
    AccessMaps,
    barrier_removable,
    clause_access_maps,
    has_cross_processor_overlap,
)
from repro.core import (
    PAR,
    SEQ,
    AffineF,
    Bounds,
    Clause,
    ConstantF,
    GeneralMap,
    IndexSet,
    ModularF,
    Ref,
    SeparableMap,
)
from repro.decomp import (
    Block,
    BlockScatter,
    OverlappedBlock,
    Replicated,
    Scatter,
    SingleOwner,
)
from repro.frontend.translate import translate_source
from repro.pipeline import clear_plan_cache, compile_plan, plan_cache_info
from repro.pipeline.kernels import kernel_cache_info


@pytest.fixture(autouse=True, scope="module")
def _fresh_caches():
    """The oracle compiles hundreds of plans: leave no entry behind."""
    yield
    clear_plan_cache()


# ---------------------------------------------------------------------------
# the per-element oracle (the decision the pass used to make)
# ---------------------------------------------------------------------------

def oracle_overlap(clause, decomps) -> bool:
    if certified_independent(clause, decomps):
        return False
    maps = clause_access_maps(clause, decomps)
    for elem, writers in maps.writes.items():
        if len(writers) > 1:
            return True
        readers = maps.reads.get(elem)
        if readers and readers - writers:
            return True
    return False


def oracle_phase_conflict(m1: AccessMaps, m2: AccessMaps) -> bool:
    """Cross-processor flow (w1 ∩ r2), anti (r1 ∩ w2) or output
    (w1 ∩ w2) dependence between two consecutive clauses."""
    for elem, writers in m1.writes.items():
        for other in (m2.reads.get(elem), m2.writes.get(elem)):
            if other and other - writers:
                return True
    for elem, writers2 in m2.writes.items():
        readers1 = m1.reads.get(elem)
        if readers1 and readers1 - writers2:
            return True
    return False


def oracle_removable(c1, c2, decomps) -> bool:
    if c1.ordering is not PAR or c2.ordering is not PAR:
        return False
    if oracle_overlap(c1, decomps) or oracle_overlap(c2, decomps):
        return False
    return not oracle_phase_conflict(clause_access_maps(c1, decomps),
                                     clause_access_maps(c2, decomps))


def outcome(fn, *args):
    """``("ok", result)`` or ``("raise", exception type)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raise", type(exc)


# ---------------------------------------------------------------------------
# one generator, two drivers: *pick* chooses one option from a sequence
# (a seeded NumPy generator or a hypothesis draw)
# ---------------------------------------------------------------------------

NAMES = ("A", "B", "C")
PMAXES = (1, 2, 3, 4, 5, 8)


def make_dec(pick, n, pmax):
    kind = pick(("block", "scatter", "bs", "replicated", "single"))
    if kind == "block":
        return Block(n, pmax)
    if kind == "scatter":
        return Scatter(n, pmax)
    if kind == "bs":
        return BlockScatter(n, pmax, pick((1, 2, 3, 5)))
    if kind == "replicated":
        return Replicated(n, pmax)
    return SingleOwner(n, pmax, pick(range(pmax)))


def make_func(pick, n):
    kind = pick(("affine", "affine", "affine", "modular", "constant"))
    if kind == "affine":
        # identity-like strides dominate; negative and scaled ones too
        return AffineF(pick((1, 1, 1, -1, 2, -2, 3)), pick(range(-3, 4)))
    if kind == "modular":
        return ModularF(AffineF(pick((1, 2, -1)), pick(range(0, 5))),
                        pick((3, 5, n, n + 1)), pick((0, 0, 1, -1)))
    return ConstantF(pick(range(-1, n + 2)))


def make_ref(pick, n, nonseparable=False):
    name = pick(NAMES)
    if nonseparable:
        return Ref(name, GeneralMap(lambda j: j, "id"))
    return Ref(name, SeparableMap([make_func(pick, n)]))


def make_clause(pick, n, label):
    lo = pick((0, 0, 0, 1, -1, 2))
    hi = pick((n - 1, n - 1, n - 2, n, lo - 1, n // 2))  # lo - 1: empty
    if pick(range(30)) == 0:  # a 2-D clause: refused
        f = SeparableMap([AffineF(1, 0), AffineF(1, 0)])
        return Clause(IndexSet(Bounds((lo, lo), (hi, hi))),
                      Ref(pick(NAMES), f), Ref(pick(NAMES), f) + 1,
                      name=label)
    lhs = Ref(pick(NAMES), SeparableMap([make_func(pick, n)]))
    rhs = make_ref(pick, n, nonseparable=pick(range(30)) == 0)
    for _ in range(pick((0, 0, 1, 2))):
        rhs = rhs + make_ref(pick, n)
    guard = make_ref(pick, n) > 0 if pick(range(4)) == 0 else None
    ordering = SEQ if pick(range(10)) == 0 else PAR
    return Clause(IndexSet.range1d(lo, hi), lhs, rhs, ordering=ordering,
                  guard=guard, name=label)


def make_case(pick):
    n = pick((1, 2, 5, 8, 12, 17, 24))
    pmax = pick(PMAXES)
    decomps = {name: make_dec(pick, n, pmax) for name in NAMES}
    spoil = pick(range(16))
    name = pick(NAMES)
    if spoil == 0:
        del decomps[name]                                  # KeyError
    elif spoil == 1:
        decomps[name] = OverlappedBlock(n, pmax, 1)        # ValueError
    elif spoil == 2:
        other = pick([p for p in PMAXES if p != pmax])
        decomps[name] = make_dec(pick, n, other)           # pmax mismatch
    elif spoil == 3:
        decomps[name] = make_dec(pick, pick((1, n + 3)), pmax)  # other n
    return make_clause(pick, n, "c1"), make_clause(pick, n, "c2"), decomps


def compare(c1, c2, decomps):
    for clause in (c1, c2):
        assert (outcome(has_cross_processor_overlap, clause, decomps)
                == outcome(oracle_overlap, clause, decomps)), clause
    assert (outcome(barrier_removable, c1, c2, decomps)
            == outcome(oracle_removable, c1, c2, decomps)), (c1, c2, decomps)


def rng_pick(rng):
    return lambda options: options[int(rng.integers(len(options)))]


class TestAgainstOracle:
    def test_seeded_pairs(self):
        rng = np.random.default_rng(20260)
        pick = rng_pick(rng)
        for _ in range(300):
            compare(*make_case(pick))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_hypothesis_pairs(self, data):
        compare(*make_case(lambda options: data.draw(
            st.sampled_from(list(options)))))

    def test_generator_reaches_every_verdict(self):
        """The seeded pairs exercise removable, kept (intra-clause and
        phase conflicts) and refused outcomes — a differential test that
        only saw one verdict would prove nothing."""
        rng = np.random.default_rng(20260)
        pick = rng_pick(rng)
        seen = set()
        for _ in range(300):
            c1, c2, decomps = make_case(pick)
            kind, value = outcome(oracle_removable, c1, c2, decomps)
            seen.add(value)
            if kind == "ok" and not value and c1.ordering is PAR \
                    and c2.ordering is PAR:
                intra = (oracle_overlap(c1, decomps)
                         or oracle_overlap(c2, decomps))
                seen.add("intra" if intra else "phase")
        assert {True, False, KeyError, ValueError, "intra",
                "phase"} <= seen


class TestOutOfRange:
    """BND001 accesses: the scalar ``proc`` decides, not the closed form
    (Block's ``i // b`` and its inherited ``(i // b) mod pmax`` differ
    past ``n``)."""

    def test_block_write_past_n(self):
        n, pmax = 8, 4
        decomps = {"A": Block(n, pmax), "B": Block(n, pmax)}
        # c1 writes A[8], A[9] (scalar proc 4, closed form 0); c2 reads
        # them from iterations owned by p0
        c1 = Clause(IndexSet.range1d(0, 9),
                    Ref("A", SeparableMap([AffineF(1, 0)])),
                    Ref("B", SeparableMap([AffineF(1, 0)])) + 1, name="c1")
        c2 = Clause(IndexSet.range1d(0, 1),
                    Ref("B", SeparableMap([AffineF(1, 0)])),
                    Ref("A", SeparableMap([AffineF(1, 8)])) + 1, name="c2")
        assert oracle_removable(c1, c2, decomps) is False
        assert barrier_removable(c1, c2, decomps) is False


# ---------------------------------------------------------------------------
# the kept-barrier note names its witness
# ---------------------------------------------------------------------------

N, PMAX = 24, 4
BLOCKS = {k: Block(N, PMAX) for k in "ABCD"}


def cl(write, read, shift=0, name="c", ordering=PAR):
    return Clause(IndexSet.range1d(1, N - 2),
                  Ref(write, SeparableMap([AffineF(1, 0)])),
                  Ref(read, SeparableMap([AffineF(1, shift)])) + 1,
                  ordering=ordering, name=name)


def barrier_note(c1, c2, decomps=BLOCKS):
    ir = compile_plan(c1, decomps, successor=c2)
    rec = next(r for r in ir.trace.records if r.name == "eliminate-barriers")
    return rec.notes[0]


class TestNote:
    def test_flow(self):
        # c2 reads A[i + 1]: iteration 5 (p0) reads A[6], written on p1
        assert barrier_note(cl("A", "B", name="c1"),
                            cl("C", "A", 1, name="c2")) == \
            "barrier before 'c2' kept: flow A[6] written on p1, read on p0"

    def test_anti(self):
        assert barrier_note(cl("B", "A", 1, name="c1"),
                            cl("A", "C", name="c2")) == \
            "barrier before 'c2' kept: anti A[6] read on p0, written on p1"

    def test_intra(self):
        assert barrier_note(cl("A", "A", 1, name="c1"),
                            cl("C", "D", name="c2")) == \
            "barrier before 'c2' kept: intra-clause overlap in 'c1'"

    def test_seq_ordering(self):
        assert barrier_note(cl("A", "B", name="c1"),
                            cl("C", "A", name="c2", ordering=SEQ)) == \
            "barrier before 'c2' kept: '•' ordering"

    def test_replicated_writer(self):
        decomps = dict(BLOCKS, A=Replicated(N, PMAX))
        c1 = Clause(IndexSet.range1d(0, 0),
                    Ref("B", SeparableMap([AffineF(1, 0)])),
                    Ref("A", SeparableMap([AffineF(1, 6)])) + 1, name="c1")
        c2 = Clause(IndexSet.range1d(0, 0),
                    Ref("A", SeparableMap([AffineF(1, 6)])),
                    Ref("C", SeparableMap([AffineF(1, 0)])) + 1, name="c2")
        assert barrier_note(c1, c2, decomps) == (
            "barrier before 'c2' kept: intra-clause overlap in 'c2'")

    def test_eliminated(self):
        assert barrier_note(cl("A", "B", name="c1"),
                            cl("C", "A", name="c2")) == (
            "barrier before 'c2' eliminated: no cross-processor "
            "write/read overlap")


# ---------------------------------------------------------------------------
# no recompiles: the decision builds no plan and no kernel
# ---------------------------------------------------------------------------

# the serve-mix benchmark's 6-clause chain
CHAIN = """
for i := 1 to n - 2 par do
    B[i] := A[i - 1] + 2 * A[i] + A[i + 1];
od;
for i := 1 to n - 2 par do
    C[i] := B[i - 1] + B[i + 1];
od;
for i := 0 to n - 1 par do
    D[i] := C[i] * C[i] + B[i];
od;
for i := 1 to n - 2 par do
    E[i] := D[i - 1] + D[i + 1] + C[i];
od;
for i := 1 to n - 2 par do
    F[i] := E[i - 1] + 2 * E[i] + E[i + 1];
od;
for i := 0 to n - 1 par do
    G[i] := F[i] + E[i] * D[i];
od;
"""


class TestNoRecompile:
    def test_one_miss_and_one_kernel_set_per_compile(self):
        n = 1237  # an n no other test compiles
        clauses = translate_source(CHAIN, {"n": n}).clauses
        decomps = {x: Block(n, 8) for x in "ABCDEFG"}
        clear_plan_cache()
        flags = []
        for k, clause in enumerate(clauses):
            succ = clauses[k + 1] if k + 1 < len(clauses) else None
            plans, kernels = plan_cache_info(), kernel_cache_info()
            ir = compile_plan(clause, decomps, successor=succ)
            assert plan_cache_info()["misses"] - plans["misses"] == 1, k
            assert kernel_cache_info()["size"] - kernels["size"] == 1, k
            flags.append(ir.barrier_needed)
        assert flags == [True, False, True, True, False, True]
