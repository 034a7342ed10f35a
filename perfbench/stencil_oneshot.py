"""Workload ``stencil-oneshot``: one ``repro run``-shaped job per op.

An op places fresh seeded inputs, executes and collects the E13 1-D
3-point stencil (``Block`` on P = 4) and then the E19 2-D five-point
stencil (2x2 ``Block`` grid, P = 4) on the in-process ``fused``
backend, against warm compile caches.  Per-element placement and
collection dominate this job; it skips compile and mp.

Untraced, an op makes the user-facing calls (``run_distributed`` /
``run_distributed_nd`` then ``collect``).  Traced, it makes the same
public calls the user-facing ones make — place, execute on the placed
machine, collect — and times each.
"""

from __future__ import annotations

import time

import numpy as np
import oracle
from harness import Tracer, busy_ms, median, self_peak_mb

from repro.codegen import (
    collect_nd,
    compile_clause,
    compile_clause_nd_dist,
    run_distributed,
    run_distributed_nd,
)
from repro.decomp import Block, GridDecomposition
from repro.frontend import translate_source
from repro.machine import DistributedMachine
from repro.machine.ndmemory import scatter_global_nd
from repro.pipeline import compile_plan, kernel_cache_info

P = 4
SIZES = {"full": (1 << 15, 128), "tiny": (256, 16)}


def _src_1d(n: int) -> str:
    return (f"for i := 1 to {n - 2} par do\n"
            f"    A[i] := B[i - 1] + B[i] + B[i + 1];\n"
            f"od;\n")


def _src_2d(n: int) -> str:
    return (f"for i := 1 to {n - 2} par do\n"
            f"  for j := 1 to {n - 2} par do\n"
            f"    T[i, j] := (S[i - 1, j] + S[i + 1, j]"
            f" + (S[i, j - 1] + S[i, j + 1])) / 4;\n"
            f"  od\n"
            f"od;\n")


class StencilOneshot:
    name = "stencil-oneshot"
    parallel_parts = ()

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n1, self.n2 = SIZES[size]
        self.counts = None  # machine counters of the first op
        self.pass_ms = {}
        self.kernel_cache_bytes = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self, tracer: Tracer) -> None:
        n1, n2 = self.n1, self.n2
        self.dec1 = Block(n1, P)
        self.grid = GridDecomposition([Block(n2, 2), Block(n2, 2)])
        decomps1 = {"A": self.dec1, "B": self.dec1}
        decomps2 = {"T": self.grid, "S": self.grid}
        with tracer.span("frontend.translate"):
            (c1,) = translate_source(_src_1d(n1)).clauses
        with tracer.span("frontend.translate"):
            (c2,) = translate_source(_src_2d(n2)).clauses
        for clause, decomps in ((c1, decomps1), (c2, decomps2)):
            with tracer.span("pipeline.compile_plan"):
                ir = compile_plan(clause, decomps)
            for rec in ir.trace.records:
                self.pass_ms[rec.name] = self.pass_ms.get(rec.name, 0.0) + rec.wall_ms
        # plan-cache hits: the projections run_distributed(_nd) consumes
        self.plan1 = compile_clause(c1, decomps1)
        self.plan2 = compile_clause_nd_dist(c2, decomps2)
        self.kernel_cache_bytes = kernel_cache_info()["bytes"]
        problem = self.op(-1, None)[0]
        if problem:
            raise RuntimeError(f"warm-up op failed: {problem}")

    # -- one op ---------------------------------------------------------------

    def inputs(self, k: int):
        rng = np.random.default_rng([self.seed, k + 1])
        n1, n2 = self.n1, self.n2
        return (rng.random(n1), rng.random(n1),
                rng.random((n2, n2)), rng.random((n2, n2)))

    def op(self, k: int, tracer):
        """Run op *k*: ``(problem or None, kind, seconds, parts)``.
        *tracer* None makes the user-facing calls, untimed by layer."""
        a0, b, t0, s = self.inputs(k)
        env1 = {"A": a0.copy(), "B": b}
        env2 = {"S": s, "T": t0.copy()}
        start = time.perf_counter()
        if tracer is None:
            m1 = run_distributed(self.plan1, env1, backend="fused")
            a = m1.collect("A")
            m2 = run_distributed_nd(self.plan2, env2, backend="fused")
            t = collect_nd(m2, "T")
        else:
            with tracer.span("op", op=k):
                m1 = DistributedMachine(P)
                with tracer.span("machine.place.1d"):
                    m1.place("A", env1["A"], self.dec1)
                    m1.place("B", env1["B"], self.dec1)
                with tracer.span("machine.exec.1d"):
                    run_distributed(self.plan1, env1, machine=m1, backend="fused")
                with tracer.span("machine.collect.1d"):
                    a = m1.collect("A")
                m2 = DistributedMachine(P)
                with tracer.span("machine.place.2d"):
                    for name in ("T", "S"):
                        scatter_global_nd(name, env2[name], self.grid, m2.memories)
                        m2.decomps[name] = self.grid
                with tracer.span("machine.exec.2d"):
                    run_distributed_nd(self.plan2, env2, machine=m2, backend="fused")
                with tracer.span("machine.collect.2d"):
                    t = collect_nd(m2, "T")
        seconds = time.perf_counter() - start
        return self.check(k, a0, b, t0, s, a, t, (m1, m2)), "op", seconds, {}

    def check(self, k, a0, b, t0, s, a, t, machines):
        for plan in (self.plan1, self.plan2):
            fell = [n for n in plan.trace.notes if "fell back" in n]
            if fell:
                return f"op {k}: fused did not run: {fell[0]}"
        problem = (oracle.mismatch("A (1-D stencil)", a, oracle.stencil_1d(a0, b))
                   or oracle.mismatch("T (2-D stencil)", t, oracle.stencil_2d(t0, s)))
        if problem:
            return f"op {k}: {problem}"
        counts = tuple(sum(int(getattr(m.stats, f)()) for m in machines)
                       for f in ("total_messages", "total_elements_moved",
                                 "total_updates"))
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            return f"op {k}: machine counts {counts} != first op's {self.counts}"
        return None

    # -- metrics --------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return self_peak_mb()

    def sub_metrics(self, report, ops) -> None:
        """Workload-specific end-to-end detail from untraced ops (none)."""

    def layer_metrics(self, report, tracer: Tracer, ops) -> None:
        by_op = tracer.by_op()
        per_op = [by_op[op.k] for op in ops if op.k in by_op]
        for dim in ("1d", "2d"):
            for what in ("place", "exec", "collect"):
                report.put(f"machine.{what}_ms.{dim}",
                           median([busy_ms(sp, f"machine.{what}.{dim}") for sp in per_op]),
                           "ms")
        for name, value in zip(("machine.messages", "machine.elements_sent",
                                "machine.local_updates"), self.counts or (0, 0, 0)):
            report.put(name, value, "count")
        covered = [sum(s.ms for s in sp if s.name.startswith("machine."))
                   / max(busy_ms(sp, "op"), 1e-9) for sp in per_op]
        report.put("trace.coverage_pct", 100.0 * median(covered), "%")
        report.put("pipeline.kernel_cache_bytes", self.kernel_cache_bytes, "bytes")

    def close(self, report=None) -> None:
        pass
