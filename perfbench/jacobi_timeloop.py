"""Workload ``jacobi-timeloop``: pipelined time loops through the
program layer.

An op is one pipelined Jacobi loop (E19 five-point stencil, ``repeat``
+ ``swap`` S:T, 2x1 ``Block`` grid, P = 2) through
``compile_program``/``run_program``, run once on ``fused`` and once on
``mp`` with 2 workers from the same seeded input.  Placement happens
once per loop and the compile is cached, so the time goes to the
per-step schedule.  The traced run reads the ``RuntimeStats`` each mp
run returns; it adds no spans inside an op.
"""

from __future__ import annotations

import time

import numpy as np
import oracle
from harness import Tracer, median, self_peak_mb, vm_hwm_mb

from repro.analysis import verify_program
from repro.decomp import Block, GridDecomposition
from repro.frontend import translate_source
from repro.pipeline import compile_plan, compile_program, kernel_cache_info, run_program
from repro.runtime import get_pool, shutdown_runtime

P = 2
SIZES = {"full": (96, 100), "tiny": (12, 4)}


def _source(n: int) -> str:
    return (f"for i := 1 to {n - 2} par do\n"
            f"  for j := 1 to {n - 2} par do\n"
            f"    T[i, j] := (S[i - 1, j] + S[i + 1, j]"
            f" + (S[i, j - 1] + S[i, j + 1])) / 4;\n"
            f"  od\n"
            f"od;\n")


class JacobiTimeloop:
    name = "jacobi-timeloop"
    #: parts of an op timed with two processes busy (``HostSpeed``)
    parallel_parts = ("mp",)

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n, self.steps = SIZES[size]
        self.pass_ms = {}
        self.kernel_cache_bytes = 0
        self.pool_spawn_ms = 0.0
        self.worker_pids = set()
        self.counts = None  # (messages, bytes) per step of the first op
        self.stats = []     # per op: (kernel, barrier, worker, parent) ms

    # -- set-up ---------------------------------------------------------------

    def setup(self, tracer: Tracer) -> None:
        n = self.n
        grid = GridDecomposition([Block(n, 2), Block(n, 1)])
        decomps = {"S": grid, "T": grid}
        with tracer.span("frontend.translate"):
            program = translate_source(_source(n))
        with tracer.span("pipeline.compile_plan"):
            ir = compile_plan(program.clauses[0], decomps)
        for rec in ir.trace.records:
            self.pass_ms[rec.name] = self.pass_ms.get(rec.name, 0.0) + rec.wall_ms
        with tracer.span("pipeline.compile_program"):
            self.pir = compile_program(program, decomps, repeat=self.steps,
                                       swap=[("S", "T")], verify=True)
        with tracer.span("analysis.verify_program"):
            verification = verify_program(self.pir)
        if not verification.ok:
            raise RuntimeError(f"program verification failed: {verification}")
        if not self.pir.pipelined:
            raise RuntimeError(f"time loop not pipelined: {self.pir.pipeline_reason}")
        self.kernel_cache_bytes = kernel_cache_info()["bytes"]
        t0 = time.perf_counter()
        get_pool(P)
        self.pool_spawn_ms = (time.perf_counter() - t0) * 1e3
        problem = self.op(-1, None)[0]
        if problem:
            raise RuntimeError(f"warm-up op failed: {problem}")

    # -- one op ---------------------------------------------------------------

    def inputs(self, k: int):
        rng = np.random.default_rng([self.seed, k + 1])
        return rng.random((self.n, self.n)), np.zeros((self.n, self.n))

    def op(self, k: int, tracer):
        """Run the loop on fused then mp: ``(problem or None, kind,
        seconds, parts)``, *parts* timed around each ``run_program``."""
        s0, t0 = self.inputs(k)
        parts, results = {}, {}
        for backend in ("fused", "mp"):
            # run_program writes through the env arrays: pass copies
            env = {"S": s0.copy(), "T": t0.copy()}
            start = time.perf_counter()
            machine, _ = run_program(self.pir, env, backend=backend, processes=P)
            parts[backend] = time.perf_counter() - start
            results[backend] = machine
        return self.check(k, s0, t0, results, parts), "op", sum(parts.values()), parts

    def check(self, k, s0, t0, results, parts):
        fell = [n for n in self.pir.trace.notes
                if "fell back" in n or "unavailable" in n]
        if fell:
            return f"op {k}: a tier did not run: {fell[0]}"
        want_s, want_t = oracle.jacobi_loop(s0, t0, self.steps)
        for backend, machine in results.items():
            problem = (oracle.mismatch(f"S ({backend})", machine.env["S"], want_s)
                       or oracle.mismatch(f"T ({backend})", machine.env["T"], want_t))
            if problem:
                return f"op {k}: {problem}"
        rstats = getattr(results["mp"], "runtime_stats", [])
        pids = {s.pid for s in rstats}
        if len(pids) != P:
            return f"op {k}: mp run reported worker pids {sorted(pids)}, expected {P}"
        self.worker_pids |= pids
        counts = (sum(s.send_count for s in rstats) / self.steps,
                  sum(s.send_bytes for s in rstats) / self.steps)
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            return f"op {k}: runtime counts {counts} != first op's {self.counts}"
        worker_ms = max(s.total_s for s in rstats) * 1e3
        self.stats.append((max(s.kernel_s for s in rstats) * 1e3,
                           max(s.barrier_s for s in rstats) * 1e3,
                           worker_ms,
                           parts["mp"] * 1e3 - worker_ms))
        return None

    # -- metrics --------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return self_peak_mb() + sum(vm_hwm_mb(pid) for pid in get_pool(P).pids())

    def sub_metrics(self, report, ops) -> None:
        report.put("steps_per_s.fused",
                   self.steps / median([op.parts["fused"] * op.factor for op in ops]), "1/s")
        report.put("steps_per_s.mp",
                   self.steps / median([op.parts["mp"] * op.pfactor for op in ops]), "1/s")

    def layer_metrics(self, report, tracer: Tracer, ops) -> None:
        traced = self.stats[-len(ops):]
        for i, name in enumerate(("kernel_ms", "barrier_ms", "worker_ms", "parent_ms")):
            report.put(f"runtime.{name}", median([row[i] for row in traced]), "ms")
        report.put("runtime.messages_per_step", self.counts[0], "count")
        report.put("runtime.bytes_per_step", self.counts[1], "bytes")
        report.put("runtime.pool_spawn_ms", self.pool_spawn_ms, "ms")
        report.put("pipeline.kernel_cache_bytes", self.kernel_cache_bytes, "bytes")
        # an op is the two run_program calls; the worker share of the mp one
        covered = [row[2] / (op.parts["mp"] * 1e3) for row, op in zip(traced, ops)]
        report.put("trace.coverage_pct", 100.0 * median(covered), "%")

    def close(self, report=None) -> None:
        shutdown_runtime()
