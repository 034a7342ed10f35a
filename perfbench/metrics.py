"""The benchmark's metric catalogue: every name it prints, its unit, which
way is better, the workloads that measure it and, for a per-layer
metric, the end-to-end metric it should move and on which workload.

``BENCHMARK.json`` at the repository root declares the same names; the
self-test keeps the two in step.  A per-layer metric reads 0 on a
workload that does not exercise it.
"""

from __future__ import annotations

STENCIL, JACOBI, SERVE = "stencil-oneshot", "jacobi-timeloop", "serve-mix"
WORKLOADS = (STENCIL, JACOBI, SERVE)
ALL = WORKLOADS

#: (name, unit, better, bound) — bounded, measured untraced on every workload
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.p90", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

_COMPILE_SIDE = ("req_ms.check_miss.p50 on serve-mix; setup_s on stencil-oneshot "
                 "and jacobi-timeloop; not op_ms.* there")
_PLACEMENT = ("op_ms.* on stencil-oneshot (most of it today); a little of "
              "req_ms.run.p50 on serve-mix; nothing on jacobi-timeloop")
_MP = "steps_per_s.mp and op_ms.* on jacobi-timeloop"

#: (name, unit, better, workloads measuring it, what it should move)
PER_LAYER = [
    # workload-specific end-to-end detail, from the untraced phase
    ("fail_ratio", "ratio", "lower", ALL,
     "every metric: a failed op counts as missing its latency"),
    ("steps_per_s.fused", "1/s", "higher", (JACOBI,), "op_ms.* on jacobi-timeloop"),
    ("steps_per_s.mp", "1/s", "higher", (JACOBI,), "op_ms.* on jacobi-timeloop"),
    ("req_ms.compile_hit.p50", "ms", "lower", (SERVE,), "op_ms.* and ops_per_s on serve-mix"),
    ("req_ms.run.p50", "ms", "lower", (SERVE,), "op_ms.* and ops_per_s on serve-mix"),
    ("req_ms.check_miss.p50", "ms", "lower", (SERVE,), "op_ms.p90 and ops_per_s on serve-mix"),
    # machine
    ("machine.place_ms.1d", "ms", "lower", (STENCIL, SERVE), _PLACEMENT),
    ("machine.place_ms.2d", "ms", "lower", (STENCIL,), _PLACEMENT),
    ("machine.collect_ms.1d", "ms", "lower", (STENCIL, SERVE), _PLACEMENT),
    ("machine.collect_ms.2d", "ms", "lower", (STENCIL,), _PLACEMENT),
    ("machine.exec_ms.1d", "ms", "lower", (STENCIL, SERVE),
     "op_ms.* on stencil-oneshot once placement is vectorized"),
    ("machine.exec_ms.2d", "ms", "lower", (STENCIL,),
     "op_ms.* on stencil-oneshot once placement is vectorized"),
    ("machine.messages", "count", "lower", (STENCIL, SERVE), "op_ms.* on stencil-oneshot"),
    ("machine.elements_sent", "count", "lower", (STENCIL, SERVE), "op_ms.* on stencil-oneshot"),
    ("machine.local_updates", "count", "lower", (STENCIL, SERVE), "op_ms.* on stencil-oneshot"),
    # runtime (mp)
    ("runtime.kernel_ms", "ms", "lower", (JACOBI,), _MP),
    ("runtime.barrier_ms", "ms", "lower", (JACOBI,), _MP),
    ("runtime.worker_ms", "ms", "lower", (JACOBI,), _MP),
    ("runtime.parent_ms", "ms", "lower", (JACOBI,), _MP),
    ("runtime.messages_per_step", "count", "lower", (JACOBI,), _MP),
    ("runtime.bytes_per_step", "bytes", "lower", (JACOBI,), _MP),
    ("runtime.pool_spawn_ms", "ms", "lower", (JACOBI,), "setup_s on jacobi-timeloop"),
    # compile side
    ("frontend.translate_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.compile_plan_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.compile_program_ms", "ms", "lower", (JACOBI, SERVE), _COMPILE_SIDE),
    ("analysis.verify_program_ms", "ms", "lower", (JACOBI, SERVE), _COMPILE_SIDE),
    ("pipeline.pass.substitute-views_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.pass.optimize-membership_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.pass.split-interior_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.pass.insert-halo_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.pass.eliminate-barriers_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.pass.recognize-reduction_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.pass.license-doacross_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.pass.verify-plan_ms", "ms", "lower", (SERVE,), _COMPILE_SIDE),
    ("pipeline.pass.lower-kernels_ms", "ms", "lower", ALL, _COMPILE_SIDE),
    ("pipeline.kernel_cache_bytes", "bytes", "lower", ALL, "peak_rss_mb on every workload"),
    # caches, each ratio with its base
    ("pipeline.plan_cache_hit_ratio", "ratio", "higher", ALL,
     "req_ms.compile_hit.p50 on serve-mix"),
    ("pipeline.plan_cache_lookups", "count", "lower", ALL, "base of the ratio above"),
    ("pipeline.kernel_cache_hit_ratio", "ratio", "higher", ALL,
     "req_ms.compile_hit.p50 on serve-mix"),
    ("pipeline.kernel_cache_lookups", "count", "lower", ALL, "base of the ratio above"),
    ("analysis.verify_cache_hit_ratio", "ratio", "higher", (JACOBI, SERVE),
     "req_ms.compile_hit.p50 on serve-mix"),
    ("analysis.verify_cache_lookups", "count", "lower", (JACOBI, SERVE),
     "base of the ratio above"),
    # serve-side execution and the service itself
    ("codegen.run_distributed_ms", "ms", "lower", (SERVE,), "req_ms.run.p50 on serve-mix"),
    ("core.reference_ms", "ms", "lower", (SERVE,), "req_ms.run.p50 on serve-mix"),
    ("serve.self_ms.compile_hit", "ms", "lower", (SERVE,),
     "req_ms.compile_hit.p50 and ops_per_s on serve-mix"),
    ("serve.self_ms.run", "ms", "lower", (SERVE,), "req_ms.run.p50 and ops_per_s on serve-mix"),
    ("serve.self_ms.check_miss", "ms", "lower", (SERVE,),
     "req_ms.check_miss.p50 and ops_per_s on serve-mix"),
    ("serve.checks_per_check_miss", "ratio", "lower", (SERVE,),
     "req_ms.check_miss.p50 on serve-mix (exact: 1)"),
    # the host and the tracing itself
    ("host.ref_ms", "ms", "lower", ALL,
     "nothing: the reference routine's median time, the host's speed"),
    ("host.par_ref_ms", "ms", "lower", (JACOBI, SERVE),
     "nothing: the two-process reference's median time, the host's speed"),
    ("trace.overhead_pct", "%", "lower", ALL,
     "nothing: traced op p50 over untraced op p50, minus 1"),
    ("trace.coverage_pct", "%", "higher", ALL,
     "nothing: share of the traced op the layer spans account for"),
]

PASSES = [name[len("pipeline.pass."):-3] for name, *_ in PER_LAYER
          if name.startswith("pipeline.pass.")]


def names(kind: str) -> list:
    table = END_TO_END if kind == "end_to_end" else PER_LAYER
    return [row[0] for row in table]


def unit_of(name: str) -> str:
    for row in END_TO_END + PER_LAYER:
        if row[0] == name:
            return row[1]
    raise KeyError(name)


def measured_on(workload: str) -> list:
    """The per-layer names *workload* measures (the rest read 0)."""
    return [row[0] for row in PER_LAYER if workload in row[3]]
