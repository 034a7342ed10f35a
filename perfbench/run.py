"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (``metrics.py`` and ``README.md`` say why each was chosen):

* ``stencil-oneshot`` — place, execute (``fused``) and collect the E13
  1-D and E19 2-D stencils on warm compile caches;
* ``jacobi-timeloop`` — a pipelined Jacobi time loop on ``fused`` and on
  ``mp`` with 2 workers;
* ``serve-mix`` — a ``repro serve`` daemon under a closed-loop client.

Each run sets the workload up several times in fresh processes and
reports the median, scaled to nominal host speed, as ``setup_s``; sets
it up once more in this process,
then runs ops in a closed loop for ``--seconds`` and checks every
output against a NumPy reference.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced
and prints the per-layer metrics, including the tracing overhead.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: fresh-process set-ups per run; ``setup_s`` is their median, each
#: scaled to nominal host speed by reference timings taken around it
SETUP_PROBES = 5
#: an op slower than this fails
OP_TIMEOUT_S = 60.0
#: ``peak_rss_mb`` is read when this many ops have completed, so that it
#: covers the same amount of work on every run (the caches grow with it)
RSS_AFTER_OPS = 100


@dataclass
class Op:
    k: int
    kind: str
    seconds: float
    parts: Dict[str, float] = field(default_factory=dict)
    problem: Optional[str] = None
    start: float = 0.0
    #: host-speed factors at *start* for one and for two busy processes
    #: (see ``harness.HostSpeed``)
    factor: float = 1.0
    pfactor: float = 1.0
    #: the op's seconds at nominal host speed: its parts in the
    #: workload's ``parallel_parts`` scaled by *pfactor*, the rest by *factor*
    nominal: float = 0.0


def make(name: str, seed: int, size: str, traced: bool = False):
    if name == "stencil-oneshot":
        from stencil_oneshot import StencilOneshot

        return StencilOneshot(seed, size)
    if name == "jacobi-timeloop":
        from jacobi_timeloop import JacobiTimeloop

        return JacobiTimeloop(seed, size)
    from serve_mix import ServeMix

    return ServeMix(seed, size, traced=traced)


def closed_loop(wl, seconds: float, tracer, first_k: int, speed):
    """Run ops of *wl* back to back (one closed-loop client) until
    *seconds* have passed, timing the reference routine between ops;
    return ``(ops, wall seconds, peak RSS MB)``."""
    ops: List[Op] = []
    rss = None
    start = time.perf_counter()
    k = first_k
    while time.perf_counter() < start + seconds:
        speed.sample()
        t0 = time.perf_counter()
        try:
            problem, kind, secs, parts = wl.op(k, tracer)
        except Exception as e:  # noqa: BLE001 — a failed op, counted
            problem, kind, secs, parts = f"op {k}: {type(e).__name__}: {e}", "error", 0.0, {}
        if secs > OP_TIMEOUT_S and problem is None:
            problem = f"op {k}: took {secs:.1f} s"
        ops.append(Op(k, kind, secs, parts, problem, t0))
        if len(ops) == RSS_AFTER_OPS:
            rss = wl.peak_rss_mb()
        k += 1
    wall = time.perf_counter() - start
    speed.sample(force=True)
    for op in ops:
        op.factor = speed.factor(op.start)
        parallel = sum(op.parts.get(part, 0.0) for part in wl.parallel_parts)
        if parallel:
            op.pfactor = speed.parallel_factor(op.start)
        op.nominal = (op.seconds - parallel) * op.factor + parallel * op.pfactor
    return ops, wall, rss if rss is not None else wl.peak_rss_mb()


def probe_setup(name: str, seed: int, size: str) -> float:
    """Seconds from starting a fresh process to the workload being ready
    (imports, cold compile, pool spawn or daemon listening, one warm-up
    op).  The serve daemon is that process; otherwise a child of this
    one is."""
    from harness import Report, Tracer

    if name == "serve-mix":
        wl = make(name, seed, size)
        t0 = time.perf_counter()
        try:
            wl.setup(Tracer())
            return time.perf_counter() - t0
        finally:
            report = Report()
            wl.close(report)
            if report.problems:
                raise RuntimeError(f"set-up probe teardown: {report.problems}")
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--size", size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line}{out}{err[-2000:]}")
    return ready


def setup_probe_main(name: str, seed: int, size: str) -> int:
    from harness import Report, Tracer, stop_resource_tracker

    wl = make(name, seed, size)
    report = Report()
    try:
        wl.setup(Tracer())
        print("ready", flush=True)
    finally:
        wl.close(report)
        stop_resource_tracker()
    return 1 if report.problems else 0


def end_to_end(report, wl, ops: List[Op], wall: float) -> None:
    """Latency and throughput at nominal host speed (raw beside them)."""
    from harness import median, p90

    good = [op for op in ops if op.problem is None]
    nominal = [op.nominal * 1e3 for op in good]
    raw = [op.seconds * 1e3 for op in good]
    report.put("op_ms.p50", median(nominal), "ms", raw=median(raw))
    report.put("op_ms.p90", p90(nominal), "ms", raw=p90(raw))
    mean_factor = sum(nominal) / max(sum(raw), 1e-9)
    report.put("ops_per_s", len(good) / (wall * mean_factor), "1/s", raw=len(good) / wall)
    report.put("fail_ratio", sum(1 for op in ops if op.problem) / max(len(ops), 1), "ratio")
    if good:
        wl.sub_metrics(report, good)


def setup_layers(report, tracer) -> None:
    """Compile-side per-layer metrics of an in-process set-up."""
    from harness import busy_ms

    spans = [s for s in tracer.spans if s.op is None]
    for name in ("frontend.translate", "pipeline.compile_plan",
                 "pipeline.compile_program", "analysis.verify_program"):
        report.put(f"{name}_ms", busy_ms(spans, name), "ms")


def cache_layers(report, caches: dict) -> None:
    for metric, key in (("pipeline.plan_cache", "plan"),
                        ("pipeline.kernel_cache", "kernel"),
                        ("analysis.verify_cache", "verify")):
        lookups = caches[key]["hits"] + caches[key]["misses"]
        report.put(f"{metric}_hit_ratio", caches[key]["hits"] / max(lookups, 1), "ratio")
        report.put(f"{metric}_lookups", lookups, "count")


def teardown_checks(report, wl, shm_before: set) -> None:
    from harness import child_pids, pid_alive, shm_segments

    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        report.fail(f"/dev/shm segments left behind: {leaked}")
    for pid in sorted(getattr(wl, "worker_pids", ())):
        if pid_alive(pid):
            report.fail(f"mp worker pid {pid} survived teardown")
    for pid in child_pids(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmdline = f.read().replace(b"\0", b" ").decode(errors="replace")
        except FileNotFoundError:
            continue
        report.fail(f"child process {pid} survived teardown: {cmdline[:120]}")


def count_ops(report, ops: List[Op]) -> None:
    report.attempted += len(ops)
    for op in ops:
        if op.problem:
            report.op_failed(op.problem)


def run(args) -> int:
    import metrics
    from harness import (REF_NOMINAL_S, HostSpeed, Report, Tracer, median, metadata,
                         reference_times, shm_segments, stop_resource_tracker)

    from repro.cacheinfo import cache_stats

    report = Report()
    shm_before = shm_segments()
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        ref = reference_times()
        raw_setups.append(probe_setup(args.workload, args.seed, args.size))
        ref += reference_times()
        setups.append(raw_setups[-1] * REF_NOMINAL_S / median(ref))
    report.put("setup_s", median(setups), "s", raw=median(raw_setups))

    phase_s = args.seconds / 2 if args.trace else args.seconds
    tracer = Tracer()
    wl = make(args.workload, args.seed, args.size)
    traced_wl = None
    ops: List[Op] = []
    speed = HostSpeed(parallel=bool(wl.parallel_parts))
    try:
        t0 = time.perf_counter()
        wl.setup(tracer)
        local_setup_s = time.perf_counter() - t0
        ops, wall, rss = closed_loop(wl, phase_s, None, 0, speed)
        count_ops(report, ops)
        end_to_end(report, wl, ops, wall)
        if not args.trace:
            report.put("peak_rss_mb", rss, "MB")
        if args.workload == "serve-mix":
            wl.finish_stats()
            wl.exact_counts(report, ops)
        if args.trace:
            untraced_p50 = report.metrics["op_ms.p50"][0]
            first = ops[-1].k + 1 if ops else 0
            if args.workload == "serve-mix":
                # the traced daemon is a second daemon, started by the launcher
                wl.close(report)
                layer_wl = traced_wl = make(args.workload, args.seed, args.size, traced=True)
                traced_wl.setup(tracer)
                ops_t, _, _ = closed_loop(traced_wl, phase_s, tracer, first, speed)
                traced_wl.finish_stats()
                traced_wl.exact_counts(report, ops_t)
                traced_wl.close(report)  # writes the launcher's spans
                caches = traced_wl.cache_stats()
            else:
                layer_wl = wl
                setup_layers(report, tracer)
                ops_t, _, _ = closed_loop(wl, phase_s, tracer, first, speed)
                caches = cache_stats()
            count_ops(report, ops_t)
            good_t = [op for op in ops_t if op.problem is None]
            if good_t:
                layer_wl.layer_metrics(report, tracer, good_t)
                traced_p50 = median([op.nominal * 1e3 for op in good_t])
                report.put("trace.overhead_pct", 100.0 * (traced_p50 / untraced_p50 - 1), "%")
            for name, ms in layer_wl.pass_ms.items():
                report.put(f"pipeline.pass.{name}_ms", ms, "ms")
            cache_layers(report, caches)
            report.put("host.ref_ms", 1e3 * median([row[1] for row in speed.samples]), "ms")
            if wl.parallel_parts:
                report.put("host.par_ref_ms", 1e3 * median([row[2] for row in speed.samples]),
                           "ms")
    finally:
        wl.close(report)
        if traced_wl is not None:
            traced_wl.close(report)
        speed.close()
        stop_resource_tracker()
    teardown_checks(report, wl, shm_before)

    print("meta " + json.dumps(metadata(args.seed, args.workload)))
    print(f"{args.workload}: seed {args.seed}, {len(ops)} untraced op(s) in "
          f"{phase_s:.0f} s; set-up probes {[round(t, 3) for t in raw_setups]} s raw, "
          f"in-process set-up {local_setup_s:.3f} s")
    if args.trace:
        print(f"traced phase: {len(ops_t)} op(s); per-layer times are raw, "
              f"not scaled to nominal host speed")
        names = metrics.names("per_layer")
        measured = set(metrics.measured_on(args.workload))
        for name in names:
            if name not in report.metrics:
                report.put(name, 0.0, metrics.unit_of(name))
        print("per-layer metrics (n/a: not exercised by this workload, reads 0):")
        report.print_lines(names, lambda name: "" if name in measured else "n/a")
    else:
        names = metrics.names("end_to_end")
        print("end-to-end metrics (op times at nominal host speed; raw in brackets):")
        detail = ["fail_ratio"] + [n for n in metrics.measured_on(args.workload)
                                   if n.startswith(("steps_per_s.", "req_ms."))]
        report.print_lines(names + detail)
        if len(ops) < 100:
            print(f"  note: {len(ops)} ops leave fewer than 10 samples above p90")
    for p in report.problems:
        print(f"  FAIL: {p}")
    print(json.dumps(report.result(names)))
    return 0 if report.correct else 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("stencil-oneshot", "jacobi-timeloop", "serve-mix"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set the workload up, print 'ready', tear down")
    args = ap.parse_args(argv)
    if args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe_main(args.workload, args.seed, args.size)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
