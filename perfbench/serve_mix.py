"""Workload ``serve-mix``: a ``repro serve`` daemon under a closed loop.

One client connection sends a seeded request sequence, each request
when the previous reply has arrived.  The sequence is made of blocks of
20 requests, shuffled per block from the seed, so every block holds
exactly:

* 12 ``compile_hit`` — a warm compile, with verification, of the
  6-clause chain (n = 2048, pmax 8);
* 5 ``run`` — a seeded 1-D 3-point stencil, n = 4096, pmax 4, ``fused``;
* 3 ``check_miss`` — a ``check`` of the same chain at an n never sent
  before: front end, every pass, kernel build and program verifier.

This is the only workload that drives the front end, the compile
passes, the analysis layer and the service, and it writes the caches
on misses next to reads on hits.  The daemon starts through
``launcher.py``; in a traced run the launcher records layer spans.

One connection, not two: the daemon's executor work holds one
interpreter lock, so a second connection adds no throughput (16.5
requests/s with one, 15.5 with two) and only makes requests wait on each
other.  With two, the overall median fell in the contended tail of the
compile hits, where its sampling spread alone was 0.11 of its value.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import oracle
from harness import (
    Tracer,
    median,
    pid_alive,
    spans_from_lists,
    busy_ms,
    union_ms,
    vm_hwm_mb,
)

from repro.serve import ServeClient

HERE = Path(__file__).resolve().parent
RUN_DIR = Path(".perfbench-run")

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
CHAIN_CLAUSES = 6
RUN_PROG = """
for i := 1 to n - 2 par do
    A[i] := B[i - 1] + B[i] + B[i + 1];
od;
"""
SIZES = {"full": (2048, 4096), "tiny": (64, 64)}
BLOCK = ("compile_hit",) * 12 + ("run",) * 5 + ("check_miss",) * 3
KINDS = ("compile_hit", "run", "check_miss")
DRAIN_TIMEOUT = 10.0
COUNTS = ("messages", "elements_moved", "updates")


class ServeMix:
    name = "serve-mix"
    #: a request is timed across two processes, this client and the
    #: daemon, so its time is scaled by the two-process reference
    #: (``HostSpeed``)
    parallel_parts = ("request",)

    def __init__(self, seed: int, size: str = "full", traced: bool = False):
        self.seed = seed
        self.n, self.run_n = SIZES[size]
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.conn: Optional[ServeClient] = None
        self.dir: Optional[Path] = None
        self._perms: Dict[int, list] = {}
        self.cold_rules = None
        self.counts = None      # machine counters of the first run request
        self.stats_after_setup = None
        self.stats_end = None
        self.trace_data = None
        self.pass_ms = {}

    # -- the request sequence -------------------------------------------------

    def kind(self, k: int) -> str:
        block, pos = divmod(k, len(BLOCK))
        perm = self._perms.get(block)
        if perm is None:
            perm = list(np.random.default_rng([self.seed, block]).permutation(BLOCK))
            self._perms[block] = perm
        return perm[pos]

    def _chain(self, n: int) -> dict:
        return {"program": CHAIN, "arrays": [f"{x}=block:{n}" for x in "ABCDEFG"],
                "params": {"n": n}, "pmax": 8}

    def request(self, k: int) -> dict:
        kind = self.kind(k)
        check_n = None
        if kind == "check_miss":
            # the m-th check_miss of the sequence gets n + 1, n - 2, n + 3, ...
            block, pos = divmod(k, len(BLOCK))
            m = 3 * block + sum(1 for j in range(pos)
                                if self.kind(block * len(BLOCK) + j) == "check_miss")
            check_n = self.n + (m + 1) * (-1) ** m
        return self.build(kind, k, check_n)

    def build(self, kind: str, k: int, check_n: Optional[int] = None) -> dict:
        if kind == "compile_hit":
            req = {"op": "compile", **self._chain(self.n), "verify": True,
                   "backend": "fused"}
        elif kind == "run":
            req = {"op": "run", "program": RUN_PROG,
                   "arrays": [f"A=block:{self.run_n}", f"B=block:{self.run_n}"],
                   "params": {"n": self.run_n}, "pmax": 4,
                   "seed": int(np.random.default_rng([self.seed, k + 10]).integers(1 << 31)),
                   "backend": "fused"}
        else:
            req = {"op": "check", **self._chain(check_n)}
        req["id"] = k
        return req

    # -- set-up ---------------------------------------------------------------

    def setup(self, tracer: Tracer) -> None:
        self.dir = RUN_DIR / f"{os.getpid()}-{time.monotonic_ns()}"
        self.dir.mkdir(parents=True)
        sock = str(self.dir / "serve.sock")
        cmd = [sys.executable, str(HERE / "launcher.py")]
        if self.traced:
            cmd += ["--spans", str(self.dir / "spans.json")]
        cmd += ["serve", "--unix", sock, "--drain-timeout", str(DRAIN_TIMEOUT)]
        self.err = open(self.dir / "daemon.err", "w+")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.err, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"daemon did not start: {line!r} {self._stderr()}")
        self.conn = ServeClient(sock, timeout=60.0).connect()
        # warm-up: the cold compile every compile_hit then hits, one run
        # and one check at an n the timed sequence never sends
        cold = self.conn.request({"op": "compile", **self._chain(self.n),
                                      "verify": True, "backend": "fused", "id": -1})
        if not cold.get("ok"):
            raise RuntimeError(f"cold compile failed: {cold}")
        self.cold_rules = [c["rules"] for c in cold["result"]["clauses"]]
        for req in (self.build("run", -2), self.build("check_miss", -3, 2 * self.n + 1)):
            problem = self.check(req, self.conn.request(req))
            if problem:
                raise RuntimeError(f"warm-up {req['op']} failed: {problem}")
        self.stats_after_setup = self.stats()

    def stats(self) -> dict:
        resp = self.conn.request({"op": "stats"})
        if not resp.get("ok"):
            raise RuntimeError(f"stats failed: {resp}")
        return resp["result"]

    def _stderr(self) -> str:
        self.err.seek(0)
        return self.err.read()[-2000:]

    # -- one op ---------------------------------------------------------------

    def op(self, k: int, tracer=None):
        req = self.request(k)
        t0 = time.perf_counter()
        resp = self.conn.request(req)
        dt = time.perf_counter() - t0
        return self.check(req, resp), self.kind(k), dt, {"request": dt}

    def check(self, req: dict, resp: dict) -> Optional[str]:
        """None when the response is right for *req*, else why."""
        k, op = req["id"], req["op"]
        if not resp.get("ok"):
            return f"request {k} ({op}): error {resp.get('error')}"
        if resp.get("id") != k:
            return f"request {k} ({op}): response id {resp.get('id')}"
        res = resp["result"]
        if op in ("compile", "run") and res.get("backend") != req["backend"]:
            return f"request {k} ({op}): backend {res.get('backend')!r} != {req['backend']!r}"
        if op == "compile":
            clauses = res["clauses"]
            if [c["rules"] for c in clauses] != self.cold_rules:
                return f"request {k}: rules differ from the cold compile"
            if not all(c["cache_hit"] and c["fused"] and c["diagnostics"]["ok"]
                       for c in clauses):
                return f"request {k}: not a verified fused cache hit"
        elif op == "run":
            if res.get("mode") != "distributed" or not res.get("match_reference"):
                return f"request {k}: run mode {res.get('mode')} / server reference mismatch"
            rng = np.random.default_rng(req["seed"])
            a0, b = rng.random(self.run_n), rng.random(self.run_n)
            problem = oracle.mismatch("A", res["arrays"]["A"], oracle.stencil_1d(a0, b))
            if problem:
                return f"request {k}: {problem}"
            counts = tuple(res["stats"][c] for c in COUNTS)
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                return f"request {k}: machine counts {counts} != first run's {self.counts}"
        else:
            prog = res.get("program") or {}
            if not (res.get("ok") and res.get("errors") == 0
                    and len(res.get("clauses", ())) == CHAIN_CLAUSES
                    and prog.get("certified_deadlock_free") is True):
                return f"request {k}: check did not certify the chain"
        return None

    # -- metrics --------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def sub_metrics(self, report, ops) -> None:
        for kind in KINDS:
            report.put(f"req_ms.{kind}.p50",
                       1e3 * median([op.nominal for op in ops if op.kind == kind]),
                       "ms")

    def finish_stats(self) -> None:
        """Read the daemon's counters; call before :meth:`close`."""
        self.stats_end = self.stats()

    def layer_metrics(self, report, tracer: Tracer, ops) -> None:
        spans = spans_from_lists(self.trace_data["spans"])
        by_op: Dict[int, list] = {}
        for s in spans:
            by_op.setdefault(s.op, []).append(s)
        execute = {s.id for s in spans if s.name == "serve.execute"}
        per_kind: Dict[str, List[list]] = {kind: [] for kind in KINDS}
        self_ms: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        covered = []
        for op in ops:
            sp = by_op.get(op.k, [])
            per_kind[op.kind].append(sp)
            layers_ms = union_ms((s.start, s.end) for s in sp if s.parent in execute)
            self_ms[op.kind].append(op.seconds * 1e3 - layers_ms)
            covered.append(layers_ms / (op.seconds * 1e3))
        for kind in KINDS:
            report.put(f"serve.self_ms.{kind}", median(self_ms[kind]), "ms")
        miss, run = per_kind["check_miss"], per_kind["run"]
        for name, spans_of in (("frontend.translate_ms", miss),
                               ("pipeline.compile_plan_ms", miss),
                               ("pipeline.compile_program_ms", miss),
                               ("analysis.verify_program_ms", miss),
                               ("codegen.run_distributed_ms", run),
                               ("core.reference_ms", run)):
            report.put(name, median([busy_ms(sp, name[:-3]) for sp in spans_of]), "ms")
        place = [busy_ms(sp, "machine.place.1d") for sp in run]
        report.put("machine.place_ms.1d", median(place), "ms")
        report.put("machine.collect_ms.1d",
                   median([busy_ms(sp, "machine.collect.1d") for sp in run]), "ms")
        report.put("machine.exec_ms.1d", median(
            [busy_ms(sp, "codegen.run_distributed") - p for sp, p in zip(run, place)]), "ms")
        for name, value in zip(("machine.messages", "machine.elements_sent",
                                "machine.local_updates"), self.counts or (0, 0, 0)):
            report.put(name, value, "count")
        miss_ops = {op.k for op in ops if op.kind == "check_miss"}
        pass_ms: Dict[str, Dict[int, float]] = {}
        for op_id, name, wall in self.trace_data["passes"]:
            if op_id in miss_ops:
                per_op = pass_ms.setdefault(name, {})
                per_op[op_id] = per_op.get(op_id, 0.0) + wall
        self.pass_ms = {name: median(list(v.values())) for name, v in pass_ms.items()}
        report.put("pipeline.kernel_cache_bytes",
                   self.stats_end["caches"]["kernel"]["bytes"], "bytes")
        report.put("trace.coverage_pct", 100.0 * median(covered), "%")

    def exact_counts(self, report, ops) -> None:
        """checks_executed must grow by exactly one per check_miss."""
        before = self.stats_after_setup["server"]["checks_executed"]
        after = self.stats_end["server"]["checks_executed"]
        sent = sum(1 for op in ops if op.kind == "check_miss")
        if after - before != sent:
            report.fail(f"daemon ran {after - before} check(s) for {sent} check_miss request(s)")
        report.put("serve.checks_per_check_miss", (after - before) / max(sent, 1), "ratio")

    def cache_stats(self) -> dict:
        return self.stats_end["caches"]

    def close(self, report=None) -> None:
        if self.proc is not None:
            pid = self.proc.pid
            try:
                if self.conn is not None:
                    self.conn.request({"op": "shutdown"})
                    self.conn.close()
                self.proc.wait(timeout=DRAIN_TIMEOUT + 5)
            except Exception as e:  # noqa: BLE001 — reported, then killed
                if report is not None:
                    report.fail(f"daemon did not stop on shutdown: {type(e).__name__}: {e}")
                self.proc.kill()
                self.proc.wait(timeout=10)
            if report is not None and self.proc.returncode != 0:
                report.fail(f"daemon exited {self.proc.returncode}: {self._stderr()}")
            if report is not None and pid_alive(pid):
                report.fail(f"daemon pid {pid} survived shutdown")
            self.proc.stdout.close()
            self.proc = None
        if self.dir is not None:
            spans = self.dir / "spans.json"
            if self.traced and spans.exists():
                self.trace_data = json.loads(spans.read_text())
            self.err.close()
            shutil.rmtree(self.dir, ignore_errors=True)
            try:
                RUN_DIR.rmdir()
            except OSError:
                pass  # another run's directory is still there
            self.dir = None
