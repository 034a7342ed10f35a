"""Self-tests of the benchmark itself (not part of the repository's suite).

    python3 -m pytest perfbench/test_perfbench.py -q

They smoke every workload at tiny sizes, show that the oracle rejects a
corrupted output, keep ``BENCHMARK.json`` and ``metrics.py`` in step,
check that the exact counters repeat across runs and seeds, check that
no process outlives a run, and check that the command fails cleanly
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from harness import Tracer  # noqa: E402

WORKLOADS = list(metrics.WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


def session_members(sid: int) -> list:
    """``(pid, state, command)`` of every process in session *sid*,
    zombies included, from ``/proc``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            head, rest = (entry / "stat").read_text().rsplit(")", 1)
        except (FileNotFoundError, ProcessLookupError):
            continue
        fields = rest.split()
        if int(fields[3]) == sid:
            out.append((int(entry.name), fields[0], head.split("(", 1)[1]))
    return out


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def printed_names(stdout: str) -> set:
    """Metric names on the report lines (two-space indent, name first)."""
    names = set()
    for line in stdout.splitlines():
        if line.startswith("  ") and not line.startswith("  FAIL") \
                and not line.startswith("  note"):
            names.add(line.split()[0])
    return names


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(row) for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_layer_metric_is_mapped():
    for name, _unit, _better, workloads, moves in metrics.PER_LAYER:
        assert workloads and set(workloads) <= set(WORKLOADS), name
        assert moves.strip(), f"{name} names no end-to-end metric it moves"
    assert len(metrics.PASSES) == 9


# -- smoke runs -------------------------------------------------------------

@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke(workload, trace):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "2",
                "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == metrics.names(kind)
    declared = set(metrics.names("end_to_end")) | set(metrics.names("per_layer"))
    assert printed_names(out.stdout) <= declared
    for name, value in result["metrics"].items():
        assert value["unit"] == metrics.unit_of(name)
        if kind == "end_to_end":
            assert value["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_process_outlives_a_run(workload):
    """Pool workers, daemons, set-up probes and the resource tracker
    multiprocessing starts are all ended and reaped before the command
    exits: nothing is left in its session, not even a zombie."""
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "6",
             "--seconds", "2", "--trace", "1", "--size", "tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        out, err = proc.communicate(timeout=180)
    assert proc.returncode == 0, out[-3000:] + err[-3000:]
    assert session_members(proc.pid) == []


def test_without_sources_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "stencil-oneshot", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# -- the oracle rejects corrupted outputs -----------------------------------

@pytest.fixture(scope="module")
def stencil():
    from stencil_oneshot import StencilOneshot

    wl = StencilOneshot(7, "tiny")
    wl.setup(Tracer())
    yield wl
    wl.close()


def test_stencil_oracle_rejects_corruption(stencil):
    from repro.codegen import collect_nd, run_distributed, run_distributed_nd

    a0, b, t0, s = stencil.inputs(3)
    m1 = run_distributed(stencil.plan1, {"A": a0.copy(), "B": b}, backend="fused")
    m2 = run_distributed_nd(stencil.plan2, {"S": s, "T": t0.copy()}, backend="fused")
    a, t = m1.collect("A"), collect_nd(m2, "T")
    assert stencil.check(3, a0, b, t0, s, a, t, (m1, m2)) is None
    bad = a.copy()
    bad[len(bad) // 2] += 1e-12
    assert "differ" in stencil.check(3, a0, b, t0, s, bad, t, (m1, m2))
    bad = t.copy()
    bad[2, 3] = -bad[2, 3]
    assert "differ" in stencil.check(3, a0, b, t0, s, a, bad, (m1, m2))


def test_jacobi_oracle_rejects_corruption():
    from jacobi_timeloop import JacobiTimeloop

    wl = JacobiTimeloop(7, "tiny")
    try:
        wl.setup(Tracer())
        problem, _kind, _secs, _parts = wl.op(0, None)
        assert problem is None
        s0, t0 = wl.inputs(1)
        from repro.pipeline import run_program

        results = {b: run_program(wl.pir, {"S": s0.copy(), "T": t0.copy()},
                                  backend=b, processes=2)[0] for b in ("fused", "mp")}
        results["mp"].env["T"][1, 1] += 1.0  # the benchmark's own copy
        problem = wl.check(1, s0, t0, results, {"fused": 1.0, "mp": 1.0})
        assert problem is not None and "T (mp)" in problem
    finally:
        wl.close()


def test_serve_oracle_rejects_corruption():
    from serve_mix import ServeMix

    wl = ServeMix(7, "tiny")
    try:
        wl.setup(Tracer())
        req = wl.build("run", 4)
        resp = wl.conn.request(req)
        assert wl.check(req, resp) is None
        resp["result"]["arrays"]["A"][5] += 1e-12
        assert "differ" in wl.check(req, resp)
        req = wl.build("compile_hit", 5)
        resp = wl.conn.request(req)
        assert wl.check(req, resp) is None
        resp["result"]["backend"] = "vector"
        assert "backend" in wl.check(req, resp)
        req = wl.build("check_miss", 6, 99)
        resp = wl.conn.request(req)
        assert wl.check(req, resp) is None
        resp["result"]["program"]["certified_deadlock_free"] = False
        assert "certify" in wl.check(req, resp)
    finally:
        wl.close()


# -- exact counts repeat across runs and seeds ------------------------------

def _counts(cls, seed, ops=3):
    wl = cls(seed, "tiny")
    try:
        wl.setup(Tracer())
        for k in range(ops):
            problem = wl.op(k, None)[0]
            assert problem is None, problem
        return wl.counts
    finally:
        wl.close()


def test_exact_counts_repeat():
    from jacobi_timeloop import JacobiTimeloop
    from stencil_oneshot import StencilOneshot

    for cls in (StencilOneshot, JacobiTimeloop):
        first = _counts(cls, 1)
        assert first == _counts(cls, 1) == _counts(cls, 2), cls.__name__


def test_serve_exact_counts_repeat():
    seen = []
    for seed in (1, 1, 2):
        out = bench("--workload", "serve-mix", "--seed", str(seed), "--seconds", "2",
                    "--trace", "1", "--size", "tiny")
        assert out.returncode == 0, out.stdout[-3000:]
        m = last_json(out.stdout)["metrics"]
        seen.append(tuple(m[n]["value"] for n in (
            "machine.messages", "machine.elements_sent", "machine.local_updates",
            "serve.checks_per_check_miss")))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][-1] == 1.0

