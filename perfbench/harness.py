"""Shared pieces of the repository benchmark: span recording, sample
statistics, process and shared-memory bookkeeping, and the report.

Nothing here imports :mod:`repro`; the workload modules do.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro-mp-"


# -- spans --------------------------------------------------------------------

@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.op]


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent,
    op id); the parent is the innermost open span on the same thread and
    the op id is inherited from it unless set explicitly."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        with self._lock:
            rec = Span(len(self.spans), name, 0.0, 0.0,
                       parent.id if parent is not None else None, op)
            self.spans.append(rec)
        stack.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn: Callable, name: str,
             op_of: Optional[Callable] = None) -> Callable:
        """*fn* with every call recorded as span *name*; *op_of(args)*
        names the op id when the call starts a new op."""
        tracer = self

        def traced(*args, **kwargs):
            op = op_of(args) if op_of is not None else None
            with tracer.span(name, op):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def by_op(self) -> Dict[Optional[int], List[Span]]:
        out: Dict[Optional[int], List[Span]] = {}
        for s in self.spans:
            out.setdefault(s.op, []).append(s)
        return out


def spans_from_lists(rows: Iterable[list]) -> List[Span]:
    return [Span(*row) for row in rows]


def union_ms(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length (ms) of the union of ``(start, end)`` intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total * 1e3


def busy_ms(spans: Iterable[Span], name: str) -> float:
    """Time (ms) covered by spans called *name*; nested calls count once."""
    return union_ms((s.start, s.end) for s in spans if s.name == name)


# -- host speed ---------------------------------------------------------------

#: the nominal host: the one on which :func:`reference_routine` takes
#: exactly this long (an idle core of a 2.0 GHz Xeon takes about 0.75 ms)
REF_NOMINAL_S = 1.0e-3
_REF_SRC = np.arange(4096.0)
_REF_DST = np.zeros(4096)


def _ref_index(i: int) -> int:
    return (i * 7) & 4095


def reference_routine() -> None:
    """A fixed per-element copy through a Python index function and NumPy
    scalar indexing: the instruction mix of per-element placement,
    sharing no code with the program under test."""
    f, src, dst = _ref_index, _REF_SRC, _REF_DST
    for i in range(4096):
        dst[f(i)] = src[i]


#: the nominal host's time for :func:`parallel_reference`, the reference
#: routine's work run by two processes at once (1.8-2.1 ms on the host
#: the benchmark was built on)
PAR_REF_NOMINAL_S = 2.0e-3
#: :func:`parallel_reference` synchronises the two processes after each
#: of this many chunks, as mp workers do between the phases of a step
PAR_REF_CHUNKS = 8


def reference_times(n: int = 3) -> List[float]:
    """*n* timings of :func:`reference_routine`, in seconds."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_routine()
        out.append(time.perf_counter() - t0)
    return out


def _reference_chunks(barrier) -> None:
    """The reference routine's copy in chunks, each followed by a wait
    on *barrier*."""
    f, src, dst = _ref_index, _REF_SRC, _REF_DST
    step = len(src) // PAR_REF_CHUNKS
    for lo in range(0, len(src), step):
        for i in range(lo, lo + step):
            dst[f(i)] = src[i]
        barrier.wait()


def _parallel_helper(conn, barrier) -> None:
    """The second process of :func:`parallel_reference`: one run per
    ``True`` received, until ``False``."""
    while conn.recv():
        _reference_chunks(barrier)
        conn.send(True)


def parallel_reference(conn, barrier) -> None:
    """The reference routine's work on two cores: this process and the
    helper behind *conn* each run :func:`_reference_chunks`, meeting at
    *barrier* after every chunk."""
    conn.send(True)
    _reference_chunks(barrier)
    conn.recv()


class HostSpeed:
    """Follows the speed of a shared host with reference routines.

    On a shared host the same code runs up to 2x slower for seconds to
    minutes at a time, whatever the program does.  The benchmark times
    :func:`reference_routine` between ops (at most every ``EVERY_S``)
    and scales a time measured at t to the nominal host:
    ``measured * REF_NOMINAL_S / reference time``, the reference time
    being the median of the samples within ``WINDOW_S`` of t.

    One process's speed and two processes' speed do not move together:
    the single-process reference ran anywhere from 0.84 to 1.37 ms over
    ten minutes while two processes at once ran within 10 % of 1.95 ms.
    So with ``parallel=True`` a helper process is started and
    :func:`parallel_reference` is timed beside the serial routine; time
    spent with two processes busy is scaled by :meth:`parallel_factor`.
    :meth:`close` stops the helper.
    """

    EVERY_S = 0.1
    WINDOW_S = 1.0

    def __init__(self, parallel: bool = False):
        #: (time, serial reference s, parallel reference s or None)
        self.samples: List[Tuple[float, float, Optional[float]]] = []
        self._conn = self._proc = self._barrier = None
        if parallel:
            ctx = multiprocessing.get_context("fork")
            self._barrier = ctx.Barrier(2, timeout=10.0)
            self._conn, child = ctx.Pipe()
            self._proc = ctx.Process(target=_parallel_helper, args=(child, self._barrier),
                                     daemon=True, name="perfbench-parallel-reference")
            self._proc.start()
            child.close()

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.samples and now - self.samples[-1][0] < self.EVERY_S:
            return
        reference_routine()
        serial = time.perf_counter() - now
        parallel = None
        if self._conn is not None:
            t0 = time.perf_counter()
            parallel_reference(self._conn, self._barrier)
            parallel = time.perf_counter() - t0
        self.samples.append((now, serial, parallel))

    def _near(self, t: float, column: int) -> float:
        near = [row[column] for row in self.samples if abs(row[0] - t) <= self.WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda row: abs(row[0] - t))[column]]
        return median(near)

    def factor(self, t: float) -> float:
        """Multiply a one-process time measured at *t* by this to get
        nominal time."""
        return REF_NOMINAL_S / self._near(t, 1)

    def parallel_factor(self, t: float) -> float:
        """The same for time spent with two processes busy (needs
        ``parallel=True``)."""
        return PAR_REF_NOMINAL_S / self._near(t, 2)

    def close(self) -> None:
        if self._proc is None:
            return
        try:
            self._conn.send(False)
        except OSError:
            pass  # the helper is gone already
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()
        self._conn = self._proc = self._barrier = None


# -- statistics ---------------------------------------------------------------

def median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def p90(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=10)[8]


# -- processes and shared memory ---------------------------------------------

def shm_segments() -> set:
    if not os.path.isdir(SHM_DIR):
        return set()
    return {f for f in os.listdir(SHM_DIR) if f.startswith(SHM_PREFIX)}


def pid_alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def child_pids(pid: int) -> List[int]:
    """Live direct children of *pid*, from ``/proc``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            out.append(int(entry))
    return out


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop the ``multiprocessing`` resource tracker this process started,
    if any, and reap it.  Left alone, it outlives the process that
    started it: it only exits once that process has exited and closed
    its end of the tracker's pipe, and nothing then waits for it.  Call
    this after every worker pool is shut down (a live worker holds the
    pipe open too); the tracker is killed if it has not ended within
    *timeout* seconds."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is None or tracker._fd is None or tracker._pid is None:
        return
    fd, pid = tracker._fd, tracker._pid
    tracker._fd = tracker._pid = None
    os.close(fd)  # end of file on the pipe: the tracker cleans up and exits
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass  # already reaped


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata(seed: int, workload: str) -> dict:
    """Provenance stamped into every result: interpreter, host, which
    backends were available, ``nproc`` and the seed."""
    import platform

    from repro.backends import availability_snapshot

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend_availability": {
            name: av["available"] for name, av in availability_snapshot().items()
        },
    }


# -- the report ---------------------------------------------------------------

class Report:
    """Counts, checks and metrics of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.raw: Dict[str, float] = {}

    def fail(self, why: str) -> None:
        """A failed check of the run (tier, teardown, exact counts)."""
        self.problems.append(why)

    def op_failed(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def put(self, name: str, value: float, unit: str,
            raw: Optional[float] = None) -> None:
        """Record a metric; *raw* is the unscaled figure of a time that
        was scaled to nominal host speed (printed, not in the result)."""
        self.metrics[name] = (float(value), unit)
        if raw is not None:
            self.raw[name] = float(raw)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0

    def result(self, names: List[str]) -> dict:
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]}
                        for n in names},
        }

    def print_lines(self, names: List[str], flag=lambda name: "") -> None:
        for n in names:
            value, unit = self.metrics[n]
            extra = (f"  (raw {self.raw[n]:.4f})"
                     if self.raw.get(n, value) != value else "")
            print(f"  {n:40s} {value:14.4f} {unit}{extra}  {flag(n)}".rstrip())
