"""Start a ``repro serve`` daemon for the benchmark, optionally traced.

    python3 perfbench/launcher.py [--spans FILE] serve --unix PATH [...]

Everything after the launcher's own options is a ``repro`` command
line; it must be ``serve``.  With ``--spans``, the launcher first wraps
the public entry points the service calls — the front end, the
compiler, the program verifier, execution, the sequential reference
and the machine's placement and collection — in spans of an in-memory
recorder, and writes the spans to FILE when the daemon has stopped.
Each request's spans carry the request's ``id`` as their op id.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import Tracer, stop_resource_tracker  # noqa: E402


def install(tracer: Tracer, passes: list) -> None:
    """Wrap the layer entry points in spans of *tracer*; fresh compiles
    append their pass records ``[op, pass, wall_ms]`` to *passes*."""
    import repro.analysis
    import repro.codegen
    import repro.core
    import repro.frontend
    import repro.pipeline
    from repro.machine.distributed import DistributedMachine
    from repro.serve.service import ReproService

    compile_plan = repro.pipeline.compile_plan

    def traced_compile_plan(*args, **kwargs):
        with tracer.span("pipeline.compile_plan") as span:
            ir = compile_plan(*args, **kwargs)
        # a compile nested in another one's pass is inside that pass's time
        nested = span.parent is not None and \
            tracer.spans[span.parent].name == "pipeline.compile_plan"
        if not ir.trace.cache_hit and not nested:
            passes.extend([span.op, r.name, r.wall_ms] for r in ir.trace.records)
        return ir

    repro.pipeline.compile_plan = traced_compile_plan
    for module, attr, name in (
            (repro.frontend, "translate_source", "frontend.translate"),
            (repro.pipeline, "compile_program", "pipeline.compile_program"),
            (repro.analysis, "verify_program", "analysis.verify_program"),
            (repro.codegen, "run_distributed", "codegen.run_distributed"),
            (repro.core, "evaluate_program", "core.reference"),
            (DistributedMachine, "place", "machine.place.1d"),
            (DistributedMachine, "collect", "machine.collect.1d")):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    # the executor-side body of each request: its span names the op id
    # that every layer span beneath it inherits
    for attr in ("_do_compile", "_do_check", "_do_run"):
        setattr(ReproService, attr,
                tracer.wrap(getattr(ReproService, attr), "serve.execute",
                            op_of=lambda args: args[1].get("id")))


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] != ["serve"]:
        print("usage: launcher.py [--spans FILE] serve [serve options]", file=sys.stderr)
        return 2
    from repro.cli import build_parser
    from repro.runtime import shutdown_runtime
    from repro.serve.server import serve_main

    args = build_parser().parse_args(argv)
    tracer, passes = Tracer(), []
    if spans_path:
        install(tracer, passes)
    try:
        rc = serve_main(args)
    finally:
        shutdown_runtime()
        stop_resource_tracker()
    if spans_path:
        Path(spans_path).write_text(json.dumps(
            {"spans": [s.as_list() for s in tracer.spans], "passes": passes}))
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
