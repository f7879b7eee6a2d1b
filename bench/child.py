"""One driftform CLI invocation in a fresh interpreter, timed from inside.

    python child.py RESULT.json [--trace SPANS.jsonl RUN_ID] -- CLI_ARGS...

Times ``import driftform.cli`` and ``driftform.cli.main(argv)`` and writes
them, the exit status and the peak resident memory to RESULT.json.  With
``--trace`` the driftform layers are wrapped by :class:`tracer.Tracer` before
``main`` runs, the spans go to SPANS.jsonl and the per-layer metrics to
RESULT.json.

Only ``sys`` and ``time`` are loaded before the timed import, so the import
pays for everything driftform pulls in.
"""

import sys
import time


def _peak_rss_mb() -> float:
    """High-water mark of this process's resident memory.

    ``VmHWM`` belongs to the address space created at exec.  ``ru_maxrss``
    would also count the parent's memory at the moment it spawned this
    process, because the spawn shares the parent's address space until exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    args = sys.argv[1:]
    result_path = args[0]
    cli_argv = args[args.index("--") + 1:] if "--" in args else []
    start = time.perf_counter()
    import driftform.cli
    imported = time.perf_counter()

    import json

    result = {"import_s": imported - start, "driftform": driftform.__file__}
    tracer = None
    if args[1] == "--trace":
        from tracer import Tracer

        spans_path, run_id = args[2], args[3]
        tracer = Tracer(run_id)
        tracer.install()
    error = None
    begin = time.perf_counter()
    try:
        rc = driftform.cli.main(cli_argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # recorded as a failed invocation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - begin
    result.update(rc=rc, error=error, run_s=run_s)
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path)
        from tracer import wrapper_cost

        result["layers"] = tracer.layer_metrics(run_s, wrapper_cost())
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
