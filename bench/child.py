"""Child processes of the benchmark, each started cold by run.py.

    child.py setup WORKLOAD INPUT     time import + input building, print JSON
    child.py n4 INPUT OUT [--trace]   run one n4-sample pass, write JSON to OUT
    child.py cli TRACE_OUT -- ARGV    trace maxitive.cli.main(ARGV)
    child.py micro                    kernel microbenchmarks, print JSON

The library is imported from the checkout's src/ (run.py sets
PYTHONPATH).  Nothing is imported from it before the clock starts.
"""

from __future__ import annotations

import json
import sys
import time

START = time.perf_counter()


def _import_cli():
    """Import the whole package through its command line module and
    return the seconds it took."""
    t = time.perf_counter()
    import maxitive.cli  # noqa: F401
    return time.perf_counter() - t


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def setup(workload, path):
    """Import plus the workload's inputs: the verification instance
    pool, the sampled n4 objects, or one parsed instance file."""
    _import_cli()
    if workload == "verify-default":
        from maxitive import harness
        harness.measure_instances(harness.Bounds().validate())
    elif workload == "n4-sample":
        import n4
        with open(path, encoding="utf-8") as fh:
            n4.build(json.load(fh))
    elif workload == "cli-batch":
        from maxitive import instances
        instances.load_instance(path)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(json.dumps({"setup_s": time.perf_counter() - START}))


def run_n4(path, out_path, traced):
    import n4
    import_s = _import_cli()
    if traced:
        import tracing
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    targets, spaces, measures = n4.build(spec)
    setup_s = time.perf_counter() - START
    out = n4.run(targets, spaces, measures)
    out["setup_s"] = setup_s
    out["import_s"] = import_s
    if traced:
        restore()
        out["trace"] = tracer.summary()
    _write(out_path, out)


def run_cli(trace_out, argv):
    import_s = _import_cli()
    import tracing
    import maxitive.cli
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = maxitive.cli.main(argv)
    finally:
        restore()
        sys.stdout.flush()
        _write(trace_out, {"import_s": import_s, "trace": tracer.summary()})
    return code


def run_micro():
    import micro
    _import_cli()
    print(json.dumps(micro.measure()))


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest[0], rest[1])
    elif mode == "n4":
        run_n4(rest[0], rest[1], "--trace" in rest[2:])
    elif mode == "cli":
        if rest[1] != "--":
            raise SystemExit("usage: child.py cli TRACE_OUT -- ARGV")
        return run_cli(rest[0], rest[2:])
    elif mode == "micro":
        run_micro()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
