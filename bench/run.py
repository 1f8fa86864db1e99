"""Benchmark of maxitive: three seeded workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the library is imported from src/.
Every pass starts fresh, single-threaded processes one after another
(a closed loop with one client), because the library's module-level
caches turn any repeat inside one process into a replay.

Workloads (their inputs come from the seed; see sample.py):

* verify-default: one cold `maxitive verify all --format json` at
  default bounds.  The seed is not used: this is the fixed north-star
  run, and its stdout must hash to the recorded reference.
* n4-sample: one cold process builds a stratified sample of four-point
  spaces and measures on them, then runs analysis, the Hofmann-Mislove
  check and the T0 reflection with every T0 space on up to four points
  as factor target (space phase), and classify, upper_density,
  decompose and minimality_brute_force on each measure (measure phase).
* cli-batch: 42 cold `analyze`/`decompose --format json` calls on
  instance files written from the seed, some expected to exit 2 or 3.

With --trace 0, passes repeat while another pass of the same length
still fits in --seconds (at least one).  Every pass is split into the
same stages, each timed on its own: the verify run; the n4 process's
start-up, import and input building, then each space and each measure;
each CLI call.  A stage's time is its median over the passes, so that
a few seconds in which the shared machine runs slow spoil one pass's
copy of a stage, not the result:

  wall_s            wall time of one pass: the sum of its stages'
                    median wall times
  cpu_s             user+sys CPU of the pass's child processes: the sum
                    of its stages' median CPU times
  setup_s           median over 9 cold processes of `import maxitive`
                    plus building the workload's inputs
  peak_rss_mb       peak RSS of the largest child process of a pass,
                    median over the passes
  throughput_per_s  items per second of wall_s: instance checks
                    (verify-default), measures (n4-sample), CLI calls
                    (cli-batch)
  latency_p50_ms    median and 90th percentile of the latency of one
  latency_p90_ms    request, the sum of its stages' medians: the verify
                    run (verify-default); one space with the measures
                    drawn on it, three per pass (n4-sample); one CLI call
                    (cli-batch)

With --trace 1, one untraced pass, one traced pass and the kernel
microbenchmarks give the per-layer metrics (see tracing.py); layers a
workload does not call read 0.  trace.overhead_s is the traced pass's
wall time minus the untraced one's.

Every output is checked against bench/reference.json: the verify
stdout sha256, each n4 item's output digest, and each CLI call's exit
code and stdout sha256.  `attempted` counts checked outputs and
`failed` the mismatches; their ratio is the failure ratio.  The last
line of stdout is one JSON object with correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

import proc
import sample

WORKLOADS = ("verify-default", "n4-sample", "cli-batch")
SETUP_REPEATS = 9
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)

CASE_IDS = (
    "L-INTERP", "L-JCONT", "L-SEP", "T-HM", "T-T0", "C-TILDE", "E-NUPLUS",
    "L-LOCCONV", "L-WIC", "L-REG0", "P-LOCCOMP", "C-SC", "P-K", "P-F",
    "P-TRPOLISH", "C-SIGCOMP", "P-TENSIONEQ", "T-REG", "C-MAXDENS",
    "T-REGTIGHT", "P-OPT", "P-METRIC", "C-SCLC", "P-POLISH", "D-REGPART",
    "T-SING", "C-REGCHAR", "C-SINGCHAR", "C-OPTDEC",
)

PER_LAYER_NAMES = (
    "order.join.calls", "order.meet.calls", "order.sup_of_mask.calls",
    "order.inf_of_mask.calls", "order.check_domain.calls",
    "order.check_domain.self_s", "order.join.ns", "order.meet.ns",
    "topology.analysis.calls", "topology.analysis.misses",
    "topology.analysis.self_s", "topology.t0_reflection.calls",
    "topology.t0_reflection.self_s", "topology.hofmann_mislove_check.self_s",
    "topology.enumerate_topologies.self_s",
    "measure.value.calls", "measure.outer_value.calls",
    "measure.classify.calls", "measure.classify.distinct",
    "measure.classify.self_s", "measure.upper_density.self_s",
    "measure.outer_regularization.self_s", "measure.value.ns",
    "measure.outer_value.ns",
    "countable.tail_flags.calls", "countable.tail_flags.self_s",
    "countable.value.calls", "countable.sample_sets.calls",
    "decomposition.decompose.calls", "decomposition.decompose.misses",
    "decomposition.decompose.self_s", "decomposition.regular_part.self_s",
    "decomposition.singular_part.self_s",
    "decomposition.minimality_brute_force.self_s",
    "decomposition.minimality.candidates", "decomposition.errors",
    "harness.measure_instances.self_s",
    *(f"harness.case.{c}.self_s" for c in CASE_IDS),
    "harness.violations", "harness.vacuous",
    "instances.load_instance.self_s", "cli.import_s", "cli.analyze.self_s",
    "cli.decompose.self_s",
    "trace.overhead_s",
)

# tracer keys that feed a per-layer metric under another name
TRACE_ALIASES = {"decomposition.errors": "decomposition.decompose.errors"}


def unit_of(name):
    if name.endswith(".ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    return "count"


PER_LAYER = tuple((name, unit_of(name)) for name in PER_LAYER_NAMES)


@dataclass
class Pass:
    """What one pass of a workload measured and checked."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    items: int = 0            # work done: checks, measures or calls
    stages: dict = field(default_factory=dict)   # name -> (wall_s, cpu_s)
    requests: dict = field(default_factory=dict)  # name -> its stages
    attempted: int = 0        # outputs checked against the references
    failed: int = 0
    problems: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    note: str = ""

    def absorb(self, done):
        self.cpu_s += done.cpu_s
        self.rss_mb = max(self.rss_mb, done.rss_mb)

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)


class Context:
    """Inputs and scratch space of one benchmark run."""

    def __init__(self, workload, seed, reference, work):
        self.workload = workload
        self.reference = reference
        self.work = work
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.setup_input = "-"
        if workload == "n4-sample":
            spec, self.expected = sample.sample_n4(reference["n4_pool"], seed)
            self.requests = {sp["id"]: (sp["id"], *(m["id"] for m in
                                                   sp["measures"]))
                             for sp in spec["spaces"]}
            self.setup_input = os.path.join(work, "n4-spec.json")
            with open(self.setup_input, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        elif workload == "cli-batch":
            self.calls = sample.sample_cli(reference["cli_pool"], seed)
            folder = os.path.join(work, "instances")
            os.mkdir(folder)
            self.paths = sample.write_instances(self.calls, folder)
            self.setup_input = next(path for call, path in
                                    zip(self.calls, self.paths)
                                    if call["exit"] == 0)

    def remaining(self):
        return max(1.0, self.deadline - time.perf_counter())

    def path(self, name):
        return os.path.join(self.work, name)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _cli(ctx, p, args, traced, name):
    """Run one CLI call (traced through child.py when asked); return
    the finished process, its stdout bytes, and a problem or None."""
    out = ctx.path(f"{name}.stdout")
    trace_path = ctx.path(f"{name}.trace.json")
    argv = (proc.child_argv("cli", trace_path, "--", *args) if traced
            else proc.cli_argv(args))
    done = proc.run(argv, out, ctx.remaining())
    p.absorb(done)
    problem = None
    if traced:
        try:
            payload = json.loads(_read(trace_path))
            p.traces.append(payload["trace"])
            p.import_s.append(payload["import_s"])
        except (OSError, ValueError):
            problem = f"{args[0]}: the traced child wrote no trace"
    return done, _read(out), problem


def verify_pass(ctx, traced):
    ref = ctx.reference["verify_default"]
    p = Pass(attempted=1)
    done, data, problem = _cli(ctx, p, ref["argv"], traced, "verify")
    p.wall_s = done.wall_s
    p.stages["verify"] = (done.wall_s, done.cpu_s)
    p.requests["verify"] = ("verify",)
    if done.exit != ref["exit"]:
        problem = f"verify exited {done.exit}, expected {ref['exit']}"
    elif sample.sha256_bytes(data) != ref["stdout_sha256"]:
        problem = "verify report sha256 differs from the reference"
    if problem:
        p.fail(problem)
    else:
        p.items = json.loads(data)["total_instances"]
    return p


def n4_pass(ctx, traced):
    p = Pass(attempted=len(ctx.expected))
    out = ctx.path("n4-out.json")
    argv = proc.child_argv("n4", ctx.setup_input, out,
                           *(["--trace"] if traced else []))
    done = proc.run(argv, ctx.path("n4.stdout"), ctx.remaining())
    p.absorb(done)
    p.wall_s = done.wall_s
    try:
        result = json.loads(_read(out)) if done.exit == 0 else None
    except (OSError, ValueError):
        result = None
    if result is None:
        p.failed = p.attempted
        p.problems.append(f"n4 child exited {done.exit} without output")
        p.stages["process"] = (done.wall_s, done.cpu_s)
        return p
    items, items_cpu = result["item_s"], result["item_cpu_s"]
    p.stages["process"] = (done.wall_s - sum(items.values()),
                           done.cpu_s - sum(items_cpu.values()))
    p.stages.update((k, (items[k], items_cpu[k])) for k in items)
    p.requests.update(ctx.requests)
    got = {**result["spaces"], **result["measures"]}
    for item, want in sorted(ctx.expected.items()):
        if got.get(item) != want:
            p.fail(f"n4 item {item}: output digest differs")
    p.items = len(result["measures"])
    p.note = (f"space phase {result['space_phase_s']:.3f} s, measure phase "
              f"{result['measure_phase_s']:.3f} s of a {p.wall_s:.3f} s pass")
    if traced:
        p.traces.append(result["trace"])
        p.import_s.append(result["import_s"])
    return p


def cli_pass(ctx, traced):
    p = Pass(attempted=len(ctx.calls))
    start = time.perf_counter()
    for k, (call, path) in enumerate(zip(ctx.calls, ctx.paths)):
        args = [call["command"], path, "--format", "json"]
        name = f"call{k:03d}"
        done, data, problem = _cli(ctx, p, args, traced, name)
        p.stages[name] = (done.wall_s, done.cpu_s)
        p.requests[name] = (name,)
        if done.exit != call["exit"]:
            problem = f"exit {done.exit}, expected {call['exit']}"
        elif sample.sha256_bytes(data) != call["stdout_sha256"]:
            problem = "stdout differs from the reference"
        if problem:
            p.fail(f"{call['command']} {call['id']}: {problem}")
    p.wall_s = time.perf_counter() - start
    p.items = len(ctx.calls)
    return p


PASSES = {"verify-default": verify_pass, "n4-sample": n4_pass,
          "cli-batch": cli_pass}


def setup_time(ctx):
    out = ctx.path("setup.stdout")
    done = proc.run(proc.child_argv("setup", ctx.workload, ctx.setup_input),
                    out, ctx.remaining())
    if done.exit != 0:
        raise RuntimeError(f"setup child exited {done.exit}")
    return json.loads(_read(out))["setup_s"]


def percentile(values, q):
    """The q-th percentile (inclusive method) of values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def stage_medians(passes):
    """{stage: (median wall_s, median cpu_s)} over the passes that
    timed the stage, in the order the stages ran."""
    out = {}
    for name in dict.fromkeys(k for p in passes for k in p.stages):
        runs = [p.stages[name] for p in passes if name in p.stages]
        out[name] = (statistics.median(w for w, _ in runs),
                     statistics.median(c for _, c in runs))
    return out


def end_to_end(ctx, seconds):
    setups = [setup_time(ctx) for _ in range(SETUP_REPEATS)]
    run_pass = PASSES[ctx.workload]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ctx, traced=False))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall_s > seconds:
            break
    stages = stage_medians(passes)
    wall = sum(w for w, _ in stages.values())
    requests = {k: v for p in passes for k, v in p.requests.items()}
    # a run whose every n4 pass failed timed no request but the pass
    latencies = [sum(stages[k][0] for k in parts if k in stages) * 1000.0
                 for parts in requests.values()] or [wall * 1000.0]
    metrics = {
        "wall_s": wall,
        "cpu_s": sum(c for _, c in stages.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "throughput_per_s": max(p.items for p in passes) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 90),
    }
    notes = [f"{len(passes)} pass(es) of {len(stages)} stage(s); "
             f"{len(latencies)} latency samples, each from stage medians "
             f"over the passes; {SETUP_REPEATS} set-up processes",
             "pass wall times: " + ", ".join(f"{p.wall_s:.3f}" for p in passes)
             + " s"]
    notes.extend(p.note for p in passes[:1] if p.note)
    return metrics, passes, notes


def layer_metrics(traces, import_s, micro):
    """Per-layer metrics from the traced children's summaries, summed
    over children; cli.import_s is the median over children."""
    total = {}
    for summary in traces:
        for key, value in summary.items():
            total[key] = total.get(key, 0) + value
    out = {}
    for name in PER_LAYER_NAMES:
        key = TRACE_ALIASES.get(name, name)
        out[name] = total.get(key, 0)
    out["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    out.update(micro)
    return out


def per_layer(ctx):
    run_pass = PASSES[ctx.workload]
    plain = run_pass(ctx, traced=False)
    traced = run_pass(ctx, traced=True)
    out = ctx.path("micro.stdout")
    done = proc.run(proc.child_argv("micro"), out, ctx.remaining())
    if done.exit != 0:
        raise RuntimeError(f"microbenchmark child exited {done.exit}")
    metrics = layer_metrics(traced.traces, traced.import_s,
                            json.loads(_read(out)))
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    notes = [f"untraced pass {plain.wall_s:.3f} s, traced pass "
             f"{traced.wall_s:.3f} s, {len(traced.traces)} traced "
             f"process(es)"]
    return metrics, [plain, traced], notes


def run_workload(workload, seed, seconds, trace, reference):
    os.makedirs(os.path.join(proc.ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-",
                            dir=os.path.join(proc.ROOT, ".bench_work"))
    try:
        ctx = Context(workload, seed, reference, work)
        if trace:
            metrics, passes, notes = per_layer(ctx)
        else:
            metrics, passes, notes = end_to_end(ctx, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0,
            "attempted": sum(p.attempted for p in passes),
            "failed": failed, "metrics": metrics, "notes": notes,
            "problems": [x for p in passes for x in p.problems]}


def report_lines(workload, result, units):
    lines = [f"[{workload}]"]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    ratio = result["failed"] / result["attempted"]
    verdict = "ok" if result["correct"] else "FAILED"
    lines.append(f"  check: {result['attempted']} outputs checked, "
                 f"{result['failed']} failed (fail_ratio {ratio:.4g}): "
                 f"{verdict}")
    lines.extend(f"  note: {n}" for n in result["notes"])
    lines.extend(f"  problem: {x}" for x in result["problems"][:10])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="maxitive benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(proc.SRC, "maxitive", "cli.py")):
        print(f"error: no library source under {proc.SRC}; run from the "
              f"root of a maxitive checkout", file=sys.stderr)
        return 2
    reference = sample.load_reference()
    units = dict(END_TO_END + PER_LAYER)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, reference)
        print("\n".join(report_lines(args.workload, result, units)))
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in result["metrics"].items()}}))
        return 0

    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, args.seconds, trace,
                                  reference)
            print("\n".join(report_lines(
                f"{workload}, trace {trace}", result, units)), flush=True)
            correct = correct and result["correct"]
    print(f"check: {'all outputs match the references' if correct else 'FAILED'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
