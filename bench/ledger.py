"""Repeat the benchmark over seeds and summarise the spread.

    python3 bench/ledger.py --seeds 1-10 --out ledger.json [--traced-seed 1]
    python3 bench/ledger.py --merge a.json b.json --out bench/baseline.json

Each run is `python3 bench/run.py --workload W --seed S --seconds
<run_seconds from BENCHMARK.json> --trace 0` in its own process, as the
benchmark is meant to be run.  For every end-to-end metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the
spread: the interquartile distance as a share of the median.  With
--traced-seed, one traced run per workload is added.  --merge puts
several ledgers side by side with the machine they ran on and checks
that their traced counts agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import proc
import run


def _benchmark():
    with open(os.path.join(proc.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(proc.HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=proc.ROOT,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results):
    out = {"attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results), "metrics": {}}
    for name, _unit in run.END_TO_END:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out["metrics"][name] = {"values": values, "median": median,
                                "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median}
    return out


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(), "machine": platform.machine()}


def collect(seeds, traced_seed):
    seconds = _benchmark()["run_seconds"]
    ledger = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}, "traced": {}}
    for workload in run.WORKLOADS:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: "
                  f"{results[-1]['metrics']['wall_s']['value']:.3f} s",
                  file=sys.stderr, flush=True)
        ledger["workloads"][workload] = summarise(results)
        if traced_seed is not None:
            result = run_once(workload, traced_seed, seconds, 1)
            ledger["traced"][workload] = {
                "seed": traced_seed, "correct": result["correct"],
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()}}
    return ledger


def merge(ledgers):
    counts = [name for name, unit in run.PER_LAYER if unit == "count"]
    agree = {}
    for workload in run.WORKLOADS:
        traced = [lg["traced"][workload] for lg in ledgers
                  if workload in lg.get("traced", {})]
        same_seed = len({t["seed"] for t in traced}) == 1
        agree[workload] = bool(traced) and same_seed and all(
            t["metrics"][c] == traced[0]["metrics"][c]
            for t in traced for c in counts)
    return {"machine": ledgers[0]["machine"], "sets": ledgers,
            "traced_counts_repeat": agree}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--merge", nargs="+", metavar="LEDGER")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.merge:
        ledgers = []
        for path in args.merge:
            with open(path, encoding="utf-8") as fh:
                ledgers.append(json.load(fh))
        payload = merge(ledgers)
    else:
        payload = collect(_seeds(args.seeds), args.traced_seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
