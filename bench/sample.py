"""Seeded inputs for the workloads, drawn from the recorded pools.

`reference.json` holds two input pools with a reference output for
every item (written by record.py).  A workload seed draws a stratified
sample from a pool: the strata and the number drawn from each are fixed
below, so the amount of work per pass hardly depends on the seed while
the items themselves do.  n4 measures are drawn one per band of their
recorded work, so that the slowest measures of a pass, and with them
its latency percentiles, do not depend on the seed either.  This
module imports nothing from the library.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# n4-sample: one space drawn from each stratum (a homeomorphism class
# of four-point spaces), then, on every drawn space, measures drawn per
# lattice, one from each band of recorded work.
N4_MEASURES = (("chain2", 6), ("chain3", 6), ("diamond", 2), ("extreal", 2))

# cli-batch: (category, command, expected exit, calls) per pass.
CLI_MIX = (
    ("chain", "analyze", 0, 7), ("chain", "decompose", 0, 7),
    ("chain4", "analyze", 0, 1), ("chain4", "decompose", 0, 1),
    ("diamond", "analyze", 0, 3), ("diamond", "decompose", 0, 3),
    ("extreal", "analyze", 0, 3), ("extreal", "decompose", 0, 3),
    ("tail", "analyze", 0, 5), ("tail", "decompose", 0, 5),
    ("bad_input", "analyze", 2, 1), ("bad_input", "decompose", 2, 1),
    ("precondition", "decompose", 3, 2),
)


def digest(obj):
    """sha256 of the canonical JSON of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def bands(measures, count):
    """measures split into count bands of consecutive recorded work,
    as equal in size as they can be."""
    ranked = sorted(measures, key=lambda m: (m["work"], m["id"]))
    n = len(ranked)
    return [ranked[k * n // count:(k + 1) * n // count]
            for k in range(count)]


def sample_n4(pool, seed):
    """(spec, expected): the spec holds only inputs; expected maps each
    item id to its reference digest."""
    rng = random.Random(f"n4-sample:{seed}")
    spec = {"spaces": []}
    expected = {}
    for stratum in sorted({s["stratum"] for s in pool["spaces"]}):
        members = [s for s in pool["spaces"] if s["stratum"] == stratum]
        for sp in rng.sample(members, 1):
            chosen = []
            for lattice, per in N4_MEASURES:
                options = [m for m in sp["measures"]
                           if m["lattice"] == lattice]
                chosen.extend(rng.choice(band)
                              for band in bands(options, per))
            spec["spaces"].append({
                "id": sp["id"], "names": sp["names"], "opens": sp["opens"],
                "measures": [{"id": m["id"], "lattice": m["lattice"],
                              "values": m["values"]} for m in chosen]})
            expected[sp["id"]] = sp["digest"]
            expected.update((m["id"], m["digest"]) for m in chosen)
    return spec, expected


def sample_cli(pool, seed):
    """The batch of one pass, in call order: dicts with the item id,
    the instance text, the command and its expected exit and stdout
    digest."""
    rng = random.Random(f"cli-batch:{seed}")
    calls = []
    for category, command, code, count in CLI_MIX:
        options = [it for it in pool if it["category"] == category
                   and it[command]["exit"] == code]
        for it in rng.sample(options, count):
            calls.append({"id": it["id"], "text": it["text"],
                          "command": command, "exit": code,
                          "stdout_sha256": it[command]["stdout_sha256"]})
    rng.shuffle(calls)
    return calls


def write_instances(calls, directory):
    """Write one instance file per call; return the paths in order."""
    paths = []
    for k, call in enumerate(calls):
        path = os.path.join(directory, f"{k:03d}-{call['id']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(call["text"])
        paths.append(path)
    return paths
