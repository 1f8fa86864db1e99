"""Build the input pools and record the reference outputs.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/record.py [--only verify|n4|cli]

writes bench/reference.json.  Pools are drawn with fixed seeds, so a
rerun on unchanged library code reproduces the file byte for byte.
Record again only when a pool changes: the references are the
benchmark's correctness gate, and a speedup must leave them as they
are.

* verify-default: the sha256 of `maxitive verify all --format json`
  from a cold process, with its instance and violation totals.
* n4-sample: relabelings of four-point spaces from three homeomorphism
  classes (each class is one stratum) and, on each, the same measures
  valued in chains of 2 and 3 elements, the diamond and the extended
  rationals, carried over by the relabeling: which relabeling a seed
  draws changes the labels, and with them every output, but hardly the
  work;
  the reference is the canonical sha256 of each item's outputs (see
  n4.py), and each measure's work is its count of `value` calls.
* cli-batch: instance documents written here, not by the library's
  generator; the reference is the exit code and stdout sha256 of
  `analyze` and `decompose` on each, each from a cold process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import tempfile

import proc
import sample

CLASSES = {4: 1, 3: 2}   # atoms -> homeomorphism classes drawn
MEMBERS_PER_CLASS = 8
MEASURES_PER_LATTICE = {"chain2": 12, "chain3": 12, "diamond": 4,
                        "extreal": 4}
EXTREAL_VALUES = ("0", "1/3", "1/2", "1", "2", "inf")

DIAMOND = {"kind": "finite", "names": ["0", "a", "b", "1"],
           "le": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
PENTAGON = {"kind": "finite", "names": ["0", "a", "b", "c", "1"],
            "le": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"],
                   ["c", "1"]]}
M3 = {"kind": "finite", "names": ["0", "a", "b", "c", "1"],
      "le": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"],
             ["c", "1"]]}


# n4-sample pool

def _eligible(space):
    """Four atoms and 6 opens, or three atoms and 4 or 5 opens: the
    classes whose T0 factorization check costs about the same."""
    from maxitive import analysis
    atoms, opens = len(analysis(space).atoms), len(space.opens)
    return (atoms == 4 and opens == 6) or (atoms == 3 and opens in (4, 5))


def _image(perm, mask):
    """mask with point i renamed perm[i]."""
    return sum(1 << p for i, p in enumerate(perm) if mask >> i & 1)


def _class_key(space):
    """The homeomorphism class: the least relabeled open family."""
    return min(tuple(sorted(_image(perm, m) for m in space.opens))
               for perm in itertools.permutations(range(space.n)))


def _relabeling(src, dst):
    """A renaming of the points that carries src's opens onto dst's."""
    want = set(dst.opens)
    for perm in itertools.permutations(range(src.n)):
        if {_image(perm, m) for m in src.opens} == want:
            return perm
    raise ValueError("the spaces are not homeomorphic")


def _carry(values, src, dst):
    """Atom values of a measure on src, carried to the atoms of dst."""
    from maxitive import analysis
    perm = _relabeling(src, dst)
    by_image = {_image(perm, a): v
                for a, v in zip(analysis(src).atoms, values)}
    return [by_image[a] for a in analysis(dst).atoms]


def _assignments(rng, values, atoms, count):
    every = list(itertools.product(values, repeat=atoms))
    return [list(a) for a in rng.sample(every, min(count, len(every)))]


def n4_pool():
    import n4
    from maxitive import topology
    rng = random.Random("n4-pool")
    classes = {}
    for space in topology.enumerate_topologies(4):
        if _eligible(space):
            classes.setdefault(_class_key(space), []).append(space)
    chosen = []
    for atoms, count in CLASSES.items():
        keys = sorted(k for k, members in classes.items()
                      if len(topology.analysis(members[0]).atoms) == atoms)
        for c, key in enumerate(rng.sample(keys, count)):
            members = rng.sample(classes[key], min(MEMBERS_PER_CLASS,
                                                   len(classes[key])))
            chosen.append((f"{atoms}atoms-{c}", members))
    spec = {"spaces": []}
    for stratum, members in chosen:
        first = members[0]
        atoms = len(topology.analysis(first).atoms)
        drawn = []
        for lattice, count in MEASURES_PER_LATTICE.items():
            lat = n4.lattice_of(lattice)
            values = (EXTREAL_VALUES if lattice == "extreal"
                      else list(lat.values()))
            drawn.extend((lattice, a)
                         for a in _assignments(rng, values, atoms, count))
        for space in members:
            sid = f"s{len(spec['spaces']):02d}"
            spec["spaces"].append({
                "id": sid, "stratum": stratum, "names": list(space.names),
                "opens": sorted(space.opens),
                "measures": [{"id": f"{sid}.m{j:02d}", "lattice": lattice,
                              "values": _carry(a, first, space)}
                             for j, (lattice, a) in enumerate(drawn)]})
    targets, spaces, built = n4.build(spec)
    out = n4.run(targets, spaces, [])
    done = _measure_outputs(built)
    for sp in spec["spaces"]:
        sp["digest"] = out["spaces"][sp["id"]]
        for m in sp["measures"]:
            m["digest"], m["work"] = done[m["id"]]
        print(f"n4 {sp['id']} {sp['stratum']}: {len(sp['measures'])} "
              f"measures", file=sys.stderr)
    return spec


def _measure_outputs(measures):
    """Digest and work of each measure's n4 outputs.  The work is the
    number of `MaxitiveMeasure.value` calls, counted by the tracer: a
    measure of cost that does not depend on the machine, in whose
    bands sample.py draws measures.  Tracing leaves outputs as they
    are (bench/tests checks this)."""
    import n4
    import tracing
    tracer = tracing.Tracer()
    calls = tracer.cell("measure.value.calls")
    restore = tracing.install(tracer)
    try:
        out = {}
        for mid, measure in measures:
            before = calls[0]
            digest = sample.digest(n4.measure_output(measure))
            out[mid] = (digest, calls[0] - before)
    finally:
        restore()
    return out


# cli-batch pool

def _preorder_space(rng, n):
    """A random finite space as a subbasis: the up-closures of the
    points under a random transitive relation."""
    names = "abcd"[:n]
    up = [{i} for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                up[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            reach = set().union(*(up[j] for j in up[i]))
            if reach != up[i]:
                up[i] = reach
                changed = True
    subbasis = [sorted(names[j] for j in up[i]) for i in range(n)]
    return {"kind": "finite", "points": list(names), "subbasis": subbasis}


def _density(rng, space, values):
    return {"kind": "density",
            "values": {p: rng.choice(values) for p in space["points"]
                       if rng.random() < 0.8}}


def _finite_doc(rng, n, lattice, values):
    space = _preorder_space(rng, n)
    return {"lattice": lattice, "space": space,
            "measure": _density(rng, space, values)}


def _tail_doc(rng, lattice, values):
    points = rng.sample(range(7), rng.randrange(4))
    return {"lattice": lattice, "space": {"kind": "countable_discrete"},
            "measure": {"kind": "tail",
                        "exceptions": {str(x): rng.choice(values)
                                       for x in sorted(points)},
                        "tail": rng.choice(values),
                        "infinite_mass": rng.choice(values)}}


def _chain(rng):
    k = rng.randrange(2, 5)
    return {"kind": "chain", "size": k}, [str(i) for i in range(k)]


def cli_documents():
    """(category, instance text) pairs."""
    rng = random.Random("cli-pool")
    docs = []
    for _ in range(40):
        lat, vals = _chain(rng)
        docs.append(("chain", _finite_doc(rng, rng.randrange(1, 4), lat,
                                          vals)))
    for _ in range(8):
        lat, vals = _chain(rng)
        docs.append(("chain4", _finite_doc(rng, 4, lat, vals)))
    for _ in range(20):
        docs.append(("diamond", _finite_doc(rng, rng.randrange(1, 4),
                                            DIAMOND, DIAMOND["names"])))
    for _ in range(20):
        docs.append(("extreal", _finite_doc(rng, rng.randrange(1, 4),
                                            {"kind": "extreal"},
                                            list(EXTREAL_VALUES))))
    for _ in range(30):
        lat, vals = _chain(rng)
        docs.append(("tail", _tail_doc(rng, lat, vals)))
    for k in range(6):
        lat = PENTAGON if k % 2 else M3
        docs.append(("precondition", _finite_doc(rng, rng.randrange(1, 4),
                                                 lat, lat["names"])))
    for _ in range(2):
        docs.append(("precondition", _tail_doc(rng, DIAMOND,
                                               DIAMOND["names"])))
    out = [(c, json.dumps(d, indent=2, sort_keys=True)) for c, d in docs]
    good = _finite_doc(rng, 2, {"kind": "chain", "size": 3}, ["0", "1", "2"])
    bad = [
        json.dumps(good)[:-7],
        json.dumps(dict(good, lattice={"kind": "torus"})),
        json.dumps(dict(good, lattice={"kind": "chain", "size": 0})),
        json.dumps(dict(good, space={"kind": "finite", "points": ["a"],
                                     "subbasis": [["z"]]})),
        json.dumps(dict(good, measure={"values": {}})),
        json.dumps(dict(good, measure={"kind": "density",
                                       "values": {"a": "7"}})),
        json.dumps(dict(good, measure={"kind": "tail", "exceptions": {},
                                       "tail": "0", "infinite_mass": "0"})),
        json.dumps(dict(good, lattice={"kind": "extreal"},
                        measure={"kind": "density", "values": {"a": "1/0"}})),
    ]
    out.extend(("bad_input", text) for text in bad)
    return out


def cli_pool(work):
    items = []
    for k, (category, text) in enumerate(cli_documents()):
        item = {"id": f"c{k:03d}", "category": category, "text": text}
        path = os.path.join(work, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("analyze", "decompose"):
            stdout = os.path.join(work, "stdout")
            done = proc.run(proc.cli_argv([command, path, "--format",
                                           "json"]), stdout, 120)
            with open(stdout, "rb") as fh:
                item[command] = {"exit": done.exit,
                                 "stdout_sha256": sample.sha256_bytes(
                                     fh.read())}
        print(f"cli {item['id']} {category}: analyze "
              f"{item['analyze']['exit']}, decompose "
              f"{item['decompose']['exit']}", file=sys.stderr)
        items.append(item)
    return items


def verify_reference(work):
    stdout = os.path.join(work, "verify.json")
    done = proc.run(proc.cli_argv(["verify", "all", "--format", "json"]),
                    stdout, 600)
    with open(stdout, "rb") as fh:
        data = fh.read()
    report = json.loads(data)
    return {"argv": ["verify", "all", "--format", "json"], "exit": done.exit,
            "stdout_sha256": sample.sha256_bytes(data),
            "total_instances": report["total_instances"],
            "total_violations": report["total_violations"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=("verify", "n4", "cli"))
    args = parser.parse_args(argv)
    sys.path.insert(0, proc.SRC)
    try:
        ref = sample.load_reference()
    except FileNotFoundError:
        ref = {"schema": "maxitive-bench-reference/1"}
    os.makedirs(os.path.join(proc.ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(proc.ROOT, ".bench_work")) as work:
        if args.only in (None, "verify"):
            ref["verify_default"] = verify_reference(work)
        if args.only in (None, "n4"):
            ref["n4_pool"] = n4_pool()
        if args.only in (None, "cli"):
            ref["cli_pool"] = cli_pool(work)
    with open(sample.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
