"""The `n4-sample` workload body: four-point spaces and measures on them.

`build(spec)` turns a sampled spec (plain JSON, see sample.py) into
library objects; `space_output` and `measure_output` run one item
through the library and return its outputs as plain JSON, whose
canonical sha256 is compared with the recorded reference.  Library calls go
through module attributes so that tracing wrappers, once installed,
are seen.
"""

from __future__ import annotations

import time

from sample import digest

def lattice_of(kind):
    from maxitive import EXT_REALS, FinitePoset
    if kind == "chain2":
        return FinitePoset.chain(2)
    if kind == "chain3":
        return FinitePoset.chain(3)
    if kind == "diamond":
        return FinitePoset.diamond()
    if kind == "extreal":
        return EXT_REALS
    raise ValueError(f"unknown lattice kind {kind!r}")


def value_of(lattice, v):
    from maxitive import Ext
    return v if lattice.is_finite else Ext.of(v)


def build(spec):
    """Factor targets, spaces and measures of a sampled spec."""
    from maxitive import FiniteSpace, MaxitiveMeasure, topology
    targets = tuple(s for n in range(5)
                    for s in topology.enumerate_t0_spaces(n))
    spaces, measures = [], []
    for sp in spec["spaces"]:
        space = FiniteSpace(tuple(sp["names"]), sp["opens"])
        spaces.append((sp["id"], space))
        for m in sp["measures"]:
            lat = lattice_of(m["lattice"])
            values = [value_of(lat, v) for v in m["values"]]
            measures.append((m["id"], MaxitiveMeasure(space, lat,
                                                      atom_values=values)))
    return targets, spaces, measures


def space_output(space, targets):
    from maxitive import topology
    an = topology.analysis(space)
    hm = topology.hofmann_mislove_check(space)
    refl = topology.t0_reflection(space, factor_targets=targets)
    return {
        "predicates": an.predicates.as_dict(),
        "atoms": list(an.atoms),
        "borel": list(an.borel_masks),
        "compact": sorted(an.compact_masks),
        "irreducible_closed": list(an.irreducible_closed),
        "hofmann_mislove": [hm.binary_unions, hm.filtered_intersections,
                            hm.open_escape, hm.families_checked,
                            hm.exhaustive],
        "t0_reflection": [sorted(refl.quotient.opens), list(refl.point_map),
                          list(refl.class_masks)],
    }


def measure_output(measure):
    from maxitive import decomposition
    rec = measure.classify()
    info = measure.upper_density()
    dec = decomposition.decompose(measure)
    mini = decomposition.minimality_brute_force(measure, dec)

    def values(m):
        return [repr(v) for v in m.atom_values]
    return {
        "classification": rec.as_dict(),
        "upper_density": [[repr(v) for v in info.values], info.usc,
                          info.upper_compact],
        "decomposition": [values(dec.outer), values(dec.regular),
                          values(dec.singular), dec.identity_holds,
                          dec.singular_vanishes_on_compacts,
                          dec.regular_part_idempotent,
                          dec.singular_of_regular_vanishes],
        "minimality": [mini.checked, mini.least, mini.candidates],
    }


def run(targets, spaces, measures):
    """Both phases, timed: the space phase, then the measure phase.
    Every item gets its wall and CPU seconds ("item_s", "item_cpu_s")."""
    clock, cpu = time.perf_counter, time.process_time
    out = {"spaces": {}, "measures": {}, "item_s": {}, "item_cpu_s": {}}

    def timed(item, body):
        t, c = clock(), cpu()
        result = digest(body())
        out["item_s"][item] = clock() - t
        out["item_cpu_s"][item] = cpu() - c
        return result

    start = clock()
    for sid, space in spaces:
        out["spaces"][sid] = timed(sid, lambda: space_output(space, targets))
    split = clock()
    for mid, measure in measures:
        out["measures"][mid] = timed(mid, lambda: measure_output(measure))
    end = clock()
    out["space_phase_s"] = split - start
    out["measure_phase_s"] = end - split
    return out
