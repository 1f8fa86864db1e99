"""Microbenchmarks of the hot kernels on fixed, warmed inputs.

Each kernel is called over a fixed argument list; the list is built and
every call made once before timing, so only the calls are timed.  A
reading is the median over repeats of the time per call, in
nanoseconds, including the loop that makes the calls.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 7
MIN_REPEAT_S = 0.05


def _ns_per_call(fn, args_list):
    for args in args_list:          # warm-up, and any lazy set-up
        fn(*args)
    loops = 1
    while True:
        t = time.perf_counter()
        for _ in range(loops):
            for args in args_list:
                fn(*args)
        took = time.perf_counter() - t
        if took >= MIN_REPEAT_S:
            break
        loops *= 2
    readings = [took]
    for _ in range(REPEATS - 1):
        t = time.perf_counter()
        for _ in range(loops):
            for args in args_list:
                fn(*args)
        readings.append(time.perf_counter() - t)
    return statistics.median(readings) / (loops * len(args_list)) * 1e9


def inputs():
    """Lattices, a measure and its Borel sets: the chain and diamond
    lattices, and a fixed chain-valued measure on a three-point space
    with three Borel atoms."""
    from maxitive import FinitePoset, FiniteSpace, MaxitiveMeasure, analysis
    lattices = (FinitePoset.chain(3), FinitePoset.diamond())
    pairs = [(lat, a, b) for lat in lattices
             for a in lat.values() for b in lat.values()]
    space = FiniteSpace.from_subbasis(("a", "b", "c"), [0b001, 0b011])
    measure = MaxitiveMeasure.from_atom_values(space, FinitePoset.chain(3),
                                               [2, 0, 1])
    masks = [(b,) for b in analysis(space).borel_masks]
    return pairs, measure, masks


def measure():
    pairs, mu, masks = inputs()
    return {
        "order.join.ns": _ns_per_call(lambda lat, a, b: lat.join(a, b),
                                      pairs),
        "order.meet.ns": _ns_per_call(lambda lat, a, b: lat.meet(a, b),
                                      pairs),
        "measure.value.ns": _ns_per_call(mu.value, masks),
        "measure.outer_value.ns": _ns_per_call(mu.outer_value, masks),
    }
