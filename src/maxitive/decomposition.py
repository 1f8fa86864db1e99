"""Regular and singular parts of a maxitive measure.

The regular part of a measure takes each set to the join, over its
compact Borel subsets, of their outer values.  The singular part takes
a set to the least level t such that on every subset the outer value
stays within t of the regular part; the join of the two parts restores
the outer regularization, and the singular part is the least measure
doing so.  The level sets are scanned literally on finite lattices and
resolved by a residual on chains, and whenever both routes apply they
are cross-checked against each other.

Preconditions: the regular part needs a continuous, conditionally
complete value lattice, and the singular part additionally needs it
distributive, since the least completion level is the minimum of a
filter of levels only then.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .countable import FinCofinSet, TailDensity, sample_sets
from .errors import CrossCheckError, PreconditionError
from .measure import MaxitiveMeasure
from .order import check_domain, join_all


def residual(lattice, p, q):
    """Least t on a chain with p below join(q, t): bottom when q
    already covers p, otherwise p itself."""
    if not lattice.is_chain():
        raise PreconditionError("residuals are defined on chains only")
    return lattice.bottom if lattice.le(p, q) else p


def precondition_failure(lattice, singular=True):
    """Why the singular part (or, with singular false, the regular
    part) is undefined over the lattice; None when it is defined."""
    report = check_domain(lattice)
    if not report.is_lattice:
        return "the value poset is not a lattice"
    if not (report.continuous and report.conditionally_complete):
        return "the regular part needs a continuous conditionally complete lattice"
    if singular and not report.distributive:
        return "the singular part needs a distributive value lattice"
    return None


def _require_preconditions(lattice, singular):
    failure = precondition_failure(lattice, singular)
    if failure:
        raise PreconditionError(failure)


def regular_part(measure):
    """The compactly supported inner approximation of the outer
    regularization, as a measure.

    On the finite backend every Borel set is compact, so the join of
    outer values over compact subsets is attained at the set itself and
    the regular part coincides with the outer regularization; the
    literal join is still computed and compared.  On the countable
    backend the compact sets are the finite ones, so the regular part
    keeps the pointwise density and drops the infinite mass.
    """
    _require_preconditions(measure.lattice, singular=False)
    lat = measure.lattice
    if measure.is_finite_backend:
        outer = measure.outer_regularization()
        compacts = measure.compact_sets()
        for b in measure.sets():
            lit = join_all(lat, (measure.outer_value(k)
                                 for k in compacts if not k & ~b))
            if lit != outer.value(b):
                raise CrossCheckError(
                    f"regular part at {b:b} differs from the outer "
                    f"regularization despite every Borel set being compact")
        return outer
    td = measure.tail
    reg = TailDensity(lat, dict(td.exceptions), td.tail, lat.bottom)
    finite_pool = measure.compact_sets()
    for s in measure.sets():
        lit = join_all(lat, itertools.chain(
            (td.value(k) for k in finite_pool if k.issubset(s)),
            (td.value(FinCofinSet.of_points(s.members(limit=k)[:k]))
             for k in range(1, 8))))
        if lit != reg.value(s):
            raise CrossCheckError(
                f"regular part at {s!r}: finite approximations reach {lit!r}, "
                f"expected {reg.value(s)!r}")
    return MaxitiveMeasure.from_tail(reg)


def singular_part(measure, regular=None):
    """The least measure whose join with the regular part restores the
    outer regularization."""
    _require_preconditions(measure.lattice, singular=True)
    reg = regular if regular is not None else regular_part(measure)
    if measure.is_finite_backend:
        table = _singular_table_finite(measure, reg)
        return MaxitiveMeasure.from_table(measure.space, measure.lattice, table)
    sigma = _singular_mass_countable(measure, reg)
    lat = measure.lattice
    sing = TailDensity(lat, {}, lat.bottom, sigma)
    _verify_countable_decomposition(measure, reg, sing)
    return MaxitiveMeasure.from_tail(sing)


def _singular_table_finite(measure, reg):
    lat = measure.lattice
    borel = measure.sets()

    def completes(b, t):
        return all(lat.le(measure.outer_value(a), lat.join(reg.value(a), t))
                   for a in borel if not a & ~b)

    table = {}
    for b in borel:
        if lat.is_finite:
            levels = [t for t in lat.values() if completes(b, t)]
            if not levels:
                raise CrossCheckError(
                    f"no completion level at {b:b}, not even the top")
            least = levels[0]
            for t in levels[1:]:
                least = lat.meet(least, t)
            # the levels must be exactly the filter above their meet
            up_of_least = {t for t in lat.values() if lat.le(least, t)}
            if set(levels) != up_of_least:
                raise CrossCheckError(
                    f"completion levels at {b:b} do not form the filter "
                    f"above {least!r}")
        else:
            # chain: the least level is the join of per-subset residuals
            least = join_all(lat, (residual(lat, measure.outer_value(a),
                                            reg.value(a))
                                   for a in borel if not a & ~b))
            if not completes(b, least):
                raise CrossCheckError(
                    f"residual level at {b:b} does not complete")
            if least != lat.bottom and completes(b, lat.bottom):
                raise CrossCheckError(
                    f"level bottom already completes at {b:b}, "
                    f"yet the residual is {least!r}")
        table[b] = least
    return table


def _singular_mass_countable(measure, reg):
    """The singular part of a tail measure is uniform: zero on finite
    sets and one fixed mass on infinite ones.  The binding constraint
    for an infinite set is its exception-free infinite subset, where
    the outer value is tail + infinite mass and the regular part gives
    only the tail; constraints from other subsets are dominated, since
    joining the same exceptional supremum to both sides of an
    inequality preserves it."""
    td = measure.tail
    lat = td.lattice
    free = FinCofinSet.cofinite(x for x, _ in td.exceptions)
    target = td.value(free)
    base = reg.value(free)

    by_residual = residual(lat, target, base)
    if lat.is_finite:
        levels = [t for t in lat.values()
                  if lat.le(target, lat.join(base, t))]
        least = levels[0]
        for t in levels[1:]:
            least = lat.meet(least, t)
        if least not in levels:
            raise CrossCheckError("least completion level escapes the levels")
        if least != by_residual:
            raise CrossCheckError(
                f"level scan gives {least!r} but the residual gives "
                f"{by_residual!r}")
    else:
        if not lat.le(target, lat.join(base, by_residual)):
            raise CrossCheckError("the residual level does not complete")
        if by_residual != lat.bottom and lat.le(target, base):
            raise CrossCheckError("a nonzero residual despite completion at bottom")
    return by_residual


def _verify_countable_decomposition(measure, reg, sing):
    """Literal check of the least-completion property on the sample
    pool: the singular value at each set completes every sampled
    subset, and nothing strictly below it does at the binding one."""
    td = measure.tail
    lat = td.lattice
    pool = sample_sets(td)
    for b in pool:
        t = sing.value(b)
        for a in pool:
            if a.issubset(b):
                if not lat.le(td.value(a), lat.join(reg.value(a), t)):
                    raise CrossCheckError(
                        f"singular level {t!r} at {b!r} fails on subset {a!r}")
        if t != lat.bottom:
            free = FinCofinSet.cofinite(x for x, _ in td.exceptions)
            binding = free.intersection(b)
            if not lat.le(td.value(binding),
                          lat.join(reg.value(binding), lat.bottom)):
                continue
            raise CrossCheckError(
                f"singular level at {b!r} is {t!r} but bottom completes")


@dataclass(frozen=True)
class Decomposition:
    """A measure split into outer, regular, and singular components,
    with the structural claims about the split checked literally."""

    measure: MaxitiveMeasure
    outer: MaxitiveMeasure
    regular: MaxitiveMeasure
    singular: MaxitiveMeasure
    identity_holds: bool
    singular_vanishes_on_compacts: bool
    regular_part_idempotent: bool
    singular_of_regular_vanishes: bool

    @property
    def ok(self):
        return (self.identity_holds and self.singular_vanishes_on_compacts
                and self.regular_part_idempotent
                and self.singular_of_regular_vanishes)

    def is_regular_measure(self):
        """The singular part vanishes identically."""
        return self.singular == zero_measure_like(self.measure)

    def is_purely_singular(self):
        """The regular part vanishes identically."""
        return self.regular == zero_measure_like(self.measure)


def zero_measure_like(measure):
    lat = measure.lattice
    if measure.is_finite_backend:
        return MaxitiveMeasure(
            measure.space, lat,
            atom_values=[lat.bottom] * len(measure.point_classes()))
    return MaxitiveMeasure.from_tail(
        TailDensity(lat, {}, lat.bottom, lat.bottom))


@lru_cache(maxsize=None)
def decompose(measure):
    """Split a measure and check the identities tying the parts together."""
    lat = measure.lattice
    outer = measure.outer_regularization()
    reg = regular_part(measure)
    sing = singular_part(measure, regular=reg)

    domain = measure.sets()
    identity = all(
        outer.value(b) == lat.join(reg.value(b), sing.value(b))
        for b in domain)
    vanishes = all(sing.value(k) == lat.bottom
                   for k in measure.compact_sets())

    reg_again = regular_part(reg)
    idempotent = reg_again == reg

    sing_of_reg = singular_part(reg, regular=reg_again)
    vanishes2 = all(sing_of_reg.value(b) == lat.bottom for b in domain)

    return Decomposition(measure, outer, reg, sing, identity, vanishes,
                         idempotent, vanishes2)


@dataclass(frozen=True)
class MinimalityReport:
    checked: bool
    least: bool
    candidates: int


def minimality_brute_force(measure, dec=None):
    """Verify by enumeration that the singular part is the least
    measure completing the decomposition.

    On the finite backend every maxitive measure is an atom assignment,
    so all of them are enumerated.  On the countable backend the
    candidates are the tail measures with exceptions among the
    measure's own exceptional points: a candidate with other exceptions
    dominates its restriction pointwise, so it cannot undercut the
    singular part anywhere the restriction does not.  Requires a finite
    value lattice; anything else reports unchecked.
    """
    if dec is None:
        dec = decompose(measure)
    lat = measure.lattice
    if not lat.is_finite:
        return MinimalityReport(False, True, 0)
    outer, reg, sing = dec.outer, dec.regular, dec.singular
    if measure.is_finite_backend:
        candidates = (
            MaxitiveMeasure(measure.space, lat, atom_values=assign)
            for assign in itertools.product(
                lat.values(), repeat=len(measure.point_classes())))
    else:
        points = [x for x, _ in measure.tail.exceptions]
        candidates = (
            MaxitiveMeasure.from_tail(TailDensity(
                lat, dict(zip(points, combo)), combo[-2], combo[-1]))
            for combo in itertools.product(lat.values(),
                                           repeat=len(points) + 2))
    domain = measure.sets()
    count = 0
    least = True
    for tau in candidates:
        if all(outer.value(b) == lat.join(reg.value(b), tau.value(b))
               for b in domain):
            count += 1
            if not all(lat.le(sing.value(b), tau.value(b)) for b in domain):
                least = False
    return MinimalityReport(True, least, count)
