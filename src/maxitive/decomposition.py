"""Regular and singular parts of a maxitive measure.

The regular part of a measure takes each set to the join, over its
compact Borel subsets, of their outer values.  The singular part takes
a set to the least level t such that on every subset the outer value
stays within t of the regular part; the join of the two parts restores
the outer regularization, and the singular part is the least measure
doing so.  The backend of the measure states both parts of its own
measure, with the proof in its docstrings; this module checks the
preconditions, the identities tying the parts together and, by
enumeration, minimality.

On a finite space every set is compact, so the regular part is the
outer regularization and the singular part is bottom.  On the countable
discrete space the compact sets are the finite ones, so the regular
part is the density without its infinite mass and the singular part is
that mass on every infinite set, each checked on the sample pool by
one witness of linear cost.  The literal routes, the join over compact
subsets and the least completion over every subset, are the oracles of
these statements in oracles.py.

A Decomposition also tells whether taking the regular part is
idempotent and whether the singular part of the regular part vanishes.
Both read the parts of the regular part from decompose(reg) when asked,
a hit on its cache whenever the regular part is itself a pool measure
or the measure itself, so each distinct measure has its parts computed
once.  decompose never calls itself, so regular parts that cycle (a
fault) show up as a failed check, not as a recursion.

Preconditions: the regular part needs a continuous, conditionally
complete value lattice, and the singular part additionally needs it
distributive, since the least completion level is the minimum of a
filter of levels only then.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import CrossCheckError, PreconditionError
from .order import check_domain, residual  # noqa: F401  (re-exported)


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
    regularization, as a measure, computed by the measure's backend."""
    _require_preconditions(measure.lattice, singular=False)
    return measure.backend.regular_part(measure)


def singular_part(measure):
    """The least measure whose join with the regular part restores the
    outer regularization, as the measure's backend states it."""
    _require_preconditions(measure.lattice, singular=True)
    return measure.backend.singular_part(measure)


class Decomposition(namedtuple("Decomposition", (
        "measure outer regular singular identity_holds "
        "singular_vanishes_on_compacts"))):
    """A measure split into outer, regular, and singular components,
    with the structural claims about the split checked literally."""

    __slots__ = ()

    @property
    def regular_part_idempotent(self):
        """The regular part is its own regular part."""
        return decompose(self.regular).regular == self.regular

    @property
    def singular_of_regular_vanishes(self):
        """The singular part of the regular part is bottom on every set
        of the measure."""
        return _vanishes(decompose(self.regular).singular,
                         self.measure.sets())

    @property
    def ok(self):
        return (self.identity_holds and self.singular_vanishes_on_compacts
                and self.regular_part_idempotent
                and self.singular_of_regular_vanishes)

    def is_regular_measure(self):
        """The singular part is bottom on every set of the measure."""
        return _vanishes(self.singular, self.measure.sets())

    def is_purely_singular(self):
        """The regular part is bottom on every set of the measure."""
        return _vanishes(self.regular, self.measure.sets())


def _vanishes(part, sets):
    bottom = part.lattice.bottom
    return all(part.value(b) == bottom for b in sets)


@lru_cache(maxsize=None)
def decompose(measure):
    """Split a measure and check that the outer regularization is the
    join of the parts and that the singular part vanishes on compact
    sets."""
    lat = measure.lattice
    outer = measure.outer_regularization()
    reg = regular_part(measure)
    sing = singular_part(measure)
    identity = all(
        outer.value(b) == lat.join(reg.value(b), sing.value(b))
        for b in measure.sets())
    vanishes = _vanishes(sing, measure.compact_sets())
    return Decomposition(measure, outer, reg, sing, identity, vanishes)


class MinimalityReport(namedtuple("MinimalityReport",
                                  "checked least candidates")):
    __slots__ = ()


def minimality_brute_force(measure, dec=None):
    """Verify by enumeration that the singular part is the least
    measure completing the decomposition.

    The measure's backend lists the candidates as value vectors, lists
    aligned with measure.sets(): every atom assignment on a finite
    space, the tail measures with exceptions among the measure's own on
    the countable one.  The outer, regular and singular values are read
    once, as lists in the same order.  (Lists, not tuples: CPython keeps
    up to 2 000 freed tuples of each small length for reuse, which would
    hold on to the memory of the last candidates.)  The singular part
    is itself a candidate, so a run in which no completing vector
    equals its vector checked nothing and raises CrossCheckError.
    Requires a finite value lattice; anything else reports unchecked.
    """
    if dec is None:
        dec = decompose(measure)
    lat = measure.lattice
    if not lat.is_finite:
        return MinimalityReport(False, True, 0)
    domain = measure.sets()
    outer, reg, sing = (list(map(part.value, domain))
                        for part in (dec.outer, dec.regular, dec.singular))
    # at each set, the levels t with outer = reg join t, and those above
    # the singular part
    levels = lat.values()
    completing = [frozenset(t for t in levels if lat.join(r, t) == o)
                  for o, r in zip(outer, reg)]
    above = [frozenset(t for t in levels if lat.le(s, t)) for s in sing]
    within = frozenset.__contains__
    count = 0
    least = True
    seen = False
    for tau in measure.backend.minimality_candidates(measure):
        if all(map(within, completing, tau)):
            count += 1
            seen = seen or tau == sing
            least = least and all(map(within, above, tau))
    if not seen:
        raise CrossCheckError("no completing candidate equals the singular "
                              "part, so the enumeration checked nothing")
    return MinimalityReport(True, least, count)
