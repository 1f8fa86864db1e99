"""Regular and singular parts of a maxitive measure.

The regular part of a measure takes each set to the join, over its
compact Borel subsets, of their outer values.  The singular part takes
a set to the least level t such that on every subset the outer value
stays within t of the regular part; the join of the two parts restores
the outer regularization, and the singular part is the least measure
doing so.  The backend of the measure computes both parts; this module
checks the preconditions, the identities tying the parts together and,
by enumeration, minimality.

On a finite space every set is compact, so the regular part is the
outer regularization and the singular part completing it is bottom:
the finite backend returns both as stated, and the tests compare them
with the literal join over compact subsets and with the least
completion.  The countable backend takes each least level from
order.least_completion, which scans the levels literally on finite
lattices and joins the residuals on chains, and cross-checks the two
routes whenever both apply.

decompose also checks that taking the regular part is idempotent and
that the singular part of the regular part vanishes.  It reads both
parts of the regular part from decompose(reg), a hit on its own cache
whenever the regular part is itself a pool measure, so each distinct
measure has its parts computed once; a measure that is its own regular
part reuses its own parts.

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


def singular_part(measure, regular=None):
    """The least measure whose join with the regular part restores the
    outer regularization."""
    _require_preconditions(measure.lattice, singular=True)
    reg = regular if regular is not None else regular_part(measure)
    return measure.backend.singular_part(measure, reg)


class Decomposition(namedtuple("Decomposition", (
        "measure outer regular singular identity_holds "
        "singular_vanishes_on_compacts regular_part_idempotent "
        "singular_of_regular_vanishes"))):
    """A measure split into outer, regular, and singular components,
    with the structural claims about the split checked literally."""

    __slots__ = ()

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
    return measure.backend.zero_like(measure)


# the decomposition, if any, that is decomposing its regular part; a
# decomposition started inside it computes the parts of its own regular
# part directly, so regular parts that never settle (a fault) stop after
# one step instead of recursing without end
_UNDER_WAY = []


@lru_cache(maxsize=None)
def decompose(measure):
    """Split a measure and check the identities tying the parts together;
    the parts of the regular part are those of decompose(reg)."""
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

    if reg == measure:
        # the regular part of reg is regular_part(measure) again
        reg_again, sing_of_reg = reg, sing
    elif _UNDER_WAY:
        reg_again = regular_part(reg)
        sing_of_reg = singular_part(reg, regular=reg_again)
    else:
        _UNDER_WAY.append(measure)
        try:
            inner = decompose(reg)
        finally:
            _UNDER_WAY.pop()
        reg_again, sing_of_reg = inner.regular, inner.singular
    idempotent = reg_again == reg
    vanishes2 = all(sing_of_reg.value(b) == lat.bottom for b in domain)

    return Decomposition(measure, outer, reg, sing, identity, vanishes,
                         idempotent, vanishes2)


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
