"""Maxitive measures on the Borel algebra of a finite space, and their
classification, plus the bridge to the countable discrete backend.

A maxitive measure assigns the bottom value to the empty set and turns
binary unions into joins.  On a finite Borel algebra it is therefore
determined by its values on the atoms, so that tuple is the canonical
representation; tables are validated against maxitivity and reduced to
it.  Classification computes every flag from its definition,
quantifying over the (capped) families the space analysis provides,
and wherever two formulations of the same flag are available both are
computed and compared.

The quantifiers over families of sets read tables.  Each family pool
is built once per space as a family table: the families as tuples of
member masks, with the mask of each one's union and intersection,
every mask checked to be Borel when the table is built.  A check then
reads the measure's value table at those masks and folds the member
values through the lattice's join table, or takes their infimum with
inf, which on a finite poset reads a table keyed by the mask of the
values.  The literal quantifiers, which evaluate the measure on
each member and recompute the union or intersection, stay below as
test oracles.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .countable import COUNTABLE, FinCofinSet, TailDensity, cached_tail_flags
from .errors import (BudgetError, CrossCheckError, InputError,
                     MissingSupremumError, ValidationError)
from .order import EXT_REALS, Ext, FinitePoset, bits, join_all, level_grid
from .topology import (FiniteSpace, analysis, filtered_subfamilies,
                       subfamily_pool)


@dataclass(frozen=True)
class ClassificationRecord:
    """The continuity, smoothness, and approximation flags of a measure."""

    inner: bool
    outer: bool
    weak_inner: bool
    weak_outer: bool
    regular: bool
    saturated: bool
    q_smooth: bool
    f_smooth: bool
    k_smooth: bool
    tight: bool
    sigma_maxitive: bool
    completely_maxitive: bool
    continuous_from_above: bool
    optimal: bool
    usc_density_exists: bool

    _FIELDS = ("inner", "outer", "weak_inner", "weak_outer", "regular",
               "saturated", "q_smooth", "f_smooth", "k_smooth", "tight",
               "sigma_maxitive", "completely_maxitive",
               "continuous_from_above", "optimal", "usc_density_exists")

    def as_dict(self):
        return {f: getattr(self, f) for f in self._FIELDS}


@dataclass(frozen=True)
class DensityInfo:
    """The upper density of a measure: its pointwise values, whether it
    is upper semicontinuous, and whether its superlevel complements are
    compact."""

    values: object
    usc: bool
    upper_compact: bool


def _coerce_value(lattice, v):
    if lattice is EXT_REALS:
        return Ext.of(v)
    if isinstance(lattice, FinitePoset):
        if isinstance(v, str):
            return lattice.index(v)
        if isinstance(v, int) and not isinstance(v, bool) \
                and 0 <= v < lattice.n:
            return v
        raise InputError(f"value {v!r} outside the lattice")
    raise InputError(f"unsupported value lattice {lattice!r}")


class MaxitiveMeasure:
    """A maxitive measure over one of the two supported backends.

    Finite backend: a finite space plus one lattice value per Borel
    atom.  Countable backend: the countable discrete space plus a tail
    density.  Instances are immutable and hashable so classification
    can be cached.  Each measure keeps what it derives from itself: the
    analysis of its space, and its outer regularization and upper
    density once first asked for, so their literal checks run once per
    measure object.  A finite measure also keeps a value table, built
    on the first value() call: a tuple indexed by mask whose entry at
    each Borel set is the join of the atom values inside it, and None
    off the Borel algebra.
    """

    def __init__(self, space, lattice, atom_values=None, tail=None):
        self.space = space
        self.lattice = lattice
        self.is_finite_backend = isinstance(space, FiniteSpace)
        if self.is_finite_backend:
            atom_values = tuple(atom_values)
            an = analysis(space)
            if len(atom_values) != len(an.atoms):
                raise InputError("one value per atom required")
            _ = lattice.bottom  # the empty set needs a value; raises when absent
            self.atom_values = tuple(_coerce_value(lattice, v)
                                     for v in atom_values)
            self.tail = None
            self._an = an
        else:
            if not isinstance(tail, TailDensity):
                raise InputError("countable measures take a tail density")
            if tail.lattice != lattice:
                raise InputError("tail density lattice mismatch")
            self.atom_values = None
            self.tail = tail
            self._an = None
        self._outer = self._density = None

    @classmethod
    def from_atom_values(cls, space, lattice, values):
        """Measure from per-atom values: a sequence in atom order, or a
        mapping keyed by atom label."""
        an = analysis(space)
        if hasattr(values, "keys"):
            by_label = dict(values)
            unknown = set(by_label) - set(an.borel.atom_labels)
            if unknown:
                raise InputError(f"unknown atom labels {sorted(unknown)}")
            values = [by_label.get(lab, lattice.bottom)
                      for lab in an.borel.atom_labels]
        return cls(space, lattice, atom_values=values)

    @classmethod
    def from_density(cls, space, lattice, values):
        """Measure whose value on each atom is the join of the supplied
        pointwise values inside it; keys are point names or atom labels,
        missing keys contribute bottom."""
        an = analysis(space)
        atom_vals = [lattice.bottom] * len(an.atoms)
        for key, v in values.items():
            v = _coerce_value(lattice, v)
            if key in an.borel.atom_labels:
                i = an.borel.atom_labels.index(key)
            elif key in space.names:
                i = an.borel.atom_of_point[space.names.index(key)]
            else:
                raise InputError(f"unknown point or atom {key!r}")
            atom_vals[i] = lattice.join(atom_vals[i], v)
        return cls(space, lattice, atom_values=atom_vals)

    @classmethod
    def from_table(cls, space, lattice, table):
        """Measure from a full table over the Borel algebra.

        The table must cover every Borel set, send the empty set to
        bottom, and turn unions into joins; the first violated pair is
        reported as a witness.  The resulting measure reproduces the
        table exactly.
        """
        an = analysis(space)
        table = {int(k): _coerce_value(lattice, v) for k, v in table.items()}
        missing = [b for b in an.borel_masks if b not in table]
        if missing:
            raise InputError(f"table misses Borel sets {missing}")
        extra = [k for k in table if k not in an.borel.sets]
        if extra:
            raise InputError(f"table keys {extra} are not Borel sets")
        if table[0] != lattice.bottom:
            raise ValidationError("the empty set must carry the bottom value",
                                  witness=(0,))
        for a in an.borel_masks:
            for b in an.borel_masks:
                joined = lattice.join(table[a], table[b])
                if table[a | b] != joined:
                    raise ValidationError(
                        "table is not maxitive", witness=(a, b))
        measure = cls(space, lattice,
                      atom_values=[table[a] for a in an.atoms])
        for b in an.borel_masks:
            if measure.value(b) != table[b]:
                raise CrossCheckError(
                    f"atom reduction fails to reproduce the table at {b:b}")
        return measure

    @classmethod
    def from_tail(cls, tail):
        return cls(COUNTABLE, tail.lattice, tail=tail)

    def __eq__(self, other):
        return (isinstance(other, MaxitiveMeasure)
                and self.space == other.space
                and self.lattice == other.lattice
                and self.atom_values == other.atom_values
                and self.tail == other.tail)

    def __hash__(self):
        return hash((self.space, self.lattice, self.atom_values, self.tail))

    def __repr__(self):
        if self.is_finite_backend:
            vals = ", ".join(f"{lab}:{v!r}" for lab, v in zip(
                self._an.borel.atom_labels, self.atom_values))
            return f"MaxitiveMeasure({self.space!r}; {vals})"
        return f"MaxitiveMeasure(countable; {self.tail!r})"

    # the sets each backend quantifies over: the whole Borel algebra of
    # a finite space, the sample pool of a tail density

    def sets(self):
        if self.is_finite_backend:
            return self._an.borel_masks
        return self.tail.pool

    def compact_sets(self):
        if self.is_finite_backend:
            return self._an.compact_borel
        return tuple(s for s in self.tail.pool if s.kind == "finite")

    def point_classes(self):
        """The Borel atoms, or the exceptional singletons followed by
        the first three plain ones."""
        if self.is_finite_backend:
            return self._an.atoms
        pts = [x for x, _ in self.tail.exceptions]
        singles = [FinCofinSet.of_points((x,)) for x in pts]
        free = FinCofinSet.cofinite(pts)
        singles.extend(FinCofinSet.of_points((x,))
                       for x in free.members(limit=3))
        return tuple(singles)

    def closed_sets(self):
        if self.is_finite_backend:
            return self.space.closed_list
        return self.tail.pool

    def is_subset(self, a, b):
        if self.is_finite_backend:
            return not a & ~b
        return a.issubset(b)

    # evaluation

    def value(self, b):
        if not self.is_finite_backend:
            if not isinstance(b, FinCofinSet):
                raise InputError("countable measures evaluate FinCofinSet")
            return self.tail.value(b)
        values = self._values
        if 0 <= b < len(values) and values[b] is not None:
            return values[b]
        raise InputError(f"mask {b:b} is not a Borel set")

    @cached_property
    def _values(self):
        an, lat = self._an, self.lattice
        values = [None] * (self.space.full + 1)
        for b in an.borel_masks:
            out = lat.bottom
            for i, a in enumerate(an.atoms):
                if not a & ~b:
                    out = lat.join(out, self.atom_values[i])
            values[b] = out
        return tuple(values)

    def outer_value(self, b):
        """Value of the outer regularization: the infimum of the
        measure over open supersets.

        Read off the saturation, which the finite backend makes the
        least open superset; outer_regularization checks this route
        against the literal infimum on every Borel set.
        """
        if not self.is_finite_backend:
            return self.value(b)
        if not 0 <= b <= self.space.full:
            raise InputError(f"mask {b} lies outside the space")
        return self.value(self._an.sat_table[b])

    def table(self):
        values = self._values
        return {b: values[b] for b in self._an.borel_masks}

    # derived objects

    def outer_regularization(self):
        """The measure of open supersets, as a measure.

        Its atom values determine it.  On every Borel set three routes
        must agree before it is returned: the literal infimum of the
        measure over open supersets, the value of the saturation, and
        the join of the atom values.
        """
        if self._outer is None:
            self._outer = self._outer_regularization()
        return self._outer

    def _outer_regularization(self):
        if not self.is_finite_backend:
            return MaxitiveMeasure.from_tail(self.tail)
        an = self._an
        outer = MaxitiveMeasure(
            self.space, self.lattice,
            atom_values=[self.outer_value(a) for a in an.atoms])
        for b in an.borel_masks:
            literal = self.lattice.inf([self.value(g)
                                        for g in self.space.opens_list
                                        if not b & ~g])
            if not literal == self.outer_value(b) == outer.value(b):
                raise CrossCheckError(
                    f"outer value at {b:b}: open infimum {literal!r}, "
                    f"saturation value and atom join disagree")
        return outer

    def upper_density(self):
        """Pointwise outer values of atoms, with the semicontinuity and
        compactness of their level sets checked literally."""
        if self._density is None:
            self._density = self._upper_density()
        return self._density

    def _upper_density(self):
        if not self.is_finite_backend:
            flags = cached_tail_flags(self.tail)
            d = TailDensity(self.lattice, dict(self.tail.exceptions),
                            self.tail.tail, self.lattice.bottom)
            return DensityInfo(d, True, flags["upper_compact_density"])
        an = self._an
        lat = self.lattice
        c = self.outer_regularization().atom_values
        per_point = tuple(c[an.borel.atom_of_point[x]]
                          for x in range(self.space.n))
        grid = level_grid(lat, per_point)
        usc = all(_way_above_mask(self.space, lat, t, per_point)
                  in self.space.opens for t in grid)
        uc = all(
            self.space.full & ~_way_above_mask(self.space, lat, t, per_point)
            in an.compact_masks
            for t in grid if lat.way_above(t, lat.bottom))
        return DensityInfo(c, usc, uc)

    def classify(self):
        return _classify(self)


def _way_above_mask(space, lat, t, per_point):
    m = 0
    for x in range(space.n):
        if lat.way_above(t, per_point[x]):
            m |= 1 << x
    return m


# classification


def unions_are_joins(measure, table):
    """Whether the value of each family's union is the join of the
    values of its members, over a family table.

    Reads the value table at the masks of the table.  On a finite poset
    the member values fold through the join table in this loop, from
    bottom as join_all does, and a missing join raises
    MissingSupremumError as join does: a join_all call per family took
    about four times as long as this loop over four-point measures.
    """
    families, unions, _ = table
    values, lat = measure._values, measure.lattice
    if not lat.is_finite:
        return all(values[union] == join_all(lat, [values[m] for m in fam])
                   for fam, union in zip(families, unions))
    joins, bottom = lat._joins, lat.bottom
    for fam, union in zip(families, unions):
        out = bottom
        for m in fam:
            out = joins[out][values[m]]
            if out is None:
                raise MissingSupremumError("family has no least upper bound")
        if out != values[union]:
            return False
    return True


def intersections_are_infima(measure, table):
    """Whether the infimum of the values over each family is the value
    of its intersection, over a family table: reads the value table at
    the masks of the table, and on a finite poset the infimum from the
    poset's table keyed by the mask of the member values."""
    families, _, inters = table
    values, lat = measure._values, measure.lattice
    return all(lat.inf([values[m] for m in fam]) == values[inter]
               for fam, inter in zip(families, inters))


def _family_table(space, families):
    """A family pool in three columns: the families as tuples of
    member masks, their unions and their intersections, each computed
    once.  Every mask must be a Borel set, since the quantifiers read
    the value table at it unchecked."""
    families = tuple(families)
    unions = tuple(reduce(operator.or_, fam, 0) for fam in families)
    inters = tuple(reduce(operator.and_, fam, space.full) for fam in families)
    borel = frozenset(analysis(space).borel_masks)
    for m in itertools.chain(*families, unions, inters):
        if m not in borel:
            raise CrossCheckError(
                f"family table of {space!r} holds the non-Borel set {m:b}")
    return families, unions, inters


@lru_cache(maxsize=None)
def _borel_subfamilies(space):
    return _family_table(space, subfamily_pool(
        analysis(space).borel_masks, f"borel:{space!r}")[0])


@lru_cache(maxsize=None)
def _filtered_families(space, kind):
    members = {"opens": space.opens_list,
               "closed": space.closed_list,
               "compact_borel": analysis(space).compact_borel}[kind]
    return _family_table(
        space, filtered_subfamilies(members, f"{kind}:{space!r}")[0])


@lru_cache(maxsize=None)
def _descending_borel_chains(space):
    return _family_table(space, (
        tuple(sorted(fam, key=lambda m: -bin(m).count("1")))
        for fam in _borel_subfamilies(space)[0]
        if all(not a & ~b or not b & ~a for a in fam for b in fam)))


@lru_cache(maxsize=None)
def open_cover_families(space, label):
    """The family table of subfamilies of opens drawn under label."""
    return _family_table(space, subfamily_pool(
        space.opens_list, f"{label}:{space!r}")[0])


# Literal oracles for the two quantifiers above: they evaluate the
# measure on every member and recompute each union and intersection.
# The tests run them against the table-driven route; nothing else
# calls them.

def _unions_are_joins_literal(measure, families):
    lat = measure.lattice
    return all(measure.value(reduce(operator.or_, fam, 0))
               == join_all(lat, map(measure.value, fam))
               for fam in families)


def _intersections_are_infima_literal(measure, families):
    lat = measure.lattice
    return all(lat.inf([measure.value(m) for m in fam])
               == measure.value(reduce(operator.and_, fam, measure.space.full))
               for fam in families)


@lru_cache(maxsize=None)
def _classify(measure):
    if not measure.is_finite_backend:
        flags = cached_tail_flags(measure.tail)
        return ClassificationRecord(
            **{f: flags[f] for f in ClassificationRecord._FIELDS})

    space, lat = measure.space, measure.lattice
    an = measure._an
    bottom = lat.bottom
    borel = an.borel_masks
    compact_borel = an.compact_borel
    outer_value = measure.outer_regularization().value

    # approximation from inside by saturations of compact Borel sets
    inner = all(
        measure.value(b) == join_all(lat, (measure.value(an.sat_table[k])
                                           for k in compact_borel
                                           if not k & ~b))
        for b in borel)

    outer = all(measure.value(b) == outer_value(b) for b in borel)

    # two routes to inner approximation on opens: outer values of
    # compact subsets, and distributing the measure over open covers
    wi_compact = all(
        measure.value(g) == join_all(lat, (outer_value(k)
                                           for k in compact_borel
                                           if not k & ~g))
        for g in space.opens_list)
    wi_covers = unions_are_joins(measure, open_cover_families(space, "wi"))
    if wi_compact != wi_covers:
        raise CrossCheckError(
            "the two formulations of inner approximation on opens disagree")
    weak_inner = wi_compact

    # two routes to outer approximation on compacts: all compact Borel
    # sets, and atoms alone
    wo_all = all(measure.value(k) == outer_value(k) for k in compact_borel)
    wo_atoms = all(measure.value(a) == outer_value(a) for a in an.atoms)
    if wo_all != wo_atoms:
        raise CrossCheckError(
            "outer approximation on compacts disagrees with its atom form")
    weak_outer = wo_all
    # the outer value of a compact set is always the join of the outer
    # values of its atoms
    for k in compact_borel:
        expected = join_all(lat, (outer_value(a) for a in an.atoms
                                  if not a & ~k))
        if outer_value(k) != expected:
            raise CrossCheckError(
                f"outer value of {k:b} is not the join over its atoms")

    saturated = all(measure.value(k) == measure.value(an.sat_table[k])
                    for k in compact_borel)

    q_smooth, f_smooth, k_smooth = (
        intersections_are_infima(measure, _filtered_families(space, kind))
        for kind in ("opens", "closed", "compact_borel"))

    tight = lat.inf([measure.value(space.full & ~k)
                     for k in compact_borel]) == bottom

    sigma = unions_are_joins(measure, _borel_subfamilies(space))
    completely = sigma
    cfa = intersections_are_infima(measure, _descending_borel_chains(space))

    usc_density = _usc_density_search(measure)

    return ClassificationRecord(
        inner=inner, outer=outer, weak_inner=weak_inner,
        weak_outer=weak_outer, regular=inner and outer, saturated=saturated,
        q_smooth=q_smooth, f_smooth=f_smooth, k_smooth=k_smooth, tight=tight,
        sigma_maxitive=sigma, completely_maxitive=completely,
        continuous_from_above=cfa, optimal=cfa and sigma,
        usc_density_exists=usc_density)


# the usc-density search tries every assignment below the atom values;
# 2^18 of them take a few seconds, and each further point multiplies
# the count by up to the lattice size
_USC_SEARCH_LIMIT = 1 << 18


def _usc_density_search(measure):
    """Search for an upper semicontinuous density.

    A density must join to the measure on every atom, so each point's
    value is bounded by its atom's value.  Finite lattices are searched
    over all such assignments.  Over the extended rationals the search
    is restricted to bottom and the atom values: rounding any density
    down to that set keeps the per-atom joins (the join on a chain is
    attained at some point, whose value is kept exactly) and keeps
    upper semicontinuity (each superlevel set of the rounded density is
    a superlevel set of the original).  More than _USC_SEARCH_LIMIT
    assignments raise BudgetError before the search starts.
    """
    space, lat = measure.space, measure.lattice
    an = measure._an
    if space.n == 0:
        return True
    if lat.is_finite:
        pool = tuple(lat.values())
    else:
        pool = tuple(sorted({EXT_REALS.bottom, *measure.atom_values},
                            key=lambda v: (v.finite is None, v.finite or 0)))
    atom_of = an.borel.atom_of_point
    candidates = []
    for x in range(space.n):
        bound = measure.atom_values[atom_of[x]]
        candidates.append([v for v in pool if lat.le(v, bound)])
    count = math.prod(map(len, candidates))
    if count > _USC_SEARCH_LIMIT:
        raise BudgetError(f"the usc-density search would try {count} "
                          f"assignments; the limit is {_USC_SEARCH_LIMIT}")
    grid_source = measure.atom_values
    for assignment in itertools.product(*candidates):
        ok = True
        for i, a in enumerate(an.atoms):
            joined = join_all(lat, (assignment[x] for x in bits(a)))
            if joined != measure.atom_values[i]:
                ok = False
                break
        if not ok:
            continue
        grid = level_grid(lat, tuple(grid_source) + tuple(assignment))
        if all(_way_above_mask(space, lat, t, assignment) in space.opens
               for t in grid):
            return True
    return False
