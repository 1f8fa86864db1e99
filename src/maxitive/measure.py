"""Maxitive measures, and the finite backend: measures on the Borel
algebra of a finite space, and their classification.  The countable
discrete space has its own backend, in countable.py.

A maxitive measure assigns the bottom value to the empty set and turns
binary unions into joins.  On a finite Borel algebra it is therefore
determined by its values on the atoms, so that tuple is the canonical
representation; tables are validated against maxitivity and reduced to
it.  Every value a measure is built from goes through its lattice's
coerce, which takes an element name or an in-range index on a finite
lattice and what Ext.of reads on the extended rationals.

On a finite space every set is compact and every family of sets is
finite, so classification and the decomposition follow from one
theorem.  Nine flags hold on every measure (FINITE_FORCED), and the
other six (FINITE_SAT_CLASS) each equal one bit: whether the measure
agrees with its saturation, the least open superset, on every Borel
set.  The regular part is the outer regularization, and the singular
part completing it is bottom.  FiniteBackend computes that bit and
states the rest through _finite_record, from which records() also
lists the two records the theorem allows; its docstrings give the
proof.

Each flag's definition stays in oracles._finite_record_literal, which
the tests run against the stated record; oracles.py holds every
literal oracle, and nothing in the package imports it.  Case L-WIC
reads no family of opens either: opens_distribute checks the union of
each pair of opens against the join of their values, which by
induction gives every family.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property, lru_cache

from .countable import COUNTABLE
from .errors import CrossCheckError, InputError, ValidationError
from .order import bits, join_all, level_grid
from .topology import FiniteSpace, analysis


class ClassificationRecord(namedtuple("ClassificationRecord", (
        "inner outer weak_inner weak_outer regular saturated q_smooth "
        "f_smooth k_smooth tight sigma_maxitive completely_maxitive "
        "continuous_from_above optimal usc_density_exists"))):
    """The continuity, smoothness, and approximation flags of a measure."""

    __slots__ = ()

    def as_dict(self):
        return self._asdict()


# The finite theorem, proved in FiniteBackend.classify: on a finite
# space the first nine flags hold on every measure, and the other six
# each equal the saturation bit.
FINITE_FORCED = ("weak_inner", "tight", "q_smooth", "f_smooth", "k_smooth",
                 "sigma_maxitive", "completely_maxitive",
                 "continuous_from_above", "optimal")
FINITE_SAT_CLASS = ("inner", "outer", "weak_outer", "saturated", "regular",
                    "usc_density_exists")


class DensityInfo(namedtuple("DensityInfo", "values usc upper_compact")):
    """The upper density of a measure: its pointwise values, whether it
    is upper semicontinuous, and whether its superlevel complements are
    compact."""

    __slots__ = ()


class MaxitiveMeasure:
    """A maxitive measure, computed by the backend of its space.

    The backend is FINITE below for a finite space, whose measures keep
    one lattice value per Borel atom in atom_values, and the space's
    own `backend` otherwise: countable.TAIL keeps a tail density in
    tail.  Backends are stateless, one object per kind, and read the
    state of the measure they are given.  Instances are immutable and
    hashable so classification can be cached.  Each measure keeps what
    it derives from itself: the analysis of its space, a finite value
    table (by mask, None off the Borel algebra), and its outer
    regularization and upper density, so their literal checks run once
    per measure object.
    """

    def __init__(self, space, lattice, atom_values=None, tail=None):
        self.space = space
        self.lattice = lattice
        self.backend = FINITE if isinstance(space, FiniteSpace) \
            else space.backend
        self.backend.init(self, atom_values, tail)
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
            v = lattice.coerce(v)
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
        bottom, and turn unions into joins.  It does exactly when each
        value is the join of the values of the atoms inside the set, so
        the measure is built from the atom values and compared with the
        table on every Borel set; the first set where they differ is
        reported as a witness.
        """
        an = analysis(space)
        table = {int(k): lattice.coerce(v) for k, v in table.items()}
        missing = [b for b in an.borel_masks if b not in table]
        if missing:
            raise InputError(f"table misses Borel sets {missing}")
        extra = [k for k in table if k not in an.borel.sets]
        if extra:
            raise InputError(f"table keys {extra} are not Borel sets")
        if table[0] != lattice.bottom:
            raise ValidationError("the empty set must carry the bottom value",
                                  witness=(0,))
        measure = cls(space, lattice,
                      atom_values=[table[a] for a in an.atoms])
        for b in an.borel_masks:
            if measure.value(b) != table[b]:
                raise ValidationError(
                    f"table is not maxitive: its value at {b:b} is not the "
                    f"join of its atoms' values", witness=(b,))
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
        return self.backend.describe(self)

    # the sets the backend quantifies over: the whole Borel algebra of
    # a finite space, the sample pool of a tail density

    def sets(self):
        return self.backend.sets(self)

    def compact_sets(self):
        return self.backend.compact_sets(self)

    def point_classes(self):
        return self.backend.point_classes(self)

    def closed_sets(self):
        return self.backend.closed_sets(self)

    def is_subset(self, a, b):
        return self.backend.is_subset(a, b)

    # evaluation

    def value(self, b):
        return self.backend.value(self, b)

    @cached_property
    def _values(self):
        return self.backend.value_table(self)

    def outer_value(self, b):
        """Value of the outer regularization: the infimum of the
        measure over open supersets."""
        return self.backend.outer_value(self, b)

    def table(self):
        values = self._values
        return {b: values[b] for b in self._an.borel_masks}

    # derived objects

    def outer_regularization(self):
        """The measure of open supersets, as a measure, checked against
        the literal infimum on every set the backend quantifies over."""
        if self._outer is None:
            self._outer = self.backend.outer_regularization(self)
        return self._outer

    def upper_density(self):
        """Pointwise outer values, with the semicontinuity and
        compactness of their level sets checked literally."""
        if self._density is None:
            self._density = DensityInfo(*self.backend.upper_density(self))
        return self._density

    def classify(self):
        return _classify(self)


class FiniteBackend:
    """The backend of measures on a finite space: a measure keeps one
    lattice value per Borel atom in atom_values and the analysis of its
    space in _an.  The analysis states that every subset of a finite
    space is compact rather than testing covers, so the checks quantify
    over the whole Borel algebra."""

    def init(self, m, atom_values, tail):
        atom_values = tuple(atom_values)
        an = analysis(m.space)
        if len(atom_values) != len(an.atoms):
            raise InputError("one value per atom required")
        _ = m.lattice.bottom  # the empty set needs a value; raises when absent
        m.atom_values = tuple(map(m.lattice.coerce, atom_values))
        m.tail = None
        m._an = an

    def describe(self, m):
        vals = ", ".join(f"{lab}:{v!r}" for lab, v in zip(
            m._an.borel.atom_labels, m.atom_values))
        return f"MaxitiveMeasure({m.space!r}; {vals})"

    # set pools

    def sets(self, m):
        return m._an.borel_masks

    def compact_sets(self, m):
        return m._an.compact_borel

    def point_classes(self, m):
        """The Borel atoms."""
        return m._an.atoms

    def closed_sets(self, m):
        return m.space.closed_list

    def is_subset(self, a, b):
        return not a & ~b

    # evaluation

    def value(self, m, b):
        values = m._values
        if 0 <= b < len(values) and values[b] is not None:
            return values[b]
        raise InputError(f"mask {b:b} is not a Borel set")

    def value_table(self, m):
        an, lat = m._an, m.lattice
        values = [None] * (m.space.full + 1)
        for b in an.borel_masks:
            out = lat.bottom
            for i, a in enumerate(an.atoms):
                if not a & ~b:
                    out = lat.join(out, m.atom_values[i])
            values[b] = out
        return tuple(values)

    def outer_value(self, m, b):
        """Read off the saturation, which on a finite space is the least
        open superset; outer_regularization checks this route against
        the literal infimum on every Borel set."""
        if not 0 <= b <= m.space.full:
            raise InputError(f"mask {b} lies outside the space")
        return m.value(m._an.sat_table[b])

    def outer_regularization(self, m):
        """Its atom values determine it.  On every Borel set three
        routes must agree: the literal infimum of the measure over open
        supersets, the value of the saturation, and the join of the
        atom values."""
        an = m._an
        outer = MaxitiveMeasure(
            m.space, m.lattice,
            atom_values=[m.outer_value(a) for a in an.atoms])
        for b in an.borel_masks:
            literal = m.lattice.inf([m.value(g) for g in m.space.opens_list
                                     if not b & ~g])
            if not literal == m.outer_value(b) == outer.value(b):
                raise CrossCheckError(
                    f"outer value at {b:b}: open infimum {literal!r}, "
                    f"saturation value and atom join disagree")
        return outer

    def upper_density(self, m):
        """The outer values of the atoms."""
        an, lat, space = m._an, m.lattice, m.space
        c = m.outer_regularization().atom_values
        per_point = tuple(c[an.borel.atom_of_point[x]]
                          for x in range(space.n))
        grid = level_grid(lat, per_point)
        usc = all(_way_above_mask(space, lat, t, per_point) in space.opens
                  for t in grid)
        # upper compact: every subset of a finite space is compact
        return c, usc, True

    def classify(self, m):
        """The flags of a finite measure, stated from its saturation bit.

        Every subset of a finite space is compact, and its saturation,
        the least open superset, gives its outer value.  Every family
        of sets is finite, so a filtered family or a descending chain
        has a least member, which is its intersection.  Hence:

        - q_smooth, f_smooth, k_smooth and continuous_from_above hold:
          the infimum over a family with a least member is that
          member's value, the value of the intersection;
        - sigma_maxitive and completely_maxitive hold: every family is
          finite, and maxitivity turns a finite union into the join;
          optimal, continuity from above with sigma-maxitivity, holds;
        - tight holds: the whole space is compact, and its complement
          carries bottom;
        - weak_inner holds: an open set is a compact subset of itself,
          and each compact subset's saturation lies inside it;
        - saturated says that value(k) = value(sat k) on every set k;
        - outer says that each value is the outer value, which is the
          same statement, and weak_outer is outer on compact sets, all
          of them;
        - inner says that value(b) is the join of value(sat k) over
          the sets k inside b; the term k = b is at least value(b), so
          inner forces saturation, and under saturation every term is
          value(k), at most value(b); regular is inner and outer;
        - usc_density_exists: an upper semicontinuous density is
          antitone along specialization, since the points where it lies
          way below a level form an open, hence up-closed, set; so its
          join over a set's up-closure, the saturation, is its join
          over the set, and the measure is saturated.  Conversely, on
          a saturated measure, giving each point the value of its
          atom's saturation is such a density.

        oracles._finite_record_literal computes each flag from its
        definition and is the test oracle of this record.
        """
        return _finite_record(_saturated(m))

    def records(self):
        """Every record classify states: one per saturation bit."""
        return [_finite_record(saturated) for saturated in (True, False)]

    def density(self, m):
        return m.atom_values

    # decomposition

    def regular_part(self, m):
        """The outer regularization: the regular part at a Borel set
        is the join of the outer values of its compact subsets, and on
        a finite space the set itself is one of them, with the largest
        outer value.  oracles._regular_part_literal computes the join
        and is the test oracle."""
        return m.outer_regularization()

    def singular_part(self, m):
        """Bottom.  The singular part at a Borel set b is the least
        level t with outer_value(a) below reg(a) join t on every subset
        a of b, and the regular part reg is the outer regularization,
        so t = bottom completes on every subset.  The oracle
        oracles._least_completion_literal scans the levels over any
        regular part."""
        lat = m.lattice
        return MaxitiveMeasure(m.space, lat,
                               atom_values=[lat.bottom] * len(m._an.atoms))

    def minimality_candidates(self, m):
        """The value vector, a list aligned with m.sets(), of every atom
        assignment, since each maxitive measure is one.  The Borel sets
        come in ascending order from the empty one, so each later set
        is an earlier one with one more atom, listed once: its value is
        the join-table entry of that set's value and the atom's."""
        an, lat = m._an, m.lattice
        sets = m.sets()
        at = {b: p for p, b in enumerate(sets)}
        steps = []
        for b in sets[1:]:
            i = an.borel.atom_of_point[(b & -b).bit_length() - 1]
            steps.append((at[b & ~an.atoms[i]], i))
        joins, bottom = lat._joins, lat.bottom
        for assign in itertools.product(lat.values(), repeat=len(an.atoms)):
            vec = [bottom]
            for rest, i in steps:
                vec.append(joins[vec[rest]][assign[i]])
            yield vec

    # literal routes of the verification cases

    def cardinal_density_exists(self, m):
        """Whether the largest candidate density, giving every point the
        value of its atom, reproduces the measure."""
        return _reproduces(m, m.atom_values)

    def opens_distribute(self, m):
        """Whether the value of every union of opens is the join of the
        values of its members, checked on each pair a, b of opens (a
        not after b in space.opens_list): value(a | b) must be
        value(a) join value(b).

        The pairs give every family of opens, folded from bottom as
        join_all folds it, by induction on the family's members.  One
        member f folds to bottom join value(f) = value(f).  If the
        members before the last one, g, fold to value(u), u their
        union, then u is open, since opens are closed under union, and
        the family folds to value(u) join value(g) = value(u | g) by
        the pair of u and g, in either order, union and join being
        symmetric.  A finite space has finitely many opens, so every
        family of opens is finite and the pairs decide them all.  A
        union of opens is open, hence Borel, so the value table is read
        unchecked; a missing join raises MissingSupremumError, as
        join_all does.  oracles._unions_are_joins_literal folds every
        family and is the test oracle.
        """
        values, lat = m._values, m.lattice
        return all(values[a | b] == lat.join(values[a], values[b])
                   for a, b in itertools.combinations_with_replacement(
                       m.space.opens_list, 2))

    def nuplus_failures(self, m):
        """The open-superset value sets must be filtered."""
        lat = m.lattice
        for b in m._an.borel_masks:
            vals = [m.value(g) for g in m.space.opens_list if not b & ~g]
            # a finite nonempty list is filtered iff it has a least
            # element: a least element lies below every pair; and a
            # lower bound in the list of its first k members, with the
            # pair of that bound and the next member, gives one of the
            # first k + 1, so by induction the whole list has one
            if not any(all(lat.le(c, a) for a in vals) for c in vals):
                return [f"open-superset values at {b:b} are not filtered"]
        return []

    def maxdens_failures(self, m, cvals):
        an, lat = m._an, m.lattice
        fails = ([] if _reproduces(m, cvals) else
                 ["the upper density must reproduce the measure"])
        if lat.is_finite:
            # every density lies below the upper density
            point_order = [x for a in an.atoms for x in bits(a)]
            per_atom = []
            for i, a in enumerate(an.atoms):
                size = len(list(bits(a)))
                per_atom.append([combo for combo in
                                 itertools.product(lat.values(), repeat=size)
                                 if join_all(lat, combo) == m.atom_values[i]])
            for combos in itertools.product(*per_atom):
                flat = [v for combo in combos for v in combo]
                if not all(lat.le(v, cvals[an.borel.atom_of_point[x]])
                           for x, v in zip(point_order, flat)):
                    fails.append("a density exceeds the upper density")
                    break
        return fails

    # output

    def density_payload(self, m, values):
        name = m.lattice.name
        return {lab: name(v)
                for lab, v in zip(m._an.borel.atom_labels, values)}

    def density_lines(self, values):
        return [f"  {k}: {values[k]}" for k in sorted(values)]

    def labeled_sets(self, m):
        """Each Borel set named by the sorted labels of its atoms,
        smallest first."""
        an = m._an
        out = [(sorted(lab for lab, a in zip(an.borel.atom_labels, an.atoms)
                       if not a & ~b), b)
               for b in an.borel_masks]
        return sorted(out, key=lambda row: (len(row[0]), row[0]))

    def notes(self, m):
        notes = ["finite space: weak inner-continuity, tightness, "
                 "smoothness on compact and closed families, sigma- and "
                 "complete maxitivity, and continuity from above are "
                 "automatic"]
        if m.space.predicates.discrete:
            notes.append("discrete space: every classification flag is "
                         "automatic")
        return notes

    def serialize(self, m):
        return {"kind": "density",
                "values": self.density_payload(m, m.atom_values)}


FINITE = FiniteBackend()


def _finite_record(saturated):
    """The finite theorem: the record of a measure with that saturation
    bit."""
    return {**dict.fromkeys(FINITE_FORCED, True),
            **dict.fromkeys(FINITE_SAT_CLASS, saturated)}


def _saturated(m):
    """Whether a finite measure agrees with its saturation on every
    compact Borel set: the one bit FiniteBackend.classify computes."""
    an, values = m._an, m._values
    return all(values[k] == values[an.sat_table[k]]
               for k in an.compact_borel)


def _reproduces(m, per_atom):
    """Whether giving each point the value of its atom in per_atom
    reproduces the measure on every Borel set, pointwise joins taken
    literally."""
    an, lat = m._an, m.lattice
    return all(m.value(b) == join_all(lat, (per_atom[an.borel.atom_of_point[x]]
                                            for x in bits(b)))
               for b in an.borel_masks)


def _way_above_mask(space, lat, t, per_point):
    m = 0
    for x in range(space.n):
        if lat.way_above(t, per_point[x]):
            m |= 1 << x
    return m


# classification


@lru_cache(maxsize=None)
def _classify(measure):
    flags = measure.backend.classify(measure)
    return ClassificationRecord(
        **{f: flags[f] for f in ClassificationRecord._fields})
