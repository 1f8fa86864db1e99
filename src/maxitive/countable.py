"""Countably infinite discrete space over the finite/cofinite algebra.

Subsets carry an exact representation: either a finite set of naturals
or the complement of one.  Measures are tail densities: finitely many
exceptional points carry their own value, every other point carries a
common tail value, and infinite sets absorb one extra mass on top of
their pointwise supremum.  Every classification flag then follows from
two bits of the canonical form (see tail_flags), and each bit is
cross-checked against one literal bounded witness of linear cost; the
witnesses are exact, not approximate, because every quantity they track
becomes constant once the enumeration horizon passes all exceptional
points.  Each flag's definition, on pairs, covers, prefixes and the
filtered families of finite sets, stays in oracles._tail_record_literal,
which the tests run against the stated record.  The regular and
singular parts are stated too (TailBackend), and their definitions,
over the subsets of each pool set, stay in
oracles._tail_decomposition_literal.

A density evaluates a set in one set operation: it keeps its
exceptions as a dict and their points as a frozenset, joins the
exceptional values of the set's exceptional members (for a cofinite
set, of the exceptional points outside its support) and adds the tail
iff the set has a member that is not exceptional.  The tests keep the
literal join of the density over the members as the oracle.  Sets
built from outside input have their members checked; unions,
intersections and complements of checked sets are not checked again.

Each density keeps its sample pool and a value table over that pool,
both built on first use.  The witnesses of the record and of the
decomposition, and the harness, read the table; every union, cover and
intersection they form is still evaluated by set operation, so a wrong
table entry shows up as a disagreement.

The flags do not change when points are renamed, and tail_flags reads
only the relabeled density (exceptional points 0, 1, ... in order), so
cached_tail_flags keys its cache on that form and densities that differ
only in point names share one record.

The value lattice must be a chain.  The stated record, and the
canonical form, in which an infinite mass below the tail is absorbed,
are derived for chains, where the mass is either below the tail or
above it; other lattices are rejected up front.  Values from outside
become lattice elements through the lattice's coerce.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, reduce

from .errors import CrossCheckError, InputError, PreconditionError
from .order import Frozen, join_all, least_completion, level_grid
from .topology import SpacePredicates

_HORIZON = 50
_INT = frozenset({int})


class FinCofinSet(Frozen):
    """A finite or cofinite set of naturals.

    kind is "finite" or "cofinite"; support is the finite set itself or
    the finite complement.
    """

    __slots__ = ("kind", "support")

    def __init__(self, kind, support):
        if kind not in ("finite", "cofinite"):
            raise InputError(f"bad set kind {kind!r}")
        # one pass over the member types, so a bool (an int to Python)
        # is no natural here; then the least member
        if support and not (_INT.issuperset(map(type, support))
                            and min(support) >= 0):
            raise InputError("set members must be naturals")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "support", support)

    @classmethod
    def _built(cls, kind, support):
        """A set whose members were already checked: the results of
        union, intersection and complement.  The fields go straight
        into their slots, as __init__ puts them, without its checks."""
        s = object.__new__(cls)
        object.__setattr__(s, "kind", kind)
        object.__setattr__(s, "support", support)
        return s

    def _key(self):
        return (self.kind, self.support)

    @classmethod
    def of_points(cls, points):
        return cls("finite", frozenset(points))

    @classmethod
    def cofinite(cls, excluded):
        return cls("cofinite", frozenset(excluded))

    @classmethod
    def empty(cls):
        return cls("finite", frozenset())

    @classmethod
    def universe(cls):
        return cls("cofinite", frozenset())

    @property
    def is_infinite(self):
        return self.kind == "cofinite"

    @property
    def is_empty(self):
        return self.kind == "finite" and not self.support

    def contains(self, x):
        return (x in self.support) == (self.kind == "finite")

    def complement(self):
        other = "cofinite" if self.kind == "finite" else "finite"
        return FinCofinSet._built(other, self.support)

    def union(self, other):
        a, b = self, other
        if a.kind == "finite" and b.kind == "finite":
            return FinCofinSet._built("finite", a.support | b.support)
        if a.kind == "cofinite" and b.kind == "cofinite":
            return FinCofinSet._built("cofinite", a.support & b.support)
        fin, cof = (a, b) if a.kind == "finite" else (b, a)
        return FinCofinSet._built("cofinite", cof.support - fin.support)

    def intersection(self, other):
        a, b = self, other
        if a.kind == "finite" and b.kind == "finite":
            return FinCofinSet._built("finite", a.support & b.support)
        if a.kind == "cofinite" and b.kind == "cofinite":
            return FinCofinSet._built("cofinite", a.support | b.support)
        fin, cof = (a, b) if a.kind == "finite" else (b, a)
        return FinCofinSet._built("finite", fin.support - cof.support)

    def difference(self, other):
        return self.intersection(other.complement())

    def issubset(self, other):
        if self.kind == "finite":
            if other.kind == "finite":
                return self.support <= other.support
            return self.support.isdisjoint(other.support)
        return other.kind == "cofinite" and other.support <= self.support

    def members(self, limit=None):
        """The finite members, or the first `limit` members of a
        cofinite set, in ascending order."""
        if self.kind == "finite":
            return tuple(sorted(self.support))
        if limit is None:
            raise InputError("cofinite sets need an explicit member limit")
        out, x = [], 0
        while len(out) < limit:
            if x not in self.support:
                out.append(x)
            x += 1
        return tuple(out)

    def __repr__(self):
        body = "{" + ",".join(str(x) for x in sorted(self.support)) + "}"
        return body if self.kind == "finite" else "~" + body


def is_compact(s):
    """Compactness of a subset of the discrete space.

    Finite sets are compact: each point of the set picks one member of
    any open cover, and those finitely many members already cover.  A
    cofinite set is not: its singleton cover has no finite subcover,
    since finitely many singletons cover finitely many points.
    """
    return s.kind == "finite"


class TailDensity(Frozen):
    """A maxitive measure on the finite/cofinite algebra.

    The density of a point is its exceptional value when it has one and
    the tail value otherwise; the value of a set is the supremum of the
    densities of its points, joined with the infinite mass when the set
    is infinite.

    Two representations can evaluate identically: an exception equal to
    the tail is redundant, and an infinite mass below the tail is
    absorbed by it.  The constructor canonicalizes both away, so
    equality of TailDensity objects is equality of measures.  Unlike
    the other value classes it keeps an instance dict, for its cached
    properties.
    """

    def __init__(self, lattice, exceptions, tail, infinite_mass):
        if not lattice.is_chain():
            raise PreconditionError(
                "tail densities require a chain of values")
        bottom = lattice.bottom  # PreconditionError on a bottomless chain
        tail = lattice.coerce(tail)
        infinite_mass = lattice.coerce(infinite_mass)
        if hasattr(exceptions, "items"):
            exceptions = exceptions.items()
        cleaned = {}
        for x, v in exceptions:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise InputError("exception points must be naturals")
            v = lattice.coerce(v)
            if x in cleaned and cleaned[x] != v:
                raise InputError(f"conflicting values for point {x}")
            cleaned[x] = v
        canonical = tuple(sorted((x, v) for x, v in cleaned.items()
                                 if v != tail))
        if lattice.le(infinite_mass, tail):
            infinite_mass = bottom
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "exceptions", canonical)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "infinite_mass", infinite_mass)

    def _key(self):
        return (self.lattice, self.exceptions, self.tail, self.infinite_mass)

    def density(self, x):
        return self.exception_values.get(x, self.tail)

    def sup_density(self, s):
        """Pointwise supremum of the density over s, exact for both
        finite and cofinite s, in one set operation: a finite set joins
        the exceptional values of its exceptional members, and the tail
        iff some member is not exceptional; a cofinite set always
        contains a non-exceptional point, so it joins the tail with the
        exceptional values outside its support."""
        lat, tail = self.lattice, self.tail
        if s.kind == "finite":
            hit = s.support & self.exception_keys
            if not hit:
                return tail if s.support else lat.bottom
            v = reduce(lat.join, map(self.exception_values.__getitem__, hit))
            return lat.join(v, tail) if len(hit) < len(s.support) else v
        inside = self.exception_keys - s.support
        return reduce(lat.join, map(self.exception_values.__getitem__, inside),
                      tail)

    def value(self, s):
        v = self.sup_density(s)
        if s.kind == "cofinite":
            v = self.lattice.join(v, self.infinite_mass)
        return v

    @cached_property
    def exception_values(self):
        """The exceptional value of each exceptional point, as a dict."""
        return dict(self.exceptions)

    @cached_property
    def exception_keys(self):
        """The exceptional points, as a frozenset."""
        return frozenset(self.exception_values)

    @cached_property
    def points(self):
        """The exceptional points, ascending."""
        return tuple(x for x, _ in self.exceptions)

    @cached_property
    def free(self):
        """The exception-free cofinite set: the points carrying the
        tail value."""
        return FinCofinSet.cofinite(self.points)

    @cached_property
    def pool(self):
        """The sample_sets pool of this density, built once."""
        return sample_sets(self)

    @cached_property
    def pool_values(self):
        """The value table over the pool: the value of each pool set, in
        pool order, evaluated once."""
        return tuple(map(self.value, self.pool))

    @cached_property
    def relabeled(self):
        """The same density with its exceptional points renamed 0, 1,
        ... in order; the density itself when they already are."""
        copy = TailDensity(self.lattice,
                           {i: v for i, (_, v) in enumerate(self.exceptions)},
                           self.tail, self.infinite_mass)
        return self if copy == self else copy

    def __repr__(self):
        exc = ", ".join(f"{x}:{v!r}" for x, v in self.exceptions)
        return (f"TailDensity({{{exc}}}, tail={self.tail!r}, "
                f"infinite_mass={self.infinite_mass!r})")


def horizon(td):
    """How far bounded enumerations reach: past every exceptional
    point, and at least `_HORIZON` members."""
    pts = td.points
    return max(_HORIZON, (max(pts) + 2) if pts else 0)


# the members of every pool that do not depend on the density; a set
# and its complement share one support, since every density keeps its
# pool
_EMPTY = FinCofinSet.empty()
_UNIVERSE = FinCofinSet.universe()
_PREFIXES = tuple(s for k in (1, 3, 5)
                  for s in (FinCofinSet.of_points(range(k)),
                            FinCofinSet.cofinite(range(k))))


def sample_sets(td):
    """A deterministic pool of algebra members exercising every case:
    empty, full, exceptional and plain singletons, prefixes, their
    complements, and the exception-free cofinite set."""
    pool = [_EMPTY, _UNIVERSE, td.free]
    for x in td.points:
        single = FinCofinSet.of_points((x,))
        pool.append(single)
        pool.append(single.complement())
    pool.append(FinCofinSet.of_points(td.free.members(limit=3)))
    pool.extend(_PREFIXES)
    pool.append(td.free.complement())
    return tuple(dict.fromkeys(pool))


# The countable theorem, proved in tail_flags: six flags hold on every
# tail density, six equal the bit a (the infinite mass is bottom), four
# equal z (tail and infinite mass are bottom), and upper_compact_density
# is the bit u (the tail is bottom).
TAIL_FORCED = ("maxitive", "outer", "weak_outer", "saturated", "q_smooth",
               "k_smooth")
TAIL_INNER_CLASS = ("sigma_maxitive", "completely_maxitive", "inner",
                    "weak_inner", "regular", "usc_density_exists")
TAIL_TIGHT_CLASS = ("f_smooth", "tight", "continuous_from_above", "optimal")


def tail_flags(td):
    """Classification flags of a tail density, as a dict, stated from two
    bits of its canonical form: a, that the infinite mass s is bottom,
    which is s <= c since the constructor absorbs a mass below the tail
    c; and u, that c is bottom.  Their conjunction z says c = s = bottom.

    Every set of the algebra is open and closed, the compact sets are the
    finite ones, and value(b) is the join D(b) of the density over b,
    joined with s when b is infinite.  On a chain, s is bottom or above
    c, and D(b) >= c on every infinite b.  Hence:

    - maxitive holds: D of a union joins D of both sides, and s is added
      iff one side is infinite;
    - outer, weak_outer and saturated hold: each set is open, so it is
      its own least open superset and its own saturation;
    - k_smooth and q_smooth hold: in a filtered family of finite sets,
      the member of least size lies inside every other member, since the
      pair has a member inside both, which can be no smaller; so it is
      the intersection, and its value the infimum.  The compact
      saturated sets are the finite ones too;
    - the flags of TAIL_INNER_CLASS equal a.  Each joins the values over
      a family that exhausts the set b: its singletons (sigma_maxitive,
      completely_maxitive), its finite subsets (inner; weak_inner, every
      set being open; regular is inner and outer), or the points of a
      density, which the singletons fix and which is upper
      semicontinuous on a discrete space (usc_density_exists).  On an
      infinite b each such join is D(b), so it reaches value(b) iff
      s <= D(b) on every infinite b, that is, on the exception-free set,
      iff s <= c; a finite b is its own finite union;
    - the flags of TAIL_TIGHT_CLASS equal z.  The cofinite sets
      ~{0, ..., k-1} form a closed descending chain with empty
      intersection, and each is the complement of a compact set; their
      values settle at c join s, so f_smooth, tight and
      continuous_from_above need z, and optimal is continuity from above
      with sigma-maxitivity.  Under z every value is the join over the
      finitely many exceptional points of the set: the complement of
      those points carries bottom, and a filtered family (a descending
      chain in particular) meets them in a least trace, which is the
      trace of its intersection;
    - upper_compact_density equals u.  The upper density is the density
      itself, every set being open.  At the level bottom, way above
      itself, the blocking set holds every point of density above
      bottom, so every point past the exceptions unless c is bottom; and
      when c is bottom, every level spares those points, and the
      blocking sets are finite.

    _cross_check_tail_bits checks each bit against one literal witness,
    and disagreement raises CrossCheckError; oracles._tail_record_literal
    computes each flag from its definition and is the test oracle of this
    record.  The bits do not change when points are renamed, so they are
    checked on td.relabeled, whose exceptional points are 0, 1, ... in
    order: the witnesses then stop at the default horizon however far
    out the original points lie, and read that density's table.
    """
    td = td.relabeled
    bot = td.lattice.bottom
    a = td.infinite_mass == bot
    u = td.tail == bot
    z = a and u
    _cross_check_tail_bits(td, a, z, u)
    return {**dict.fromkeys(TAIL_FORCED, True),
            **dict.fromkeys(TAIL_INNER_CLASS, a),
            **dict.fromkeys(TAIL_TIGHT_CLASS, z),
            "upper_compact_density": u}


def _cross_check_tail_bits(td, a, z, u):
    """One literal witness per bit, each evaluating a number of sets
    linear in the horizon and the pool; a witness that disagrees with
    its bit raises CrossCheckError."""
    lat = td.lattice
    bot = lat.bottom
    h = horizon(td)

    # a: the singleton cover of the exception-free cofinite set, whose
    # literal supremum stabilizes at the tail after one member, reaches
    # the value of the set iff the mass is absorbed
    free = td.free
    sup = join_all(lat, (td.value(FinCofinSet.of_points((x,)))
                         for x in free.members(limit=h)))
    if (sup == td.value(free)) != a:
        raise CrossCheckError("countable-cover witness disagrees with the "
                              "bit a")
    # and the pointwise density reproduces the table exactly when it is;
    # the exception-free cofinite set is the binding case
    mismatch = [b for b, v in zip(td.pool, td.pool_values)
                if v != td.sup_density(b)]
    if a != (not mismatch):
        raise CrossCheckError(f"density witness mismatch on {mismatch!r}")

    # z: complements of growing prefixes, whose values stabilize once
    # every exceptional point is shaved off, so the bounded infimum is
    # exact; the chain shrinks to the empty set
    decreasing = [td.value(FinCofinSet.cofinite(range(k))) for k in range(h)]
    residue = reduce(lat.meet, decreasing)
    if (residue == bot) != z:
        raise CrossCheckError("shrinking-complement witness disagrees with "
                              "the bit z")
    if any(lat.le(v, w) and v != w for v, w in zip(decreasing,
                                                  decreasing[1:])):
        raise CrossCheckError("complement values failed to decrease")
    if (residue == td.value(FinCofinSet.empty())) != z:
        raise CrossCheckError("stabilizing chain witness disagrees with "
                              "the bit z")

    # u: the blocking set for the density at level t, built exactly
    grid = level_grid(lat, (td.tail, td.infinite_mass, bot,
                            *(v for _, v in td.exceptions)))
    if u != all(_blocking_set(td, t).kind == "finite"
                for t in grid if lat.way_above(t, bot)):
        raise CrossCheckError("blocking-set witness disagrees with the "
                              "bit u")


def _blocking_set(td, t):
    """The set of points whose density is not way-below t, as an exact
    algebra member: finitely many exceptional points, plus everything
    else when the tail itself is not way-below t."""
    lat = td.lattice
    exceptional = frozenset(x for x, v in td.exceptions
                            if not lat.way_above(t, v))
    if lat.way_above(t, td.tail):
        return FinCofinSet.of_points(exceptional)
    spared = frozenset(x for x, v in td.exceptions if lat.way_above(t, v))
    return FinCofinSet.cofinite(spared)


def cached_tail_flags(td):
    """tail_flags(td), computed once per relabeled density: densities
    that differ only in the names of their exceptional points share one
    record."""
    return _relabeled_flags(td.relabeled)


@lru_cache(maxsize=None)
def _relabeled_flags(td):
    return tail_flags(td)


def _pointwise(td):
    """The density without its infinite mass: the regular part, and
    the upper density."""
    lat = td.lattice
    if td.infinite_mass == lat.bottom:
        return td
    return TailDensity(lat, dict(td.exceptions), td.tail, lat.bottom)


class TailBackend:
    """The backend of measures on the countable discrete space: a
    measure keeps its tail density in measure.tail, and every method
    reads it there.  The sets it quantifies over are the density's
    sample pool; the compact ones are the finite sets.  The flags come
    from tail_flags, which states them from two bits and checks each
    bit against a literal witness, once per relabeled density
    (cached_tail_flags).  The regular and singular parts are stated
    the same way, each checked by one witness whose cost is linear in
    the pool; oracles._tail_decomposition_literal computes both from
    their definitions and is their test oracle."""

    def init(self, m, atom_values, tail):
        if not isinstance(tail, TailDensity):
            raise InputError("countable measures take a tail density")
        if tail.lattice != m.lattice:
            raise InputError("tail density lattice mismatch")
        m.atom_values = m._an = None
        m.tail = tail

    def describe(self, m):
        return f"MaxitiveMeasure(countable; {m.tail!r})"

    # set pools

    def sets(self, m):
        return m.tail.pool

    closed_sets = sets

    def compact_sets(self, m):
        return tuple(s for s in m.tail.pool if is_compact(s))

    def point_classes(self, m):
        """The exceptional singletons, then the first three plain ones."""
        td = m.tail
        return tuple(FinCofinSet.of_points((x,))
                     for x in (*td.points, *td.free.members(limit=3)))

    def is_subset(self, a, b):
        return a.issubset(b)

    # evaluation and derived measures; every set is open, so the
    # outer regularization is the measure itself

    def value(self, m, b):
        if not isinstance(b, FinCofinSet):
            raise InputError("countable measures evaluate FinCofinSet")
        return m.tail.value(b)

    def outer_value(self, m, b):
        return m.value(b)

    def outer_regularization(self, m):
        return type(m).from_tail(m.tail)

    def upper_density(self, m):
        flags = cached_tail_flags(m.tail)
        return _pointwise(m.tail), True, flags["upper_compact_density"]

    def classify(self, m):
        return cached_tail_flags(m.tail)

    def density(self, m):
        return m.tail

    # decomposition: the compact sets are the finite ones, every set is
    # open, and the value of a set is the pointwise supremum D of the
    # density over it, joined with the mass s when the set is infinite

    def regular_part(self, m):
        """The density without its mass.  The regular part at b joins
        the values of the finite subsets of b, and a finite set carries
        no mass, so each of them is its own D, at most D(b).  A finite
        b is one of them; an infinite b meets the first h naturals, h
        the horizon, in a finite set holding every exceptional point
        of b and a plain one, since h passes every exceptional point
        and every support in the pool; so the join is D(b).

        The witness compares the stated part at each pool set with that
        largest finite subset's value: the table entry of a finite pool
        set, and the value of an infinite one's intersection with the
        first h naturals, evaluated by set operation."""
        td = m.tail
        reg = _pointwise(td)
        head = FinCofinSet.of_points(range(horizon(td)))
        for b, v in zip(td.pool, td.pool_values):
            lit = v if is_compact(b) else td.value(b.intersection(head))
            if lit != reg.value(b):
                raise CrossCheckError(
                    f"regular part at {b!r}: its finite subsets reach "
                    f"{lit!r}, stated {reg.value(b)!r}")
        return type(m).from_tail(reg)

    def singular_part(self, m):
        """The mass s on every infinite set, bottom on finite ones.
        The singular part at b is the least level t with value(a) below
        D(a) join t on every subset a of b, the regular part being D.
        A finite a has value D(a), so a finite b takes bottom.  An
        infinite a has value D(a) join s, and D(a) is at least the tail
        c; s is bottom or above c, on a chain in canonical form, so the
        binding subset of an infinite b is the infinite b & free, where
        D is c, and it takes t = s.

        The witness is order.least_completion at each pool set b of two
        pairs, the table entry of b over D(b) and the value of b & free
        over D(b & free), which must be the stated level; at td.free
        the pairs are those of the least completion that defines s.
        The stated part is monotone, so a level completing at each pool
        set completes at its pool subsets too."""
        td, lat = m.tail, m.lattice
        sing = TailDensity(lat, {}, lat.bottom, td.infinite_mass)
        for b, v in zip(td.pool, td.pool_values):
            part = b.intersection(td.free)
            t = least_completion(lat, ((v, td.sup_density(b)),
                                       (td.value(part),
                                        td.sup_density(part))))
            if t != sing.value(b):
                raise CrossCheckError(f"singular part at {b!r}: least "
                                      f"completion {t!r}, stated "
                                      f"{sing.value(b)!r}")
        return type(m).from_tail(sing)

    def minimality_candidates(self, m):
        """The value vectors, lists aligned with m.sets(), of the tail
        measures with exceptions among the measure's own exceptional
        points: a candidate with other exceptions dominates its
        restriction pointwise, so it cannot undercut the singular part
        anywhere the restriction does not."""
        lat, td = m.lattice, m.tail
        points = td.points
        for combo in itertools.product(lat.values(), repeat=len(points) + 2):
            cand = TailDensity(lat, dict(zip(points, combo)),
                               combo[-2], combo[-1])
            yield list(map(cand.value, td.pool))

    # literal routes of the verification cases

    def cardinal_density_exists(self, m):
        """Whether the pointwise density reproduces the measure on the
        pool."""
        td = m.tail
        return all(v == td.sup_density(s)
                   for s, v in zip(td.pool, td.pool_values))

    def eqo_literal(self, m):
        """Distribution over unions of opens, on unions from the pool
        and on the binding family: the singleton cover of the
        exception-free cofinite set, whose supremum the enumeration
        horizon computes exactly."""
        td, lat = m.tail, m.lattice
        cover_sup = join_all(lat, (td.value(FinCofinSet.of_points((x,)))
                                   for x in td.free.members(limit=horizon(td))))
        if cover_sup != td.value(td.free):
            return False
        table = tuple(zip(td.pool, td.pool_values))
        return all(td.value(a.union(b)) == lat.join(va, vb)
                   for a, va in table for b, vb in table)

    def atom_outer_values(self, m):
        td = m.upper_density().values
        return tuple(td.value(a) for a in m.point_classes())

    def nuplus_failures(self, m):
        return []

    def maxdens_failures(self, m, cvals):
        td, lat = m.tail, m.lattice
        if all(lat.le(td.sup_density(a), td.value(a))
               for a in m.point_classes()):
            return []
        return ["the pointwise density exceeds the upper density"]

    # output

    def density_payload(self, m, td):
        """A tail density as instance files and reports write it."""
        name = td.lattice.name
        return {"exceptions": {str(x): name(v) for x, v in td.exceptions},
                "tail": name(td.tail), "infinite_mass": name(td.infinite_mass)}

    def density_lines(self, values):
        lines = [f"  point {x}: {values['exceptions'][x]}"
                 for x in sorted(values["exceptions"], key=int)]
        return lines + [f"  tail: {values['tail']}",
                        f"  infinite mass: {values['infinite_mass']}"]

    def labeled_sets(self, m):
        return [(repr(s), s) for s in m.sets()]

    def notes(self, m):
        return ["countable discrete space: outer-continuity, weak "
                "outer-continuity, saturation, and smoothness on "
                "compact families are automatic"]

    def serialize(self, m):
        return {"kind": "tail", **self.density_payload(m, m.tail)}


TAIL = TailBackend()


class CountableDiscrete:
    """The countable discrete space.  Every subset in the algebra is
    open and closed; saturation and closure are the identity; the
    compact subsets are the finite ones."""

    is_finite = False
    backend = TAIL

    predicates = SpacePredicates(
        t0=True, t1=True, quasisober=True, sober=True, discrete=True,
        second_countable=True, locally_compact=True, sigma_compact=True,
        separable=True, metrizable=True, completely_metrizable=True,
        polish=True)

    def saturate(self, s):
        return s

    def closure(self, s):
        return s

    def __eq__(self, other):
        return isinstance(other, CountableDiscrete)

    def __hash__(self):
        return hash("countable-discrete")

    def __repr__(self):
        return "CountableDiscrete()"


COUNTABLE = CountableDiscrete()
