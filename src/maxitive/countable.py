"""Countably infinite discrete space over the finite/cofinite algebra.

Subsets carry an exact representation: either a finite set of naturals
or the complement of one.  Measures are tail densities: finitely many
exceptional points carry their own value, every other point carries a
common tail value, and infinite sets absorb one extra mass on top of
their pointwise supremum.  Every classification flag then has a closed
form in the three parameters, and six of them are cross-checked against
literal bounded witnesses (see tail_flags); the witnesses are exact,
not approximate, because every quantity they track becomes constant once
the enumeration horizon passes all exceptional points.

A density evaluates a set in one set operation: it keeps its
exceptions as a dict and their points as a frozenset, joins the
exceptional values of the set's exceptional members (for a cofinite
set, of the exceptional points outside its support) and adds the tail
iff the set has a member that is not exceptional.  The tests keep the
literal join of the density over the members as the oracle.  Sets
built from outside input have their members checked; unions,
intersections and complements of checked sets are not checked again.

Each density keeps its sample pool and a value table over that pool,
both built on first use.  The pair and subset loops of the witnesses,
and those of the harness and the decomposition, read the table; every
union, cover, prefix and intersection they form is still evaluated
literally, so a wrong table entry shows up as a disagreement.

The flags do not change when points are renamed, and tail_flags reads
only the relabeled density (exceptional points 0, 1, ... in order), so
cached_tail_flags keys its cache on that form and densities that differ
only in point names share one record.  The smoothness witness picks the
filtered families of finite pool sets by the unnested-pair rule of
topology.filtered_subfamilies, among the seeded subfamily masks of
topology.subfamily_pool; the tuple test on each subfamily is the
oracle oracles._filtered_families_literal.

The value lattice must be a chain.  The closed forms of tail_flags,
and the canonical form, in which an infinite mass below the tail is
absorbed, are derived for chains, where the mass is either below the
tail or above it; other lattices are rejected up front.  Values from
outside become lattice elements through the lattice's coerce.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, reduce

from .errors import CrossCheckError, InputError, PreconditionError
from .order import Frozen, join_all, least_completion, level_grid
from .topology import (SpacePredicates, _filtered_families,
                       _subfamily_masks)

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
    out = []
    for s in pool:
        if s not in out:
            out.append(s)
    return tuple(out)


def tail_flags(td):
    """Classification flags of a tail density, as a dict.

    Each flag is computed from its closed form in (exceptions, tail,
    infinite mass).  Six are cross-checked against a literal bounded
    witness, and disagreement raises CrossCheckError: sigma_maxitive,
    inner, tight, continuous_from_above, usc_density_exists and
    upper_compact_density.  On the discrete space every
    set in the algebra is open, so the outer regularization is the
    measure itself and the outer-approximation flags are identically
    true; the inner-approximation flags reduce to comparing the
    infinite mass with the tail, and the downward-continuity flags to
    the vanishing of their join.

    The flags do not change when points are renamed, so they are
    computed on td.relabeled, whose exceptional points are 0, 1, ...
    in order: the witnesses then stop at the default horizon however
    far out the original points lie, and read that density's table.
    """
    lat = td.lattice
    td = td.relabeled
    bot = lat.bottom
    c, s = td.tail, td.infinite_mass
    inner_cond = lat.le(s, c)
    mass = lat.join(c, s)
    mass_zero = mass == bot

    flags = {
        "maxitive": True,
        "sigma_maxitive": inner_cond,
        "completely_maxitive": inner_cond,
        "inner": inner_cond,
        "outer": True,
        "weak_inner": inner_cond,
        "weak_outer": True,
        "regular": inner_cond,
        "saturated": True,
        "q_smooth": True,
        "k_smooth": True,
        "f_smooth": mass_zero,
        "tight": mass_zero,
        "continuous_from_above": mass_zero,
        "optimal": mass_zero,
        "usc_density_exists": inner_cond,
        "upper_compact_density": c == bot,
    }
    _cross_check_tail_flags(td, flags)
    return flags


def _cross_check_tail_flags(td, flags):
    lat = td.lattice
    bot = lat.bottom
    table = tuple(zip(td.pool, td.pool_values))
    h = horizon(td)

    # finite maxitivity on sample pairs: each union evaluated literally
    for a, va in table:
        for b, vb in table:
            lhs = td.value(a.union(b))
            rhs = lat.join(va, vb)
            if lhs != rhs:
                raise CrossCheckError(
                    f"maxitivity fails on {a!r}, {b!r}: {lhs!r} != {rhs!r}")

    # outer regularization is the identity: each set is its own least
    # open superset, and no open superset dips below it
    for b, vb in table:
        for g, vg in table:
            if b.issubset(g) and lat.le(vg, vb) and vg != vb:
                raise CrossCheckError(f"open superset {g!r} undercuts {b!r}")

    # countable cover of the exception-free cofinite set by singletons:
    # the literal supremum stabilizes at the tail after one member
    free = td.free
    members = free.members(limit=h)
    sup = join_all(lat, (td.value(FinCofinSet.of_points((x,)))
                         for x in members))
    if (sup == td.value(free)) != flags["sigma_maxitive"]:
        raise CrossCheckError("countable-cover witness disagrees with the "
                              "sigma-maxitivity closed form")

    # the same set approximated from inside by finite prefixes
    prefix_sup = join_all(lat, (td.value(FinCofinSet.of_points(members[:k]))
                                for k in range(1, h)))
    if (prefix_sup == td.value(free)) != flags["inner"]:
        raise CrossCheckError("finite-subset witness disagrees with the "
                              "inner-approximation closed form")

    # complements of growing prefixes: values stabilize once every
    # exceptional point is shaved off, so the bounded infimum is exact
    residue = None
    decreasing = []
    for k in range(h):
        v = td.value(FinCofinSet.cofinite(range(k)))
        decreasing.append(v)
        residue = v if residue is None else lat.meet(residue, v)
    if (residue == bot) != flags["tight"]:
        raise CrossCheckError("shrinking-complement witness disagrees with "
                              "the tightness closed form")
    if any(lat.le(decreasing[i], decreasing[i + 1])
           and decreasing[i] != decreasing[i + 1]
           for i in range(len(decreasing) - 1)):
        raise CrossCheckError("complement values failed to decrease")
    # the same chain shrinks to the empty set, deciding downward continuity
    if (residue == td.value(FinCofinSet.empty())) != flags["continuous_from_above"]:
        raise CrossCheckError("stabilizing chain witness disagrees with the "
                              "downward-continuity closed form")

    # the pointwise density reproduces the measure exactly when the
    # inner flags hold; the exception-free cofinite set is the binding case
    mismatch = [b for b, v in table if v != td.sup_density(b)]
    if flags["usc_density_exists"] != (not mismatch):
        raise CrossCheckError(f"density witness mismatch on {mismatch!r}")

    # filtered families of finite sets keep their least member, so
    # their value infima are literal
    value_of = dict(table)
    for fam in _filtered_finite_families(td):
        inter = fam[0]
        residue = value_of[fam[0]]
        for q in fam[1:]:
            inter = inter.intersection(q)
            residue = lat.meet(residue, value_of[q])
        if residue != td.value(inter):
            raise CrossCheckError(
                f"filtered family of finite sets breaks smoothness: {fam!r}")

    # the blocking set for the density at level t, built exactly
    grid = level_grid(lat, (td.tail, td.infinite_mass, bot,
                            *(v for _, v in td.exceptions)))
    literal_uc = all(
        _blocking_set(td, t).kind == "finite"
        for t in grid if lat.way_above(t, bot))
    if literal_uc != flags["upper_compact_density"]:
        raise CrossCheckError("blocking-set witness disagrees with the "
                              "upper-compactness closed form")


def _filtered_finite_families(td):
    """The filtered families among the subfamilies of the nonempty finite
    pool sets, all of them or a seeded sample, picked by the
    unnested-pair rule of topology.filtered_subfamilies."""
    finite_pool = tuple(b for b in td.pool
                        if b.kind == "finite" and not b.is_empty)
    masks, _ = _subfamily_masks(finite_pool, f"tail:{td!r}")
    return _filtered_families(finite_pool, masks, FinCofinSet.issubset)


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
    sample pool; the compact ones are the finite sets.  Each flag
    comes from tail_flags, which checks six closed forms against
    literal witnesses, once per relabeled density (cached_tail_flags);
    its smoothness witness reads the filtered families of finite pool
    sets that the unnested-pair rule picks.  The decomposition checks
    its levels on the pool."""

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

    # decomposition: the compact sets are the finite ones, so the
    # regular part keeps the pointwise density and drops the mass

    def regular_part(self, m):
        td, lat = m.tail, m.lattice
        reg = _pointwise(td)
        finite_values = [(k, v) for k, v in zip(td.pool, td.pool_values)
                         if is_compact(k)]
        for s in td.pool:
            members = s.members(limit=7)
            lit = join_all(lat, itertools.chain(
                (v for k, v in finite_values if k.issubset(s)),
                (td.value(FinCofinSet.of_points(members[:k]))
                 for k in range(1, 8))))
            if lit != reg.value(s):
                raise CrossCheckError(
                    f"regular part at {s!r}: finite approximations reach "
                    f"{lit!r}, expected {reg.value(s)!r}")
        return type(m).from_tail(reg)

    def singular_part(self, m, reg):
        """Zero on finite sets and one mass on infinite ones: the least
        completion at the exception-free set, where the outer value is
        tail + infinite mass and the regular part gives only the tail,
        which dominates every other constraint.  order.least_completion
        compares a scan of the levels of a finite chain with the
        residual; the mass is then checked as the least completion on
        every set of the pool."""
        td, lat = m.tail, m.lattice
        mass = least_completion(lat, [(td.value(td.free),
                                       reg.value(td.free))])
        sing = TailDensity(lat, {}, lat.bottom, mass)
        table = tuple(zip(td.pool, td.pool_values, map(reg.value, td.pool)))
        for b in td.pool:
            t = sing.value(b)
            for a, va, ra in table:
                if a.issubset(b) and not lat.le(va, lat.join(ra, t)):
                    raise CrossCheckError(
                        f"singular level {t!r} at {b!r} fails on subset {a!r}")
            if t != lat.bottom:
                binding = td.free.intersection(b)
                if lat.le(td.value(binding), reg.value(binding)):
                    raise CrossCheckError(f"singular level at {b!r} is {t!r} "
                                          f"but bottom completes")
        return type(m).from_tail(sing)

    def zero_like(self, m):
        lat = m.lattice
        return type(m).from_tail(TailDensity(lat, {}, lat.bottom, lat.bottom))

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
