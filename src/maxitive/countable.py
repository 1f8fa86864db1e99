"""Countably infinite discrete space over the finite/cofinite algebra.

Subsets carry an exact representation: either a finite set of naturals
or the complement of one.  Measures are tail densities: finitely many
exceptional points carry their own value, every other point carries a
common tail value, and infinite sets absorb one extra mass on top of
their pointwise supremum.  Every classification flag then has a closed
form in the three parameters, and each closed form is cross-checked
against literal bounded witnesses; the witnesses are exact, not
approximate, because every quantity they track becomes constant once
the enumeration horizon passes all exceptional points.

Each density keeps its sample pool and a value table over that pool,
both built on first use.  The pair and subset loops of the witnesses,
and those of the harness and the decomposition, read the table; every
union, cover, prefix and intersection they form is still evaluated
literally, so a wrong table entry shows up as a disagreement.

The value lattice must be a chain.  Infima of up-closed value sets are
attained on chains, which the singular-part computation relies on, so
non-chain lattices are rejected up front instead of producing wrong
decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import CrossCheckError, InputError, PreconditionError
from .order import EXT_REALS, FinitePoset, join_all, level_grid
from .topology import SpacePredicates, subfamily_pool

_HORIZON = 50


@dataclass(frozen=True)
class FinCofinSet:
    """A finite or cofinite set of naturals.

    kind is "finite" or "cofinite"; support is the finite set itself or
    the finite complement.
    """

    kind: str
    support: frozenset

    def __post_init__(self):
        if self.kind not in ("finite", "cofinite"):
            raise InputError(f"bad set kind {self.kind!r}")
        for x in self.support:
            # a bool is an int to Python, not a natural here
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise InputError("set members must be naturals")

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
        return FinCofinSet(other, self.support)

    def union(self, other):
        a, b = self, other
        if a.kind == "finite" and b.kind == "finite":
            return FinCofinSet("finite", a.support | b.support)
        if a.kind == "cofinite" and b.kind == "cofinite":
            return FinCofinSet("cofinite", a.support & b.support)
        fin, cof = (a, b) if a.kind == "finite" else (b, a)
        return FinCofinSet("cofinite", cof.support - fin.support)

    def intersection(self, other):
        a, b = self, other
        if a.kind == "finite" and b.kind == "finite":
            return FinCofinSet("finite", a.support & b.support)
        if a.kind == "cofinite" and b.kind == "cofinite":
            return FinCofinSet("cofinite", a.support | b.support)
        fin, cof = (a, b) if a.kind == "finite" else (b, a)
        return FinCofinSet("finite", fin.support - cof.support)

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


def singleton_cover_check(s, horizon=_HORIZON):
    """Literal check of the singleton-cover argument behind is_compact.

    Returns True when the bounded check agrees with is_compact: a
    finite set is covered by its own singletons, and for a cofinite set
    every subfamily of at most `horizon` singletons leaves a member
    uncovered.
    """
    if s.kind == "finite":
        cover = [FinCofinSet.of_points((x,)) for x in s.support]
        union = FinCofinSet.empty()
        for c in cover:
            union = union.union(c)
        return s.issubset(union)
    chosen = s.members(limit=horizon)
    union = FinCofinSet.of_points(chosen)
    leftover = s.difference(union)
    return not leftover.is_empty


class CountableDiscrete:
    """The countable discrete space.  Every subset in the algebra is
    open and closed; saturation and closure are the identity; the
    compact subsets are the finite ones."""

    is_finite = False

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


@dataclass(frozen=True)
class TailDensity:
    """A maxitive measure on the finite/cofinite algebra.

    The density of a point is its exceptional value when it has one and
    the tail value otherwise; the value of a set is the supremum of the
    densities of its points, joined with the infinite mass when the set
    is infinite.

    Two representations can evaluate identically: an exception equal to
    the tail is redundant, and an infinite mass below the tail is
    absorbed by it.  The constructor canonicalizes both away, so
    equality of TailDensity objects is equality of measures.
    """

    lattice: object
    exceptions: tuple
    tail: object
    infinite_mass: object

    def __init__(self, lattice, exceptions, tail, infinite_mass):
        if not lattice.is_chain():
            raise PreconditionError(
                "tail densities require a chain of values")
        bottom = lattice.bottom  # PreconditionError on a bottomless chain
        tail = _coerce(lattice, tail)
        infinite_mass = _coerce(lattice, infinite_mass)
        if hasattr(exceptions, "items"):
            exceptions = exceptions.items()
        cleaned = {}
        for x, v in exceptions:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise InputError("exception points must be naturals")
            v = _coerce(lattice, v)
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

    def density(self, x):
        for p, v in self.exceptions:
            if p == x:
                return v
        return self.tail

    def exception_sup(self, s):
        """Supremum of the exceptional values inside s."""
        out = self.lattice.bottom
        for x, v in self.exceptions:
            if s.contains(x):
                out = self.lattice.join(out, v)
        return out

    def sup_density(self, s):
        """Pointwise supremum of the density over s, exact for both
        finite and cofinite s.  A cofinite set always contains a
        non-exceptional point, so its pointwise supremum includes the
        tail."""
        if s.kind == "finite":
            return join_all(self.lattice,
                            (self.density(x) for x in sorted(s.support)))
        return self.lattice.join(self.exception_sup(s), self.tail)

    def value(self, s):
        v = self.sup_density(s)
        if s.is_infinite:
            v = self.lattice.join(v, self.infinite_mass)
        return v

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


def _coerce(lattice, v):
    if lattice is EXT_REALS:
        return EXT_REALS.join(EXT_REALS.bottom, _ext_of(v))
    if isinstance(lattice, FinitePoset):
        if not isinstance(v, int) or isinstance(v, bool) \
                or not 0 <= v < lattice.n:
            raise InputError(f"value {v!r} outside the chain")
        return v
    raise InputError(f"unsupported lattice {lattice!r}")


def _ext_of(v):
    from .order import Ext
    return Ext.of(v)


def _exception_points(td):
    return tuple(x for x, _ in td.exceptions)


def horizon(td):
    """How far bounded enumerations reach: past every exceptional
    point, and at least `_HORIZON` members."""
    pts = _exception_points(td)
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
    pts = _exception_points(td)
    exceptional = FinCofinSet.of_points(pts)
    pool = [_EMPTY, _UNIVERSE, exceptional.complement()]
    for x in pts:
        single = FinCofinSet.of_points((x,))
        pool.append(single)
        pool.append(single.complement())
    free = exceptional.complement().members(limit=3)
    pool.append(FinCofinSet.of_points(free))
    pool.extend(_PREFIXES)
    pool.append(exceptional)
    out = []
    for s in pool:
        if s not in out:
            out.append(s)
    return tuple(out)


def tail_flags(td):
    """Classification flags of a tail density, as a dict.

    Each flag is computed from its closed form in (exceptions, tail,
    infinite mass) and cross-checked against a literal bounded witness;
    disagreement raises CrossCheckError.  On the discrete space every
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
    free = FinCofinSet.cofinite(_exception_points(td))
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
    finite_pool = tuple(b for b in td.pool
                        if b.kind == "finite" and not b.is_empty)
    fams, _ = subfamily_pool(finite_pool, f"tail:{td!r}")
    for fam in fams:
        if not all(any(c.issubset(a.intersection(b)) for c in fam)
                   for a in fam for b in fam):
            continue
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


@lru_cache(maxsize=None)
def cached_tail_flags(td):
    return tail_flags(td)
