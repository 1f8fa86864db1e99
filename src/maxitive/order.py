"""Value lattices: finite posets and the extended nonnegative rationals.

Order conventions here are upside-down relative to most lattice
libraries.  A filter is a nonempty, filtered, upward closed subset; the
way-above relation replaces way-below; a poset is continuous when every
element is the infimum of the filter of elements way above it; and a
domain is a filtered-complete continuous poset.  Measure values always
live in a poset with a bottom element 0, but posets in general do not
need one, and the enumeration helpers below produce bottomless posets
too.  The supremum of an empty family is defined to be the bottom
element whenever one exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import (
    BudgetError,
    CrossCheckError,
    InputError,
    MissingInfimumError,
    MissingSupremumError,
    PreconditionError,
)


def bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """Finite partial order stored as up-set bitmasks.

    up[i] is the bitmask of every j with i <= j.  Elements are addressed
    by index; names are labels for input and output only.  In a finite
    poset every filter is the principal up-set of its minimum, so the
    way-above relation collapses to the order itself; way_above applies
    that rule and way_above_filter_oracle re-derives the relation from
    the definition by enumerating all filters.

    join and meet read n x n tables, each built on its first use, so a
    poset that is only enumerated builds neither.  The bitmask routes
    sup_of_mask and inf_of_mask define every entry, None where a pair
    has no bound.  inf reads a third table, the infimum keyed by the
    mask of the values, filled from inf_of_mask one mask at a time as
    it is asked for; each two-element entry is checked against the meet
    table when it is filled.
    """

    def __init__(self, names, up):
        names = tuple(names)
        up = tuple(int(m) for m in up)
        n = len(names)
        if len(set(names)) != n:
            raise InputError("duplicate element names")
        if len(up) != n:
            raise InputError("up-set list does not match element count")
        full = (1 << n) - 1
        down = [0] * n
        for i, m in enumerate(up):
            if m & ~full:
                raise InputError("up-set mask out of range")
            if not (m >> i) & 1:
                raise InputError(f"relation not reflexive at {names[i]}")
        for i in range(n):
            for j in bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise InputError(
                        f"relation not antisymmetric on {names[i]}, {names[j]}")
                if up[j] & ~up[i]:
                    raise InputError(
                        f"relation not transitive through {names[i]} <= {names[j]}")
                down[j] |= 1 << i
        self.names = names
        self.n = n
        self.up = up
        self.down = tuple(down)
        self._full = full
        self._bottom = next((i for i, m in enumerate(up) if m == full), None)
        self._infs = {}

    @classmethod
    def from_pairs(cls, names, pairs):
        """Build from a generating relation given as (below, above) name pairs."""
        names = tuple(names)
        index = {x: i for i, x in enumerate(names)}
        n = len(names)
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            if a not in index or b not in index:
                raise InputError(f"unknown element in pair ({a}, {b})")
            up[index[a]] |= 1 << index[b]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                m = up[i]
                for j in bits(m):
                    m |= up[j]
                if m != up[i]:
                    up[i] = m
                    changed = True
        return cls(names, up)

    @classmethod
    def chain(cls, k):
        """The chain 0 < 1 < ... < k-1."""
        full = (1 << k) - 1
        return cls(tuple(str(i) for i in range(k)),
                   tuple((full >> i) << i for i in range(k)))

    @classmethod
    def diamond(cls):
        """Four elements 0 < a, b < 1 with a, b incomparable."""
        return cls.from_pairs(("0", "a", "b", "1"),
                              [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])

    @classmethod
    def pentagon(cls):
        """The five element lattice 0 < a < b < 1, 0 < c < 1; not distributive."""
        return cls.from_pairs(("0", "a", "b", "c", "1"),
                              [("0", "a"), ("a", "b"), ("b", "1"),
                               ("0", "c"), ("c", "1")])

    @classmethod
    def m3(cls):
        """Three incomparable atoms between 0 and 1; not distributive."""
        return cls.from_pairs(("0", "a", "b", "c", "1"),
                              [("0", "a"), ("0", "b"), ("0", "c"),
                               ("a", "1"), ("b", "1"), ("c", "1")])

    def __eq__(self, other):
        return (isinstance(other, FinitePoset)
                and self.names == other.names and self.up == other.up)

    def __hash__(self):
        return hash((self.names, self.up))

    def __repr__(self):
        rels = [f"{self.names[i]}<{self.names[j]}"
                for i in range(self.n) for j in bits(self.up[i]) if i != j]
        return f"FinitePoset({', '.join(self.names)}; {', '.join(rels)})"

    # order primitives

    is_finite = True

    def values(self):
        return range(self.n)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown lattice element {name!r}") from None

    def name(self, value):
        return self.names[value]

    def le(self, a, b):
        return bool((self.up[a] >> b) & 1)

    def mask_of(self, values):
        m = 0
        for v in values:
            m |= 1 << v
        return m

    @property
    def has_bottom(self):
        return self._bottom is not None

    @property
    def bottom(self):
        if self._bottom is None:
            raise PreconditionError("poset has no bottom element")
        return self._bottom

    def sup_of_mask(self, mask):
        """Least upper bound of the elements in mask, or None.

        An empty mask yields the bottom element when one exists.
        """
        ub = self._full
        for v in bits(mask):
            ub &= self.up[v]
        for k in bits(ub):
            if not ub & ~self.up[k]:
                return k
        return None

    def inf_of_mask(self, mask):
        """Greatest lower bound of the elements in mask, or None."""
        if mask == 0:
            raise InputError("infimum of an empty family")
        lb = self._full
        for v in bits(mask):
            lb &= self.down[v]
        for k in bits(lb):
            if not lb & ~self.down[k]:
                return k
        return None

    def sup(self, values):
        s = self.sup_of_mask(self.mask_of(values))
        if s is None:
            raise MissingSupremumError("family has no least upper bound")
        return s

    def inf(self, values):
        mask = self.mask_of(values)
        try:
            i = self._infs[mask]
        except KeyError:
            i = self._infs[mask] = self._inf_entry(mask)
        if i is None:
            raise MissingInfimumError("family has no greatest lower bound")
        return i

    def _pair_table(self, bound_of_mask):
        rows = [[None] * self.n for _ in range(self.n)]
        for a in range(self.n):
            for b in range(a, self.n):
                rows[a][b] = rows[b][a] = bound_of_mask(1 << a | 1 << b)
        return tuple(map(tuple, rows))

    @cached_property
    def _joins(self):
        return self._pair_table(self.sup_of_mask)

    @cached_property
    def _meets(self):
        return self._pair_table(self.inf_of_mask)

    @cached_property
    def _bound_tables(self):
        """(mask, supremum) for every subset of two or more elements
        that has a supremum, and (mask, infimum) for every filtered
        subset of two or more elements that has an infimum: what a map
        preserving existing suprema and filtered infima must respect.
        A one-element family is its own bound, and the empty family is
        left to the caller."""
        sups = tuple((m, s) for m in range(1 << self.n) if m & (m - 1)
                     and (s := self.sup_of_mask(m)) is not None)
        infs = tuple((m, i) for m in self.filtered_masks() if m & (m - 1)
                     and (i := self.inf_of_mask(m)) is not None)
        return sups, infs

    def _inf_entry(self, mask):
        i = self.inf_of_mask(mask)
        rest = mask & (mask - 1)
        if rest and not rest & (rest - 1):
            a, b = (mask & -mask).bit_length() - 1, rest.bit_length() - 1
            if self._meets[a][b] != i:
                raise CrossCheckError(
                    f"meet table sends {self.names[a]}, {self.names[b]} to "
                    f"{self._meets[a][b]!r}, the infimum is {i!r}")
        return i

    def join(self, a, b):
        s = self._joins[a][b]
        if s is None:
            raise MissingSupremumError("family has no least upper bound")
        return s

    def meet(self, a, b):
        i = self._meets[a][b]
        if i is None:
            raise MissingInfimumError("family has no greatest lower bound")
        return i

    def way_above(self, s, r):
        return self.le(r, s)

    def is_chain(self):
        return all(self.le(a, b) or self.le(b, a)
                   for a in range(self.n) for b in range(a + 1, self.n))

    def is_lattice(self):
        if self.n == 0:
            return False
        pairs = itertools.combinations(range(self.n), 2)
        return all(self.sup_of_mask(1 << a | 1 << b) is not None
                   and self.inf_of_mask(1 << a | 1 << b) is not None
                   for a, b in pairs)

    # subset predicates and enumeration

    def is_upward_closed_mask(self, mask):
        return all(not self.up[i] & ~mask for i in bits(mask))

    def is_filtered_mask(self, mask):
        """Every pair of members has a lower bound among the members."""
        if mask == 0:
            return False
        members = list(bits(mask))
        return all(self.down[a] & self.down[b] & mask
                   for a in members for b in members)

    def is_filter_mask(self, mask):
        return (mask != 0 and self.is_upward_closed_mask(mask)
                and self.is_filtered_mask(mask))

    def filter_masks(self):
        for mask in range(1, 1 << self.n):
            if self.is_filter_mask(mask):
                yield mask

    def filtered_masks(self):
        for mask in range(1, 1 << self.n):
            if self.is_filtered_mask(mask):
                yield mask

    def way_above_filter_oracle(self, s, r):
        """Decide s way above r straight from the definition.

        Enumerates every filter that has an infimum and demands that
        whenever that infimum is below r, the filter contains s.
        """
        for fmask in self.filter_masks():
            i = self.inf_of_mask(fmask)
            if i is None:
                continue
            if self.le(i, r) and not (fmask >> s) & 1:
                return False
        return True


@dataclass(frozen=True)
class Ext:
    """Exact nonnegative rational extended with infinity (finite=None)."""

    finite: Fraction | None

    def __post_init__(self):
        if self.finite is not None:
            if not isinstance(self.finite, Fraction):
                raise InputError("Ext holds a Fraction or None")
            if self.finite < 0:
                raise InputError("extended reals here are nonnegative")

    @classmethod
    def of(cls, x):
        if isinstance(x, Ext):
            return x
        if isinstance(x, str):
            if x.strip() == "inf":
                return INFINITY
            try:
                return cls(Fraction(x))
            except (ValueError, ZeroDivisionError) as e:
                raise InputError(f"bad extended rational {x!r}: {e}") from None
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return cls(Fraction(x))
        raise InputError(f"cannot interpret {x!r} as an extended rational")

    @property
    def is_infinite(self):
        return self.finite is None

    def __le__(self, other):
        if other.finite is None:
            return True
        if self.finite is None:
            return False
        return self.finite <= other.finite

    def __lt__(self, other):
        return self <= other and self != other

    def __gt__(self, other):
        return other < self

    def __ge__(self, other):
        return other <= self

    def __repr__(self):
        return "inf" if self.finite is None else str(self.finite)


ZERO = Ext(Fraction(0))
INFINITY = Ext(None)


class ExtendedRationals:
    """The complete chain of extended nonnegative rationals.

    All arithmetic is exact.  Way-above has the closed form s = inf or
    s > r: the only filters are the final segments [a, inf] and
    (a, inf], each with infimum a, and s belongs to all of those with
    a <= r exactly when s exceeds r or s is infinite.  The closed form
    is cross-checked against such interval filters in the test suite.
    """

    is_finite = False

    bottom = ZERO

    def le(self, a, b):
        return a <= b

    def sup(self, values):
        return max(values, default=ZERO)

    def inf(self, values):
        values = list(values)
        if not values:
            raise InputError("infimum of an empty family")
        return min(values)

    def join(self, a, b):
        return a if b <= a else b

    def meet(self, a, b):
        return a if a <= b else b

    def way_above(self, s, r):
        return s.is_infinite or r < s

    def is_chain(self):
        return True

    def is_lattice(self):
        return True

    def __eq__(self, other):
        return isinstance(other, ExtendedRationals)

    def __hash__(self):
        return hash("ExtendedRationals")

    def __repr__(self):
        return "ExtendedRationals()"


EXT_REALS = ExtendedRationals()


@dataclass(frozen=True)
class RationalFilter:
    """A filter of extended rationals: [lower, inf] if closed else (lower, inf]."""

    lower: Ext
    closed: bool

    def __post_init__(self):
        if self.lower.is_infinite and not self.closed:
            raise InputError("(inf, inf] is empty, not a filter")

    @property
    def infimum(self):
        return self.lower

    def contains(self, v):
        return self.lower <= v if self.closed else self.lower < v


@dataclass(frozen=True)
class LatticeReport:
    """Domain-theoretic profile of a value lattice."""

    is_lattice: bool
    continuous: bool
    filtered_complete: bool
    interpolation: bool
    distributive: bool
    conditionally_complete: bool


def level_grid(lat, values):
    """Levels sufficient to distinguish every way-above superlevel set
    of a function with the given values.

    A finite lattice is swept in full.  On the extended rationals the
    superlevel sets only change at the values themselves, so the values
    together with midpoints between neighbours, one level above the
    largest finite value, bottom, and infinity cover every case.
    """
    if lat.is_finite:
        return tuple(lat.values())
    finite_vals = sorted({v.finite for v in values if v.finite is not None})
    grid = {ZERO, INFINITY}
    grid.update(Ext(f) for f in finite_vals)
    for a, b in zip(finite_vals, finite_vals[1:]):
        grid.add(Ext((a + b) / 2))
    if finite_vals:
        grid.add(Ext(finite_vals[-1] + 1))
    return tuple(sorted(grid, key=lambda v: (v.finite is None, v.finite or 0)))


def join_all(lat, values):
    """Join of the values taken pair by pair from bottom; bottom for
    an empty family."""
    out = lat.bottom
    for v in values:
        out = lat.join(out, v)
    return out


def way_above(lattice, s, r):
    return lattice.way_above(s, r)


# check_domain scans all 2^n subsets for conditional completeness; at
# 16 elements that takes about half a second, doubling per element
_DOMAIN_SCAN_LIMIT = 16


@lru_cache(maxsize=None)
def check_domain(lattice):
    """The LatticeReport of a finite poset or the extended rationals,
    computed once per lattice and shared by every later request."""
    if isinstance(lattice, ExtendedRationals):
        # Closed chain: way-above sets (r, inf] are filters with infimum r,
        # every final segment has an infimum, interpolation picks any
        # rational strictly between, and chains are distributive.
        return LatticeReport(True, True, True, True, True, True)
    if not isinstance(lattice, FinitePoset):
        raise InputError(f"cannot analyze lattice of type {type(lattice).__name__}")
    P = lattice
    if P.n > _DOMAIN_SCAN_LIMIT:
        raise BudgetError(f"domain checks take lattices of at most "
                          f"{_DOMAIN_SCAN_LIMIT} elements; got {P.n}")
    rng = range(P.n)

    continuous = True
    for r in rng:
        wa = P.mask_of(s for s in rng if P.way_above(s, r))
        if not P.is_filter_mask(wa) or P.inf_of_mask(wa) != r:
            continuous = False

    filtered_complete = all(P.inf_of_mask(f) is not None for f in P.filter_masks())

    interpolation = True
    for r in rng:
        for s in rng:
            if P.way_above(s, r):
                if not any(P.way_above(s, t) and P.way_above(t, r) for t in rng):
                    interpolation = False

    lattice_ok = P.is_lattice()
    distributive = lattice_ok
    if lattice_ok:
        for a in rng:
            for b in rng:
                for c in rng:
                    lhs = P.meet(a, P.join(b, c))
                    rhs = P.join(P.meet(a, b), P.meet(a, c))
                    if lhs != rhs:
                        distributive = False

    conditionally_complete = True
    for mask in range(1, 1 << P.n):
        ub = P._full
        for v in bits(mask):
            ub &= P.up[v]
        if ub and P.sup_of_mask(mask) is None:
            conditionally_complete = False

    report = LatticeReport(lattice_ok, continuous, filtered_complete,
                           interpolation, distributive, conditionally_complete)
    if continuous and filtered_complete and not interpolation:
        raise CrossCheckError(
            "a continuous filtered-complete poset fails to interpolate")
    return report


def join_continuity(lattice, t, filt):
    """Return t joined with the infimum of the filter, checking that the
    join distributes over the filtered infimum."""
    if isinstance(lattice, ExtendedRationals):
        if not isinstance(filt, RationalFilter):
            raise InputError("extended rationals need a RationalFilter")
        lower = filt.infimum
        result = lattice.join(t, lower)
        # image of the filter under joining with t, then its infimum
        if filt.closed:
            image_inf = lattice.join(t, lower)
        elif lower < t:
            # members (lower, t] map to t, the rest stay put
            image_inf = t
        else:
            # every member max(t, f) = f ranges over (lower, inf]
            image_inf = lower
        if image_inf != result:
            raise CrossCheckError(
                f"joining {t!r} does not commute with the infimum of the "
                f"filter above {lower!r}")
        return result
    P = lattice
    fmask = P.mask_of(filt)
    if not P.is_filter_mask(fmask):
        raise InputError("the given subset is not a filter")
    base = P.inf_of_mask(fmask)
    if base is None:
        raise PreconditionError("filter has no infimum")
    joined = [P.join(t, f) for f in bits(fmask)]
    result = P.join(t, base)
    image_inf = P.inf(joined)
    if image_inf != result:
        raise CrossCheckError(
            f"joining {P.name(t)} does not commute with the filter infimum")
    return result


def separating_map(poset, s, t):
    """A two-valued map into [0, 1] that separates s from t.

    Sends r to 1 exactly when r is not below t; this preserves every
    existing supremum and every filtered infimum, takes value 1 at s and
    0 at t, and exists whenever s is not below t.
    """
    if not isinstance(poset, FinitePoset):
        raise InputError("separating maps are built over finite posets")
    if poset.le(s, t):
        raise PreconditionError(
            f"{poset.name(s)} <= {poset.name(t)}: nothing to separate")
    one, zero = Fraction(1), Fraction(0)
    return {r: (zero if poset.le(r, t) else one) for r in poset.values()}


def separating_map_preserves(poset, phi):
    """Check that phi preserves all existing suprema and filtered infima.

    phi maps into a total order, so it is read one value level at a
    time, as the bitmask L of the elements it sends at most that high.
    A supremum is kept at every level iff (target in L) <=> (members
    inside L), and a filtered infimum iff (target in L) <=> (some
    member in L): taken at the levels phi(target) and the largest, or
    least, member value, the two sides force them equal.  The top
    level holds every element and is skipped.  The bounds come from
    the poset's (mask, target) tables, and the supremum of the empty
    family, the bottom, must go to Fraction(0).
    """
    if poset.has_bottom and phi[poset.bottom] != Fraction(0):
        return False
    sups, infs = poset._bound_tables
    for level in sorted(set(phi.values()))[:-1]:
        low = poset.mask_of(v for v in poset.values() if phi[v] <= level)
        if not (all((low >> t & 1) == (not m & ~low) for m, t in sups)
                and all((low >> t & 1) == bool(m & low) for m, t in infs)):
            return False
    return True


_POSET_ENUM_LIMIT = 5


def enumerate_posets(n):
    """All labeled posets on n elements, in a fixed deterministic order.

    A depth-first walk gives each unordered pair, in turn, one of three
    states (incomparable, ascending, descending).  Every triple of
    elements is settled with its last pair, and the walk leaves a
    branch there as soon as the triple breaks transitivity.  So every
    partial order appears exactly once, in the order of the full
    product of states that _enumerate_posets_literal filters.
    """
    if not 0 <= n <= _POSET_ENUM_LIMIT:
        raise BudgetError(f"poset enumeration supports 0 <= n <= {_POSET_ENUM_LIMIT}")
    names = tuple("abcdef"[:n])
    pairs = tuple(itertools.combinations(range(n), 2))
    up = [1 << i for i in range(n)]

    def walk(p):
        if p == len(pairs):
            yield FinitePoset(names, up)
            return
        a, b = pairs[p]
        for i, bit in ((a, 0), (a, 1 << b), (b, 1 << a)):
            up[i] |= bit
            if all(_transitive_on(up, (x, a, b)) for x in range(a)):
                yield from walk(p + 1)
            up[i] ^= bit

    yield from walk(0)


def _transitive_on(up, triple):
    """The relation in up is transitive on the three elements of triple."""
    return not any(up[i] >> j & 1 and up[j] >> k & 1 and not up[i] >> k & 1
                   for i, j, k in itertools.permutations(triple))


def enumerate_lattices(n):
    """All labeled lattices on n >= 1 elements."""
    if n < 1:
        raise InputError("a lattice has at least one element")
    for poset in enumerate_posets(n):
        if poset.is_lattice():
            yield poset


# Literal oracles for the routes above: the filter over the full
# product of pair states, and the rank comparison over every subset.
# The tests run them against the fast routes; nothing else calls them.

def _enumerate_posets_literal(n):
    """enumerate_posets by trying all 3^(n(n-1)/2) pair states and
    keeping the transitive ones."""
    names = tuple("abcdef"[:n])
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), st in zip(pairs, states):
            if st == 1:
                up[i] |= 1 << j
            elif st == 2:
                up[j] |= 1 << i
        if all(not up[j] & ~up[i] for i in range(n) for j in bits(up[i])):
            yield FinitePoset(names, up)


def _separating_map_preserves_literal(poset, phi):
    """separating_map_preserves by comparing the ranks of phi's values,
    Fraction(0) ranked as the supremum of the empty family, at every
    subset that has a supremum and every filtered one with an infimum."""
    zero = Fraction(0)
    rank_of = {v: r for r, v in enumerate(sorted({zero, *phi.values()}))}
    rank = [rank_of[phi[v]] for v in poset.values()]
    return (all(rank[s] == max((rank[v] for v in bits(m)),
                               default=rank_of[zero])
                for m in range(1 << poset.n)
                if (s := poset.sup_of_mask(m)) is not None)
            and all(rank[i] == min(rank[v] for v in bits(m))
                    for m in poset.filtered_masks()
                    if (i := poset.inf_of_mask(m)) is not None))
