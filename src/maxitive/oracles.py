"""Literal oracles: routes of the package stated straight from their
definitions, by brute force.  The tests run each against the fast route
it names; nothing in the package imports this module, so a cold process
never compiles it.

Orders come first, then finite spaces, then the countable discrete
space, then finite measures, where the two family quantifiers evaluate
the measure on every member and recompute the union or intersection,
and the flag record builds its family pools on each call and
quantifies over them with those two.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce

from .countable import _HORIZON, FinCofinSet
from .errors import BudgetError, CrossCheckError
from .measure import MaxitiveMeasure, _way_above_mask
from .order import bits, join_all, level_grid
from .topology import (_is_continuous, analysis, filtered_subfamilies,
                       subfamily_pool)


# orders: every vector of pair states, every subset's ranks

def _relation_walk_literal(n, states):
    """_relation_walk by trying every vector of pair states and keeping
    the transitive relations."""
    pairs = list(itertools.combinations(range(n), 2))
    for vector in itertools.product(states, repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), state in zip(pairs, vector):
            if state & 1:
                up[i] |= 1 << j
            if state & 2:
                up[j] |= 1 << i
        if all(not up[j] & ~up[i] for i in range(n) for j in bits(up[i])):
            yield tuple(up)


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


def _way_above_filter_literal(poset, s, r):
    """Decide s way above r straight from the definition: every filter
    that has an infimum below r contains s.  The oracle of
    FinitePoset.way_above."""
    for fmask in poset.filter_masks():
        i = poset.inf_of_mask(fmask)
        if i is None:
            continue
        if poset.le(i, r) and not (fmask >> s) & 1:
            return False
    return True


# spaces: every tuple of points, every cover

def _continuous_maps_literal(space, target):
    """Every tuple of target points whose preimages of opens are open."""
    return [f for f in itertools.product(range(target.n), repeat=space.n)
            if _is_continuous(space, target, f)]


def _is_compact_literal(space, mask):
    """Literal open-cover compactness test.

    Every subfamily of opens covering the set must admit a finite
    subcover; a per-point choice of covering member is extracted as an
    explicit witness.  Subfamilies are enumerated exhaustively up to the
    family cap and deterministically sampled beyond it.  On a finite
    space it always succeeds; the tests run it against _compact_masks.
    """
    covers, _ = subfamily_pool(space.opens_list, f"covers:{mask}")
    for fam in covers:
        union = 0
        for u in fam:
            union |= u
        if mask & ~union:
            continue
        witness = 0
        for x in bits(mask):
            for u in fam:
                if (u >> x) & 1:
                    witness |= u
                    break
        if mask & ~witness:
            return False
    return True


def _count_factorizations_literal(refl, target, f):
    """How many continuous maps g on the quotient satisfy
    g(point_map[x]) = f(x) for every x, trying every candidate g."""
    return sum(1 for g in itertools.product(range(target.n),
                                            repeat=refl.quotient.n)
               if all(g[c] == f[x] for x, c in enumerate(refl.point_map))
               and _is_continuous(refl.quotient, target, g))


def _filtered_subfamilies_literal(members, label):
    """filtered_subfamilies by the tuple test on each subfamily."""
    pool, exhaustive = subfamily_pool(members, "filtered:" + label)
    return tuple(fam for fam in pool
                 if all(any(not c & ~(a & b) for c in fam)
                        for a in fam for b in fam)), exhaustive


# the countable discrete space

def _singleton_cover_literal(s, horizon=_HORIZON):
    """The singleton-cover argument behind countable.is_compact, checked
    literally: True when a finite set is covered by its own singletons,
    and when every subfamily of at most `horizon` singletons leaves a
    member of a cofinite set uncovered."""
    if s.kind == "finite":
        union = FinCofinSet.empty()
        for x in s.support:
            union = union.union(FinCofinSet.of_points((x,)))
        return s.issubset(union)
    leftover = s.difference(FinCofinSet.of_points(s.members(limit=horizon)))
    return not leftover.is_empty


def _filtered_families_literal(td):
    """countable._filtered_finite_families by the tuple test on each
    subfamily of the same pool."""
    finite_pool = tuple(b for b in td.pool
                        if b.kind == "finite" and not b.is_empty)
    fams, _ = subfamily_pool(finite_pool, f"tail:{td!r}")
    return tuple(fam for fam in fams
                 if all(any(c.issubset(a.intersection(b)) for c in fam)
                        for a in fam for b in fam))


# finite measures

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


def _family_pools_literal(space):
    """The families of sets the finite record quantifies over, by name:
    subfamilies of the Borel sets and of the opens, the Borel chains
    (families totally ordered by inclusion), and the filtered families
    of opens, closed sets and compact Borel sets."""
    an = analysis(space)
    borel = subfamily_pool(an.borel_masks, f"borel:{space!r}")[0]
    pools = {
        "borel": borel,
        "chains": tuple(fam for fam in borel
                        if all(not a & ~b or not b & ~a
                               for a in fam for b in fam)),
        "wi": subfamily_pool(space.opens_list, f"wi:{space!r}")[0]}
    for kind, members in (("opens", space.opens_list),
                          ("closed", space.closed_list),
                          ("compact_borel", an.compact_borel)):
        pools[kind] = filtered_subfamilies(members, f"{kind}:{space!r}")[0]
    return pools


def _finite_record_literal(measure):
    """The flags of a finite measure, each from its definition: the
    oracle of the record FiniteBackend.classify states.  Where two
    formulations of a flag are available both are computed and
    compared."""
    space, lat = measure.space, measure.lattice
    an = measure._an
    bottom = lat.bottom
    borel = an.borel_masks
    compact_borel = an.compact_borel
    outer_value = measure.outer_regularization().value
    pools = _family_pools_literal(space)

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
    wi_covers = _unions_are_joins_literal(measure, pools["wi"])
    if wi_compact != wi_covers:
        raise CrossCheckError(
            "the two formulations of inner approximation on opens disagree")
    weak_inner = wi_compact

    # outer approximation on compacts: every Borel set is compact, so
    # it is outer-continuity, and must match its form on atoms alone
    wo_atoms = all(measure.value(a) == outer_value(a) for a in an.atoms)
    if outer != wo_atoms:
        raise CrossCheckError(
            "outer approximation on compacts disagrees with its atom form")
    weak_outer = outer

    saturated = all(measure.value(k) == measure.value(an.sat_table[k])
                    for k in compact_borel)

    q_smooth, f_smooth, k_smooth = (
        _intersections_are_infima_literal(measure, pools[kind])
        for kind in ("opens", "closed", "compact_borel"))

    tight = lat.inf([measure.value(space.full & ~k)
                     for k in compact_borel]) == bottom

    sigma = _unions_are_joins_literal(measure, pools["borel"])
    completely = sigma
    cfa = _intersections_are_infima_literal(measure, pools["chains"])

    usc_density = _usc_density_search(measure)

    return dict(
        inner=inner, outer=outer, weak_inner=weak_inner,
        weak_outer=weak_outer, regular=inner and outer, saturated=saturated,
        q_smooth=q_smooth, f_smooth=f_smooth, k_smooth=k_smooth, tight=tight,
        sigma_maxitive=sigma, completely_maxitive=completely,
        continuous_from_above=cfa, optimal=cfa and sigma,
        usc_density_exists=usc_density)


def _regular_part_literal(m):
    """The regular part of a finite measure from its definition: at each
    Borel set, the join of the outer values of its compact subsets.
    The oracle of FiniteBackend.regular_part."""
    lat, compacts = m.lattice, m.compact_sets()
    return MaxitiveMeasure.from_table(m.space, lat, {
        b: join_all(lat, (m.outer_value(k) for k in compacts if not k & ~b))
        for b in m.sets()})


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
        pool = tuple(sorted({lat.bottom, *measure.atom_values}))
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
