"""Literal oracles: routes of the package stated straight from their
definitions, by brute force.  The tests run each against the fast route
it names; nothing in the package imports this module, so a cold process
never compiles it.

Orders come first, then finite spaces, then the countable discrete
space with the record and the decomposition of a tail density, then
finite measures, where the two family quantifiers evaluate the measure
on every member and recompute the union or intersection, the flag
record builds its family pools on each call and quantifies over them
with those two, and the two parts are the join over compact subsets
and the least completion over every subset.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce

from .countable import _HORIZON, FinCofinSet, horizon
from .errors import BudgetError, CrossCheckError
from .measure import MaxitiveMeasure, _way_above_mask
from .order import bits, join_all, least_completion, level_grid
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


def _covered_by_first_singletons(s, h):
    """Compactness on the discrete space, literally: whether the
    singletons of the first h members of s, a finite subfamily of its
    singleton cover, already cover it."""
    return s.issubset(FinCofinSet.of_points(s.members(limit=h)))


def _saturation_of_pool_set(td, k):
    """The saturation of a pool set k: the intersection of its open
    supersets in the pool, every set of the discrete space being
    open."""
    return reduce(FinCofinSet.intersection,
                  (g for g in td.pool if k.issubset(g)))


def _tail_family_pools_literal(td):
    """The families of finite pool sets the tail record quantifies over,
    by name: the filtered subfamilies of the compact sets and of the
    compact saturated sets, and the chains of compact sets, each picked
    by the tuple test among the subfamilies subfamily_pool draws.
    Returns (pools, exhaustive)."""
    h = horizon(td)
    compact = tuple(b for b in td.pool
                    if not b.is_empty and _covered_by_first_singletons(b, h))
    saturated = tuple(k for k in compact
                      if _saturation_of_pool_set(td, k) == k)

    def filtered(fam):
        return all(any(c.issubset(a.intersection(b)) for c in fam)
                   for a in fam for b in fam)

    def chain(fam):
        return all(a.issubset(b) or b.issubset(a) for a in fam for b in fam)

    pools, exhaustive = {}, True
    for kind, members, test in (("compact", compact, filtered),
                                ("compact_saturated", saturated, filtered),
                                ("chains", compact, chain)):
        fams, complete = subfamily_pool(members, f"tail:{kind}:{td!r}")
        pools[kind] = tuple(filter(test, fams))
        exhaustive = exhaustive and complete
    return pools, exhaustive


def _tail_record_literal(td):
    """The flags of a tail density, each from its definition on bounded
    families: the oracle of the record countable.tail_flags states.

    Every set of the discrete space is open and closed.  The sets
    quantified over are the sample pool, the singletons, and the set of
    the first h members of each pool set, h the horizon.  That reaches
    past every exceptional point, and the values the families track are
    constant from there on, so each bounded join or meet is the one
    over the whole family.  Returns booleans and never raises.
    """
    lat = td.lattice
    bot = lat.bottom
    value, pool = td.value, td.pool
    h = horizon(td)
    pools = _tail_family_pools_literal(td)[0]
    empty = FinCofinSet.empty()
    head = {b: FinCofinSet.of_points(b.members(limit=h)) for b in pool}
    compact = [b for b in pool if _covered_by_first_singletons(b, h)]
    values = {b: value(b) for b in pool}
    # the value of each singleton of those first members
    single = {x: value(FinCofinSet.of_points((x,)))
              for x in set().union(*(head[b].support for b in pool))}

    def outer_value(b):
        # the infimum over the open supersets: b itself and the pool's
        return lat.inf([value(b), *(values[g] for g in pool
                                    if b.issubset(g))])

    def inside(b):
        # the finite subsets of b: the compact pool sets within it and
        # its first h members
        return [*(k for k in compact if k.issubset(b)), head[b]]

    def infima(families):
        return all(lat.inf([values[m] for m in fam])
                   == value(reduce(FinCofinSet.intersection, fam))
                   for fam in families)

    maxitive = value(empty) == bot and all(
        value(a.union(b)) == lat.join(values[a], values[b])
        for a in pool for b in pool)
    # each set is the union of its singletons, countably many; and the
    # density read off the singletons, upper semicontinuous as every
    # function on a discrete space is, reproduces the measure iff its
    # joins do
    pointwise = all(values[b] == join_all(lat, map(single.__getitem__,
                                                   head[b].support))
                    for b in pool)
    sigma = maxitive and pointwise
    # every union of a countable space's sets is a countable union
    completely = sigma
    inner = all(values[b] == join_all(lat, map(value, inside(b)))
                for b in pool)
    weak_inner = all(values[g] == join_all(lat, map(outer_value, inside(g)))
                     for g in pool)
    outer = all(values[b] == outer_value(b) for b in pool)
    weak_outer = all(values[k] == outer_value(k) for k in compact)
    saturated = all(values[k] == value(_saturation_of_pool_set(td, k))
                    for k in compact)
    q_smooth = infima(pools["compact_saturated"])
    k_smooth = infima(pools["compact"])
    # the closed chain of complements of growing prefixes shrinks to
    # the empty set
    shrinking = lat.inf([value(FinCofinSet.cofinite(range(k)))
                         for k in range(h)]) == value(empty)
    f_smooth = shrinking and k_smooth
    cfa = shrinking and infima(pools["chains"])
    tight = lat.inf([value(k.complement())
                     for k in (*compact, FinCofinSet.of_points(range(h)))
                     ]) == bot
    # the upper density is the outer value of each singleton, constant
    # past the horizon; a blocking set holds the points where it is not
    # way below a level
    upper = [outer_value(FinCofinSet.of_points((x,))) for x in range(h + 1)]
    upper_compact = True
    for t in level_grid(lat, (bot, *upper)):
        if lat.way_above(t, bot):
            blocked = FinCofinSet.of_points(
                x for x in range(h) if not lat.way_above(t, upper[x]))
            if not lat.way_above(t, upper[h]):
                blocked = blocked.union(FinCofinSet.cofinite(range(h)))
            upper_compact &= _covered_by_first_singletons(blocked, h)
    return dict(
        maxitive=maxitive, sigma_maxitive=sigma,
        completely_maxitive=completely, inner=inner, outer=outer,
        weak_inner=weak_inner, weak_outer=weak_outer,
        regular=inner and outer, saturated=saturated, q_smooth=q_smooth,
        k_smooth=k_smooth, f_smooth=f_smooth, tight=tight,
        continuous_from_above=cfa, optimal=cfa and sigma,
        usc_density_exists=pointwise,
        upper_compact_density=upper_compact)


def _tail_decomposition_literal(td):
    """The regular and singular parts of a tail density at each pool
    set, from their definitions, as two tuples aligned with the pool:
    the oracle of TailBackend.regular_part and singular_part.

    Every set is open, so the outer regularization is the measure.  The
    regular part at a set joins the values of its finite subsets: the
    compact pool sets inside it and the set of its first h members, h
    the horizon.  The singular part at b is the least level completing
    the value over the regular part on the subsets of b, from
    order.least_completion: on the pool subsets of b and on b & free.
    The pool alone does not do: for {7: 2}, tail 0 and mass 1 on the
    3-chain, every infinite pool subset of ~{0} contains 7, so the pool
    completes at 0, but ~{0, 7} needs the mass 1.
    """
    lat, value, pool = td.lattice, td.value, td.pool
    h = horizon(td)
    compact = [k for k in pool if _covered_by_first_singletons(k, h)]

    def regular(b):
        return join_all(lat, map(value, (
            *(k for k in compact if k.issubset(b)),
            FinCofinSet.of_points(b.members(limit=h)))))

    regulars = tuple(map(regular, pool))
    pairs = tuple(zip(pool, map(value, pool), regulars))

    def singular(b):
        part = b.intersection(td.free)
        return least_completion(lat, [
            *((v, r) for a, v, r in pairs if a.issubset(b)),
            (value(part), regular(part))])

    return regulars, tuple(map(singular, pool))


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


def _least_completion_literal(m, reg):
    """The least level at each Borel set completing the outer value
    over a regular part reg on every subset, from
    order.least_completion, as a measure: the oracle of
    FiniteBackend.singular_part, for any reg.  The (outer, regular)
    pair of each Borel set is read once, and the pairs of the subsets
    of each set are listed once for all its levels."""
    lat = m.lattice
    borel = m.sets()
    pairs = {a: (m.outer_value(a), reg.value(a)) for a in borel}
    table = {b: least_completion(lat, {pairs[a] for a in borel
                                       if not a & ~b})
             for b in borel}
    return MaxitiveMeasure.from_table(m.space, lat, table)


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
