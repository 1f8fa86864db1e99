"""Verification harness: the structural claims behind the library,
checked on exhaustively enumerated instances.

Each registered case pairs one claim about orders, spaces, measures, or
decompositions with the instance families it quantifies over.  The
flags and the two parts of a decomposition come from the measure's
backend, which states them by theorem (the flags from one or two bits
of the measure), with literal witnesses checking the bits and the tail
parts; the definitions themselves are the test oracles in oracles.py.
Cases never assume one another's conclusions.  An implication whose
hypothesis is false on every instance contributes to the vacuity count
rather than silently passing, and conclusions that a backend forces
structurally are annotated on the case so a reader can tell a vacuous
pass from a real one.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .countable import TailDensity
from .decomposition import (decompose, minimality_brute_force,
                            precondition_failure)
from .errors import BudgetError, InputError, MaxitiveError
from .measure import ClassificationRecord, MaxitiveMeasure
from .order import (EXT_REALS, Ext, FinitePoset, RationalFilter, bits,
                    check_domain, enumerate_lattices, enumerate_posets,
                    join_all, join_continuity, separating_map,
                    separating_map_preserves)
from .topology import (TOPOLOGY_ENUM_LIMIT, analysis, enumerate_t0_spaces,
                       enumerate_topologies, hofmann_mislove_check,
                       stable_seed, t0_reflection)


class Bounds(namedtuple(
        "Bounds", "max_points max_lattice countable_chain seed density_samples",
        defaults=(3, 3, 4, 0, 64))):
    """Enumeration bounds for a verification run."""

    __slots__ = ()

    def validate(self):
        if not 0 <= self.max_points <= TOPOLOGY_ENUM_LIMIT:
            raise BudgetError(f"spaces are enumerated for at most "
                              f"{TOPOLOGY_ENUM_LIMIT} points")
        if not 1 <= self.max_lattice <= 4:
            raise BudgetError("lattices are enumerated for sizes 1 to 4")
        if not 1 <= self.countable_chain <= 4:
            raise BudgetError("tail grids use chains of size 1 to 4")
        return self


# instance pools


def finite_measure_pool(max_points, max_lattice, seed, density_samples):
    """Every measure on every labeled space up to the bounds: all chain
    valued atom assignments when the space has at most three atoms,
    a seeded deterministic sample beyond that."""
    out = []
    chains = [FinitePoset.chain(k) for k in range(1, max_lattice + 1)]
    for n in range(max_points + 1):
        for space in enumerate_topologies(n):
            k_atoms = len(analysis(space).atoms)
            for k, chain in enumerate(chains, start=1):
                if k_atoms <= 3:
                    assigns = itertools.product(range(k), repeat=k_atoms)
                else:
                    rng = random.Random(
                        stable_seed("densities", repr(space), k, seed))
                    assigns = sorted({
                        tuple(rng.randrange(k) for _ in range(k_atoms))
                        for _ in range(density_samples)})
                for assign in assigns:
                    out.append(MaxitiveMeasure(space, chain,
                                               atom_values=assign))
    return tuple(out)


def tail_measure_pool(countable_chain):
    """The full tail grid: exceptional points 0 and 1, all values in
    every chain up to the bound."""
    out, tails = [], {}
    for k in range(1, countable_chain + 1):
        chain = FinitePoset.chain(k)
        for v0, v1, tail, mass in itertools.product(range(k), repeat=4):
            # equal densities share one object, and so one pool table
            td = TailDensity(chain, {0: v0, 1: v1}, tail, mass)
            out.append(MaxitiveMeasure.from_tail(tails.setdefault(td, td)))
    return tuple(out)


@lru_cache(maxsize=None)
def measure_instances(bounds):
    """The pool of measures the measure cases run over, finite first,
    built once per bounds."""
    return (finite_measure_pool(bounds.max_points, bounds.max_lattice,
                                bounds.seed, bounds.density_samples)
            + tail_measure_pool(bounds.countable_chain))


def _domain_gate(lattice):
    rep = check_domain(lattice)
    return rep.continuous and rep.filtered_complete


def _decomposition_gate(lattice):
    return precondition_failure(lattice) is None


# case checks over measure instances
#
# Each returns (nonvacuous, failures): nonvacuous is False when every
# implication the case checks had a false hypothesis on this instance.


def _implications(*claims):
    """(nonvacuous, failures) of (premise, conclusion, failure) claims:
    vacuous when no premise holds."""
    return (any(premise for premise, _, _ in claims),
            [failure for premise, conclusion, failure in claims
             if premise and not conclusion])


def _case_e_nuplus(m):
    r, lat, outer = m.classify(), m.lattice, m.outer_regularization()
    outer_rec = outer.classify()
    fails = []
    if not outer_rec.outer:
        fails.append("the outer regularization must be outer-continuous")
    if r.sigma_maxitive and not outer_rec.sigma_maxitive:
        fails.append("outer regularization must stay sigma-maxitive")
    for b in m.sets():
        if not lat.le(m.value(b), outer.value(b)):
            fails.append(f"outer regularization dips below the measure at {b!r}")
            break
    fails.extend(m.backend.nuplus_failures(m))
    if r.inner and not outer_rec.inner:
        fails.append("outer regularization of an inner-continuous measure "
                     "must be inner-continuous")
    if not m.upper_density().usc:
        fails.append("the upper density must be upper semicontinuous")
    # a compact saturated family is a compact family, and on a T1 space
    # every set is saturated
    if r.k_smooth and not r.q_smooth:
        fails.append("smoothness on compact families must imply it on "
                     "compact saturated families")
    if r.k_smooth != r.q_smooth and m.space.predicates.t1:
        fails.append("on a T1 space, smoothness on compact and on compact "
                     "saturated families must agree")
    return True, fails


def _case_locconv(m):
    r = m.classify()
    return _implications(
        (r.inner, r.weak_inner, "inner-continuity must imply the weak form"),
        (r.outer, r.weak_outer, "outer-continuity must imply the weak form"),
        (r.inner, r.saturated, "inner-continuity must imply saturation"),
        (r.weak_outer, r.saturated,
         "weak outer-continuity must imply saturation"))


def _case_wic(m):
    matches = m.classify().weak_inner == m.backend.opens_distribute(m)
    return _implications((True, matches, "weak inner-continuity must match "
                          "distribution over unions of opens"))


def _case_reg0(m):
    r, lat = m.classify(), m.lattice
    fails = []
    atoms = m.point_classes()
    for k in m.compact_sets():
        inside = [a for a in atoms if m.is_subset(a, k)]
        if m.outer_value(k) != join_all(
                lat, (m.outer_value(a) for a in inside)):
            fails.append(f"outer value of {k!r} must join over its classes")
            break
    # the second route to weak_outer, which a finite record states from
    # its saturation bit
    atom_form = all(m.value(a) == m.outer_value(a) for a in atoms)
    if r.weak_outer != atom_form:
        fails.append("weak outer-continuity must match the pointwise form")
    return True, fails


def _case_loccomp(m):
    r = m.classify()
    both = r.weak_outer and r.weak_inner
    return _implications(
        (both, r.regular,
         "weak outer- and inner-continuity must give regularity"),
        (both, r.completely_maxitive,
         "weak outer- and inner-continuity must give complete maxitivity"))


def _case_sc(m):
    r, p = m.classify(), m.space.predicates
    return _implications((
        p.second_countable and r.weak_outer and r.sigma_maxitive, r.regular,
        "weak outer-continuity with sigma-maxitivity must give "
        "regularity on a second-countable space"))


def _case_k(m):
    r, p = m.classify(), m.space.predicates
    return _implications(
        (p.quasisober and r.weak_outer, r.q_smooth and r.saturated,
         "weak outer-continuity must give smoothness on compact "
         "saturated sets plus saturation"),
        (p.locally_compact and p.quasisober and r.q_smooth and r.saturated,
         r.weak_outer, "smoothness with saturation must give weak "
         "outer-continuity on a locally compact space"))


def _case_f(m):
    r, p = m.classify(), m.space.predicates
    converse_space = (p.locally_compact and p.quasisober) or p.completely_metrizable
    smooth = r.q_smooth and r.f_smooth and r.saturated
    return _implications(
        (p.quasisober and r.tight and r.weak_outer, smooth,
         "tight weakly outer-continuous measures must be smooth on "
         "compacts and closed sets and saturated"),
        (converse_space and smooth, r.tight and r.weak_outer,
         "smoothness on compacts and closed sets with saturation must "
         "give tightness and weak outer-continuity here"))


def _case_trpolish(m):
    r, p = m.classify(), m.space.predicates
    return _implications((
        p.polish and r.f_smooth and r.sigma_maxitive, r.tight and r.regular,
        "smoothness on closed sets with sigma-maxitivity must give "
        "tight regularity on a Polish space"))


def _case_sigcomp(m):
    r, p = m.classify(), m.space.predicates
    return _implications((
        p.sigma_compact and p.metrizable
        and r.k_smooth and r.sigma_maxitive, r.regular,
        "smoothness on compact sets with sigma-maxitivity must give "
        "regularity on a sigma-compact metrizable space"))


def _case_tensioneq(m):
    r, d = m.classify(), m.upper_density()
    return _implications(
        (r.tight and r.outer, d.upper_compact,
         "tight outer-continuous measures must have an upper compact "
         "density"),
        (r.weak_inner and d.upper_compact, r.tight,
         "weak inner-continuity with an upper compact density must give "
         "tightness"))


def _treg_items(r):
    return {
        1: r.regular,
        2: r.usc_density_exists,
        3: r.outer and r.completely_maxitive,
        4: r.weak_outer and r.weak_inner,
        5: r.weak_outer and r.sigma_maxitive,
        6: r.weak_outer,
        7: r.q_smooth and r.saturated,
        8: r.q_smooth and r.weak_inner and r.saturated,
        9: r.q_smooth and r.sigma_maxitive and r.saturated,
    }


def _case_treg(m):
    r, p = m.classify(), m.space.predicates
    if not p.quasisober:
        return False, []
    it = _treg_items(r)
    fails = []
    if m.backend.cardinal_density_exists(m) != r.completely_maxitive:
        fails.append("a density must exist exactly for completely maxitive "
                     "measures")
    for a, b in ((4, 5), (5, 6), (6, 7), (8, 7)):
        if it[a] and not it[b]:
            fails.append(f"characterization ({a}) must imply ({b})")
    if p.second_countable:
        for i in (2, 3, 4, 5):
            if it[1] != it[i]:
                fails.append(f"characterizations (1) and ({i}) must agree "
                             f"on a second-countable space")
    if p.locally_compact:
        if it[8] != it[1]:
            fails.append("characterizations (8) and (1) must agree on a "
                         "locally compact space")
        if it[6] != it[7]:
            fails.append("characterizations (6) and (7) must agree on a "
                         "locally compact space")
    if p.sigma_compact and p.metrizable and it[9] != it[1]:
        fails.append("characterizations (9) and (1) must agree on a "
                     "sigma-compact metrizable space")
    if p.polish and p.locally_compact and it[8] != it[9]:
        fails.append("characterizations (8) and (9) must agree on a "
                     "locally compact Polish space")
    return True, fails


def _case_maxdens(m):
    if not m.classify().regular:
        return False, []
    fails = []
    classes = m.point_classes()
    cvals = [m.outer_value(a) for a in classes]
    for a, c in zip(classes, cvals):
        if m.value(a) != c:
            fails.append(f"the upper density must equal the measure on {a!r}")
            break
    if not m.upper_density().usc:
        fails.append("the upper density of a regular measure must be usc")
    fails.extend(m.backend.maxdens_failures(m, cvals))
    return True, fails


def _case_regtight(m):
    r, d, p = m.classify(), m.upper_density(), m.space.predicates
    if not p.quasisober:
        return False, []
    t = {
        1: r.tight and r.regular,
        2: r.usc_density_exists and d.upper_compact,
        3: r.tight and r.weak_outer,
        4: r.q_smooth and r.f_smooth and r.saturated,
        5: r.q_smooth and r.f_smooth and r.weak_inner and r.saturated,
        6: r.q_smooth and r.f_smooth and r.sigma_maxitive and r.saturated,
    }
    fails = []
    if t[1] != t[2]:
        fails.append("tight regularity must match having an upper compact "
                     "usc density")
    for a, b in ((2, 3), (3, 4), (5, 4)):
        if t[a] and not t[b]:
            fails.append(f"tight characterization ({a}) must imply ({b})")
    if p.locally_compact:
        if t[5] != t[1]:
            fails.append("tight characterizations (5) and (1) must agree "
                         "on a locally compact space")
        if t[3] != t[4]:
            fails.append("tight characterizations (3) and (4) must agree "
                         "on a locally compact space")
    if p.completely_metrizable and t[3] != t[4]:
        fails.append("tight characterizations (3) and (4) must agree on a "
                     "completely metrizable space")
    if p.polish and t[6] != t[1]:
        fails.append("tight characterizations (6) and (1) must agree on a "
                     "Polish space")
    if p.polish and p.locally_compact and t[5] != t[6]:
        fails.append("tight characterizations (5) and (6) must agree on a "
                     "locally compact Polish space")
    return True, fails


def _case_opt(m):
    r = m.classify()
    return _implications((True, r.continuous_from_above == r.optimal,
                          "continuity from above alone must characterize "
                          "optimality"))


def _case_metric(m):
    r, p = m.classify(), m.space.predicates
    if not (p.metrizable and r.optimal):
        return False, []
    lat = m.lattice
    fails = []
    if not r.outer:
        fails.append("optimal measures on metrizable spaces must be "
                     "outer-continuous")
    for b in m.sets():
        approx = join_all(lat, (m.value(f) for f in m.closed_sets()
                                if m.is_subset(f, b)))
        if m.value(b) != approx:
            fails.append(f"closed approximation from inside fails at {b!r}")
            break
    return True, fails


def _case_sclc(m):
    r, p = m.classify(), m.space.predicates
    return _implications((
        p.separable and p.metrizable and r.optimal, r.regular,
        "optimal measures on separable metrizable spaces must be regular"))


def _case_polish(m):
    r, p = m.classify(), m.space.predicates
    return _implications((
        (p.polish or (p.sigma_compact and p.metrizable)) and r.optimal,
        r.tight and r.regular, "optimal measures must be tight regular here"))


def _case_regpart(m):
    dec = decompose(m)
    reg = dec.regular
    return _implications(
        (True, reg.classify().regular, "the regular part must be regular"),
        (True, dec.regular_part_idempotent,
         "taking the regular part must be idempotent"),
        (True, reg.backend.density(reg) == m.upper_density().values,
         "the regular part must have the upper density as its density"))


def _case_sing(m):
    dec = decompose(m)
    fails = []
    if not dec.identity_holds:
        fails.append("outer regularization must split as regular join "
                     "singular")
    if not dec.singular_vanishes_on_compacts:
        fails.append("the singular part must vanish on compact sets")
    if not dec.singular_of_regular_vanishes:
        fails.append("the singular part of a regular part must vanish")
    lat = m.lattice
    if lat.is_finite and len(m.point_classes()) <= 3 and lat.n <= 4:
        rep = minimality_brute_force(m, dec)
        if rep.checked and not rep.least:
            fails.append("a smaller completion than the singular part exists")
    return True, fails


def _case_regchar(m):
    if not m.classify().outer:
        return False, []
    dec = decompose(m)
    a, b = dec.regular == m, dec.is_regular_measure()
    return _implications((True, a == b == m.classify().regular,
                          "being a regular part, having no singular part, "
                          "and regularity must coincide for "
                          "outer-continuous measures"))


def _case_singchar(m):
    if not m.classify().outer:
        return False, []
    lat, dec = m.lattice, decompose(m)
    a, b = dec.singular == m, dec.is_purely_singular()
    c = all(m.value(k) == lat.bottom for k in m.compact_sets())
    return _implications((True, a == b == c,
                          "being a singular part, having no regular part, "
                          "and vanishing on compacts must coincide for "
                          "outer-continuous measures"))


def _case_optdec(m):
    if not (m.space.predicates.metrizable and m.classify().optimal):
        return False, []
    lat, dec = m.lattice, decompose(m)
    fails = []
    for b in m.sets():
        if m.value(b) != lat.join(dec.regular.value(b), dec.singular.value(b)):
            fails.append("an optimal measure must split exactly")
            break
    reg_rec = dec.regular.classify()
    if not (reg_rec.regular and reg_rec.optimal):
        fails.append("the regular part of an optimal measure must be a "
                     "regular optimal measure")
    sing_rec = dec.singular.classify()
    if not sing_rec.optimal:
        fails.append("the singular part of an optimal measure must be "
                     "optimal")
    if not dec.singular_vanishes_on_compacts:
        fails.append("the singular part of an optimal measure must vanish "
                     "on compact sets")
    return True, fails


# the runner, and cases over spaces and orders
#
# An order check returns (count, problems, vacuous) for one poset: the
# instances it checked there, the claims that failed, and the instances
# that held only vacuously.  A space check returns the problems of one
# space, which counts as one instance, and _measure_case below puts a
# measure check in the same form; _checked runs every kind.


def _checked(check, instances, numbered=False):
    """(count, violations, vacuous) of check summed over the instances;
    a MaxitiveError raised while checking one is a violation of it.  A
    violation names its instance by repr, after "#i " for the i-th of a
    numbered pool."""
    count = vacuous = 0
    violations = []
    for i, inst in enumerate(instances):
        try:
            c, problems, v = check(inst)
        except MaxitiveError as e:
            c, problems, v = 1, [str(e)], 0
        count += c
        vacuous += v
        if problems:
            name = f"#{i} {inst!r}" if numbered else repr(inst)
            violations.extend({"instance": name, "problem": p}
                              for p in problems)
    return count, violations, vacuous


def _run_space_case(check, bounds):
    spaces = (space for n in range(bounds.max_points + 1)
              for space in enumerate_topologies(n))
    return _checked(lambda space: (1, check(space), 0), spaces)


def _check_hm(space):
    rep = hofmann_mislove_check(space)
    out = []
    if not rep.binary_unions:
        out.append("compact saturated sets not closed under binary unions")
    if not rep.filtered_intersections:
        out.append("a filtered intersection of compact saturated sets "
                   "escapes the family")
    if not rep.open_escape:
        out.append("a filtered family refuses to enter an open around its "
                   "intersection")
    return out


def _run_t0(bounds):
    """T-T0 over every space, each checked against the factor targets,
    the T0 spaces up to the bound, enumerated once per run."""
    targets = tuple(target for n in range(bounds.max_points + 1)
                    for target in enumerate_t0_spaces(n))

    def check(space):
        t0_reflection(space, factor_targets=targets)
        return []
    return _run_space_case(check, bounds)


def _check_tilde(space):
    # the class of a point by definition: the points with its closure
    classes = [sum(1 << y for y in range(space.n)
                   if space.down[y] == space.down[x])
               for x in range(space.n)]
    return [f"Borel set {b:b} cuts the class of point {space.names[x]}"
            for b in analysis(space).borel.sets for x in bits(b)
            if classes[x] & ~b]


def _run_interp(bounds):
    return _checked(_check_interp,
                    (p for n in range(5) for p in enumerate_posets(n)))


def _check_interp(poset):
    rep = check_domain(poset)
    if not (rep.continuous and rep.filtered_complete):
        return 1, [], 1
    if not rep.interpolation:
        return 1, ["a continuous filtered-complete poset must interpolate "
                   "the way-above relation"], 0
    return 1, [], 0


def _run_jcont(bounds):
    count, violations, vacuous = _checked(
        _check_jcont, (p for n in range(1, 5) for p in enumerate_posets(n)))
    filters = [RationalFilter(lower, closed)
               for lower in map(Ext.of, (0, "1/2", 2, "7/3", "inf"))
               for closed in (True, False)
               if closed or not lower.is_infinite]
    c, v, _ = _checked(_check_rational_jcont, filters)
    return count + c, violations + v, vacuous


def _check_jcont(poset):
    rep = check_domain(poset)
    if not (rep.continuous and rep.filtered_complete and poset.has_bottom):
        return 0, [], 0
    count = vacuous = 0
    problems = []
    for fmask in poset.filter_masks():
        base = poset.inf_of_mask(fmask)
        if base is None:
            continue
        members = list(bits(fmask))
        for t in poset.values():
            count += 1
            joins = [poset.sup_of_mask(1 << t | 1 << f) for f in members]
            if any(j is None for j in joins):
                vacuous += 1
                continue
            total = poset.sup_of_mask(1 << t | 1 << base)
            if total is None:
                problems.append(f"join of {poset.name(t)} with the filter "
                                f"infimum must exist")
                continue
            if poset.inf_of_mask(poset.mask_of(joins)) != total:
                problems.append("joining must commute with the filtered "
                                "infimum")
                continue
            # exercise the library routine, which re-asserts this
            try:
                join_continuity(poset, t, members)
            except MaxitiveError as e:
                problems.append(f"library join-continuity check "
                                f"disagrees: {e}")
    return count, problems, vacuous


def _check_rational_jcont(filt):
    # join_continuity raises when the join fails to distribute
    ts = (Ext.of(0), Ext.of("1/2"), Ext.of(3), Ext.of("inf"))
    for t in ts:
        join_continuity(EXT_REALS, t, filt)
    return len(ts), [], 0


def _run_sep(bounds):
    return _checked(_check_sep,
                    (p for n in range(1, 6) for p in enumerate_lattices(n)))


def _check_sep(lattice):
    pairs = [(s, t) for s in lattice.values() for t in lattice.values()
             if not lattice.le(s, t)]
    if not pairs:
        return 1, [], 1
    problems = []
    for s, t in pairs:
        phi = separating_map(lattice, s, t)
        if phi[s] != Fraction(1) or phi[t] != Fraction(0):
            problems.append(f"map must send {lattice.name(s)} to 1 and "
                            f"{lattice.name(t)} to 0")
        if not separating_map_preserves(lattice, phi):
            problems.append("separating map must preserve existing suprema "
                            "and filtered infima")
    return len(pairs), problems, 0


# registry


class TheoremCase(namedtuple("TheoremCase",
                             "id description backends runner notes",
                             defaults=((),))):
    __slots__ = ()


def _measure_case(case_id, description, check, gate=None, notes=(),
                  backends=("finite", "countable")):
    """A case whose check runs on every measure of the pool, one
    instance each, numbered in violations; a measure whose lattice
    fails the gate is vacuous and is not checked."""
    def check_one(m):
        if gate is not None and not gate(m.lattice):
            return 1, [], 1
        nonvacuous, fails = check(m)
        return 1, fails, int(not nonvacuous)

    def runner(bounds):
        return _checked(check_one, measure_instances(bounds), numbered=True)
    return TheoremCase(case_id, description, backends, runner, notes)


CASES = (
    TheoremCase(
        "L-INTERP",
        "Continuous filtered-complete posets interpolate the way-above "
        "relation.",
        ("order",), _run_interp),
    TheoremCase(
        "L-JCONT",
        "In a continuous filtered-complete poset, joining with a fixed "
        "element commutes with infima of filters, whenever the pairwise "
        "joins exist.",
        ("order",), _run_jcont),
    TheoremCase(
        "L-SEP",
        "For s not below t there is a map to the unit interval preserving "
        "existing suprema and filtered infima that sends s to 1 and t to 0.",
        ("order",), _run_sep),
    TheoremCase(
        "T-HM",
        "Compact saturated sets are closed under binary unions and "
        "filtered intersections, and a filtered family whose intersection "
        "lies in an open has a member inside it.",
        ("finite",),
        lambda bounds: _run_space_case(_check_hm, bounds)),
    TheoremCase(
        "T-T0",
        "Identifying points with equal closures yields a T0 quotient; the "
        "projection preserves opens and compact saturated sets both ways, "
        "induces a Borel algebra isomorphism, and every continuous map "
        "into a T0 space factors uniquely through it.",
        ("finite",), _run_t0),
    TheoremCase(
        "C-TILDE",
        "A Borel set containing a point contains its whole class.",
        ("finite",),
        lambda bounds: _run_space_case(_check_tilde, bounds)),
    _measure_case(
        "E-NUPLUS",
        "The outer regularization is an outer-continuous maxitive measure "
        "dominating the original, built from filtered value sets, "
        "inner-continuous when the original is, and its pointwise density "
        "is always upper semicontinuous.",
        _case_e_nuplus),
    _measure_case(
        "L-LOCCONV",
        "Inner- and outer-continuity imply their weak forms, and inner- "
        "or weakly outer-continuous measures are saturated.",
        _case_locconv),
    _measure_case(
        "L-WIC",
        "Weak inner-continuity is exactly distribution over arbitrary "
        "unions of open sets.",
        _case_wic, gate=_domain_gate),
    _measure_case(
        "L-REG0",
        "The outer value of a compact Borel set is the join of the outer "
        "values of the point classes inside it, so weak outer-continuity "
        "reduces to the classes.",
        _case_reg0, gate=_domain_gate),
    _measure_case(
        "P-LOCCOMP",
        "Weak outer- plus weak inner-continuity give regularity and "
        "complete maxitivity.",
        _case_loccomp, gate=_domain_gate),
    _measure_case(
        "C-SC",
        "On second-countable spaces, weakly outer-continuous "
        "sigma-maxitive measures are regular.",
        _case_sc, gate=_domain_gate),
    _measure_case(
        "P-K",
        "On quasisober spaces weak outer-continuity gives smoothness on "
        "compact saturated sets plus saturation; locally compact "
        "quasisober spaces give the converse.",
        _case_k),
    _measure_case(
        "P-F",
        "Tight weakly outer-continuous measures are smooth on compact "
        "saturated and closed sets and saturated; the converse holds on "
        "locally compact quasisober and on completely metrizable spaces.",
        _case_f),
    _measure_case(
        "P-TRPOLISH",
        "On Polish spaces, smoothness on closed sets with sigma-maxitivity "
        "gives tight regularity.",
        _case_trpolish, gate=_domain_gate),
    _measure_case(
        "C-SIGCOMP",
        "On sigma-compact metrizable spaces, smoothness on compact sets "
        "with sigma-maxitivity gives regularity.",
        _case_sigcomp, gate=_domain_gate,
        notes=("finite backend: metrizable forces a discrete space, where "
               "regularity is automatic",)),
    _measure_case(
        "P-TENSIONEQ",
        "Tight outer-continuous measures have upper compact densities; "
        "weak inner-continuity with an upper compact density gives "
        "tightness back.",
        _case_tensioneq,
        notes=("finite backend: every subset is compact, so the first "
               "conclusion is automatic",)),
    _measure_case(
        "T-REG",
        "The regularity block: a density exists exactly for completely "
        "maxitive measures, and regularity, usc densities, outer "
        "continuity with complete maxitivity, and the weak continuity "
        "pairs all coincide on second-countable spaces, with the "
        "smoothness forms joining in under local compactness and the "
        "countability forms under sigma-compact metrizability.",
        _case_treg, gate=_domain_gate),
    _measure_case(
        "C-MAXDENS",
        "For regular measures the upper density equals the measure on "
        "point classes, is an usc density, and dominates every density.",
        _case_maxdens, gate=_domain_gate),
    _measure_case(
        "T-REGTIGHT",
        "The tight regularity block: tight regularity is having an upper "
        "compact usc density, it implies tight weak outer-continuity, "
        "then smoothness with saturation, and the chain closes under "
        "local compactness, complete metrizability, or Polishness.",
        _case_regtight, gate=_domain_gate),
    _measure_case(
        "P-OPT",
        "Continuity from above alone already characterizes optimality.",
        _case_opt),
    _measure_case(
        "P-METRIC",
        "On metrizable spaces optimal measures are outer-continuous and "
        "approximated from inside by closed sets.",
        _case_metric,
        notes=("finite backend: metrizable forces a discrete space, where "
               "both conclusions are automatic",
               "countable backend: every set is closed, so closed "
               "approximation is the identity")),
    _measure_case(
        "C-SCLC",
        "On separable metrizable spaces optimal measures are regular.",
        _case_sclc,
        notes=("finite backend: metrizable forces a discrete space, where "
               "regularity is automatic",)),
    _measure_case(
        "P-POLISH",
        "On Polish or sigma-compact metrizable spaces optimal measures "
        "are tight regular.",
        _case_polish,
        notes=("finite backend: metrizable forces a discrete space, where "
               "the conclusion is automatic",)),
    _measure_case(
        "D-REGPART",
        "The regular part is a regular measure whose density is the upper "
        "density, and taking regular parts is idempotent.",
        _case_regpart, gate=_decomposition_gate),
    _measure_case(
        "T-SING",
        "The outer regularization splits as the join of the regular part "
        "with a least singular complement that vanishes on point classes, "
        "and the singular part of a regular part vanishes.",
        _case_sing, gate=_decomposition_gate),
    _measure_case(
        "C-REGCHAR",
        "For outer-continuous measures: being a regular part, having no "
        "singular part, and being regular coincide.",
        _case_regchar, gate=_decomposition_gate),
    _measure_case(
        "C-SINGCHAR",
        "For outer-continuous measures: being a singular part, having no "
        "regular part, and vanishing on compact sets coincide.",
        _case_singchar, gate=_decomposition_gate),
    _measure_case(
        "C-OPTDEC",
        "On metrizable spaces an optimal measure itself splits into a "
        "regular optimal part and an optimal singular part vanishing on "
        "compact sets.",
        _case_optdec, gate=_decomposition_gate),
)

CASE_INDEX = {case.id: case for case in CASES}


# running and reporting


class CaseResult(namedtuple("CaseResult",
                            "case_id instances violations vacuous notes")):
    __slots__ = ()

    @property
    def degenerate_fraction(self):
        if self.instances == 0:
            return Fraction(0)
        return Fraction(self.vacuous, self.instances)

    def as_dict(self):
        return {
            "case": self.case_id,
            "description": CASE_INDEX[self.case_id].description,
            "backends": list(CASE_INDEX[self.case_id].backends),
            "instances": self.instances,
            "violations": [dict(v) for v in self.violations],
            "vacuous": self.vacuous,
            "degenerate_fraction": str(self.degenerate_fraction),
            "notes": list(self.notes),
        }


class VerificationReport(namedtuple("VerificationReport", "bounds results")):
    __slots__ = ()

    @property
    def total_violations(self):
        return sum(len(r.violations) for r in self.results)

    @property
    def total_instances(self):
        return sum(r.instances for r in self.results)

    def as_dict(self):
        return {
            "schema": "maxitive-verification/1",
            "bounds": self.bounds._asdict(),
            "cases": [r.as_dict() for r in self.results],
            "total_instances": self.total_instances,
            "total_violations": self.total_violations,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def run_case(case, bounds):
    bounds.validate()
    count, violations, vacuous = case.runner(bounds)
    return CaseResult(case.id, count, tuple(
        tuple(sorted(v.items())) for v in violations), vacuous, case.notes)


def run_theorem(case_id, bounds=Bounds()):
    if case_id not in CASE_INDEX:
        raise InputError(f"unknown theorem case {case_id!r}")
    return run_case(CASE_INDEX[case_id], bounds)


def run_all(bounds=Bounds()):
    return VerificationReport(bounds,
                              tuple(run_case(c, bounds) for c in CASES))


# counterexample search

def search_counterexample(required, forbidden, bounds=Bounds()):
    """Search for a measure whose record matches every `required` flag
    and also matches every `forbidden` flag (the caller passes the
    negation of the conclusion there).  Every key must name a field of
    ClassificationRecord; any other raises InputError.

    A witness is returned whenever one exists within the bounds, even
    if the backend structure says it should not.  With no witness, the
    constraints are tested against the records each backend of the
    pool states it can reach (its records()): a backend rules the
    combination out when none of them matches.  If every backend rules
    it out the verdict is "unattainable", and otherwise the search was
    merely exhausted.  The reason names each backend that rules it out,
    with the constraints that none of its records meets, or the whole
    combination when each constraint alone is met by some record.
    """
    bounds.validate()
    constraints = dict(required)
    constraints.update(forbidden)
    unknown = sorted(set(constraints) - set(ClassificationRecord._fields))
    if unknown:
        raise InputError(f"unknown flags {unknown}")
    pool = measure_instances(bounds)
    for i, m in enumerate(pool):
        rec = m.classify().as_dict()
        if all(rec.get(k) == v for k, v in constraints.items()):
            return {"verdict": "witness", "witness": f"#{i} {m!r}",
                    "instances_searched": i + 1, "reason": ""}

    reasons = []
    backends = dict.fromkeys(m.backend for m in pool)
    for backend in backends:
        records = backend.records()
        if any(all(rec[k] == v for k, v in constraints.items())
               for rec in records):
            continue
        # the constraints no record meets, or else the combination
        missed = sorted(k for k, v in constraints.items()
                        if all(rec[k] != v for rec in records)) \
            or sorted(constraints)
        name = type(backend).__name__.removesuffix("Backend").lower()
        reasons.append(f"{name} backend states no record with "
                       + ", ".join(f"{k}={constraints[k]}" for k in missed))
    verdict = "unattainable" if len(reasons) == len(backends) \
        else "exhausted"
    return {"verdict": verdict, "witness": None,
            "instances_searched": len(pool),
            "reason": "; ".join(reasons)}
