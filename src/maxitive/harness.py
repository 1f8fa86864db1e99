"""Verification harness: the structural claims behind the library,
checked on exhaustively enumerated instances.

Each registered case pairs one claim about orders, spaces, measures, or
decompositions with the instance families it quantifies over.  Flags
always come from the literal classification routines and searches;
cases never assume one another's conclusions.  An implication whose
hypothesis is false on every instance contributes to the vacuity count
rather than silently passing, and conclusions that a backend forces
structurally are annotated on the case so a reader can tell a vacuous
pass from a real one.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .countable import FinCofinSet, TailDensity, cached_tail_flags, horizon
from .decomposition import (decompose, minimality_brute_force,
                            precondition_failure)
from .errors import BudgetError, InputError, MaxitiveError
from .measure import (ClassificationRecord, MaxitiveMeasure,
                      open_cover_families, unions_are_joins)
from .order import (EXT_REALS, Ext, FinitePoset, RationalFilter, bits,
                    check_domain, enumerate_lattices, enumerate_posets,
                    join_all, join_continuity, separating_map,
                    separating_map_preserves)
from .topology import (analysis, enumerate_t0_spaces, enumerate_topologies,
                       hofmann_mislove_check, stable_seed, t0_reflection)


@dataclass(frozen=True)
class Bounds:
    """Enumeration bounds for a verification run."""

    max_points: int = 3
    max_lattice: int = 3
    countable_chain: int = 4
    seed: int = 0
    density_samples: int = 64

    def validate(self):
        if not 0 <= self.max_points <= 4:
            raise BudgetError("spaces are enumerated for at most 4 points")
        if not 1 <= self.max_lattice <= 4:
            raise BudgetError("lattices are enumerated for sizes 1 to 4")
        if not 1 <= self.countable_chain <= 4:
            raise BudgetError("tail grids use chains of size 1 to 4")
        return self

    def as_dict(self):
        return {
            "max_points": self.max_points,
            "max_lattice": self.max_lattice,
            "countable_chain": self.countable_chain,
            "seed": self.seed,
            "density_samples": self.density_samples,
        }


# instance pools


@lru_cache(maxsize=None)
def finite_measure_pool(max_points, max_lattice, seed, density_samples):
    """Every measure on every labeled space up to the bounds: all chain
    valued atom assignments when the space has at most three atoms,
    a seeded deterministic sample beyond that."""
    out = []
    for n in range(max_points + 1):
        for space in enumerate_topologies(n):
            an = analysis(space)
            k_atoms = len(an.atoms)
            for k in range(1, max_lattice + 1):
                chain = FinitePoset.chain(k)
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


@lru_cache(maxsize=None)
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


class Inst:
    """One measure instance with its derived data, lazily computed and
    shared across cases through the caches of the measure and the
    module level caches of classify and decompose."""

    __slots__ = ("measure", "index")

    def __init__(self, measure, index):
        self.measure = measure
        self.index = index

    @property
    def record(self):
        return self.measure.classify()

    @property
    def density(self):
        return self.measure.upper_density()

    @property
    def outer(self):
        return self.measure.outer_regularization()

    @property
    def predicates(self):
        return self.measure.space.predicates

    @property
    def dec(self):
        return decompose(self.measure)

    @property
    def label(self):
        return f"#{self.index} {self.measure!r}"


def measure_instances(bounds):
    pool = (finite_measure_pool(bounds.max_points, bounds.max_lattice,
                                bounds.seed, bounds.density_samples)
            + tail_measure_pool(bounds.countable_chain))
    return tuple(Inst(m, i) for i, m in enumerate(pool))


def _domain_gate(lattice):
    rep = check_domain(lattice)
    return rep.continuous and rep.filtered_complete


def _cardinal_density_exists(measure):
    """Is the measure the pointwise supremum of some density?

    The candidate assigning every point the value of its atom is the
    largest possible density, so existence reduces to whether that
    candidate reproduces the measure; on the countable backend the
    candidate is the pointwise density of the tail representation.
    """
    lat = measure.lattice
    if measure.is_finite_backend:
        an = analysis(measure.space)
        for b in an.borel_masks:
            expected = join_all(
                lat, (measure.atom_values[an.borel.atom_of_point[x]]
                      for x in bits(b)))
            if measure.value(b) != expected:
                return False
        return True
    td = measure.tail
    return all(v == td.sup_density(s)
               for s, v in zip(td.pool, td.pool_values))


def _eqo_literal(measure):
    """Does the measure distribute over arbitrary unions of opens?

    Finite backend: checked over every subfamily of opens.  Countable
    backend: checked on unions from the sample pool and on the binding
    family, the singleton cover of the exception-free cofinite set,
    whose supremum the enumeration horizon computes exactly."""
    lat = measure.lattice
    if measure.is_finite_backend:
        return unions_are_joins(measure,
                                open_cover_families(measure.space, "eqo"))
    td = measure.tail
    free = FinCofinSet.cofinite(x for x, _ in td.exceptions)
    cover_sup = join_all(lat, (td.value(FinCofinSet.of_points((x,)))
                               for x in free.members(limit=horizon(td))))
    if cover_sup != td.value(free):
        return False
    table = tuple(zip(td.pool, td.pool_values))
    for a, va in table:
        for b, vb in table:
            if td.value(a.union(b)) != lat.join(va, vb):
                return False
    return True


def _atom_outer_values(inst):
    """Pointwise values of the upper density, per atom."""
    if inst.measure.is_finite_backend:
        return inst.density.values
    td = inst.density.values
    return tuple(td.value(a) for a in inst.measure.point_classes())


# case runners over measure instances
#
# Each returns (nonvacuous, failures): nonvacuous is False when every
# implication the case checks had a false hypothesis on this instance.


def _case_e_nuplus(inst):
    m, r, lat = inst.measure, inst.record, inst.measure.lattice
    outer_rec = inst.outer.classify()
    fails = []
    if not outer_rec.outer:
        fails.append("the outer regularization must be outer-continuous")
    if r.sigma_maxitive and not outer_rec.sigma_maxitive:
        fails.append("outer regularization must stay sigma-maxitive")
    for b in m.sets():
        if not lat.le(m.value(b), inst.outer.value(b)):
            fails.append(f"outer regularization dips below the measure at {b!r}")
            break
    if m.is_finite_backend:
        # the open-superset value sets must be filtered
        for b in analysis(m.space).borel_masks:
            vals = [m.value(g) for g in m.space.opens_list if not b & ~g]
            if not all(any(lat.le(c, a) and lat.le(c, b2) for c in vals)
                       for a in vals for b2 in vals):
                fails.append(f"open-superset values at {b:b} are not filtered")
                break
    if r.inner and not outer_rec.inner:
        fails.append("outer regularization of an inner-continuous measure "
                     "must be inner-continuous")
    if not inst.density.usc:
        fails.append("the upper density must be upper semicontinuous")
    return True, fails


def _case_locconv(inst):
    r = inst.record
    fails = []
    nonvac = False
    for label, hyp, con in (
            ("inner-continuity must imply the weak form",
             r.inner, r.weak_inner),
            ("outer-continuity must imply the weak form",
             r.outer, r.weak_outer),
            ("inner-continuity must imply saturation",
             r.inner, r.saturated),
            ("weak outer-continuity must imply saturation",
             r.weak_outer, r.saturated)):
        if hyp:
            nonvac = True
            if not con:
                fails.append(label)
    return nonvac, fails


def _case_wic(inst):
    if not _domain_gate(inst.measure.lattice):
        return False, []
    r = inst.record
    fails = []
    if r.weak_inner != _eqo_literal(inst.measure):
        fails.append("weak inner-continuity must match distribution over "
                     "unions of opens")
    return True, fails


def _case_reg0(inst):
    if not _domain_gate(inst.measure.lattice):
        return False, []
    m, r, lat = inst.measure, inst.record, inst.measure.lattice
    fails = []
    atoms = m.point_classes()
    for k in m.compact_sets():
        inside = [a for a in atoms if m.is_subset(a, k)]
        if m.outer_value(k) != join_all(
                lat, (m.outer_value(a) for a in inside)):
            fails.append(f"outer value of {k!r} must join over its classes")
            break
    atom_form = all(m.value(a) == m.outer_value(a) for a in atoms)
    if r.weak_outer != atom_form:
        fails.append("weak outer-continuity must match the pointwise form")
    return True, fails


def _case_loccomp(inst):
    if not _domain_gate(inst.measure.lattice):
        return False, []
    r = inst.record
    if not (r.weak_outer and r.weak_inner):
        return False, []
    fails = []
    if not r.regular:
        fails.append("weak outer- and inner-continuity must give regularity")
    if not r.completely_maxitive:
        fails.append("weak outer- and inner-continuity must give complete "
                     "maxitivity")
    return True, fails


def _case_sc(inst):
    r, p = inst.record, inst.predicates
    if not (p.second_countable and _domain_gate(inst.measure.lattice)):
        return False, []
    if not (r.weak_outer and r.sigma_maxitive):
        return False, []
    return True, ([] if r.regular else
                  ["weak outer-continuity with sigma-maxitivity must give "
                   "regularity on a second-countable space"])


def _case_k(inst):
    r, p = inst.record, inst.predicates
    fails = []
    nonvac = False
    if p.quasisober and r.weak_outer:
        nonvac = True
        if not (r.q_smooth and r.saturated):
            fails.append("weak outer-continuity must give smoothness on "
                         "compact saturated sets plus saturation")
    if p.locally_compact and p.quasisober and r.q_smooth and r.saturated:
        nonvac = True
        if not r.weak_outer:
            fails.append("smoothness with saturation must give weak "
                         "outer-continuity on a locally compact space")
    return nonvac, fails


def _case_f(inst):
    r, p = inst.record, inst.predicates
    fails = []
    nonvac = False
    if p.quasisober and r.tight and r.weak_outer:
        nonvac = True
        if not (r.q_smooth and r.f_smooth and r.saturated):
            fails.append("tight weakly outer-continuous measures must be "
                         "smooth on compacts and closed sets and saturated")
    converse_space = (p.locally_compact and p.quasisober) or p.completely_metrizable
    if converse_space and r.q_smooth and r.f_smooth and r.saturated:
        nonvac = True
        if not (r.tight and r.weak_outer):
            fails.append("smoothness on compacts and closed sets with "
                         "saturation must give tightness and weak "
                         "outer-continuity here")
    return nonvac, fails


def _case_trpolish(inst):
    r, p = inst.record, inst.predicates
    if not (p.polish and _domain_gate(inst.measure.lattice)):
        return False, []
    if not (r.f_smooth and r.sigma_maxitive):
        return False, []
    return True, ([] if r.tight and r.regular else
                  ["smoothness on closed sets with sigma-maxitivity must "
                   "give tight regularity on a Polish space"])


def _case_sigcomp(inst):
    r, p = inst.record, inst.predicates
    if not (p.sigma_compact and p.metrizable
            and _domain_gate(inst.measure.lattice)):
        return False, []
    if not (r.k_smooth and r.sigma_maxitive):
        return False, []
    return True, ([] if r.regular else
                  ["smoothness on compact sets with sigma-maxitivity must "
                   "give regularity on a sigma-compact metrizable space"])


def _case_tensioneq(inst):
    r, d = inst.record, inst.density
    fails = []
    nonvac = False
    if r.tight and r.outer:
        nonvac = True
        if not d.upper_compact:
            fails.append("tight outer-continuous measures must have an "
                         "upper compact density")
    if r.weak_inner and d.upper_compact:
        nonvac = True
        if not r.tight:
            fails.append("weak inner-continuity with an upper compact "
                         "density must give tightness")
    return nonvac, fails


def _treg_items(inst):
    r = inst.record
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


def _case_treg(inst):
    r, p = inst.record, inst.predicates
    if not (p.quasisober and _domain_gate(inst.measure.lattice)):
        return False, []
    it = _treg_items(inst)
    fails = []
    if _cardinal_density_exists(inst.measure) != r.completely_maxitive:
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


def _case_maxdens(inst):
    r = inst.record
    if not (r.regular and _domain_gate(inst.measure.lattice)):
        return False, []
    m, lat = inst.measure, inst.measure.lattice
    fails = []
    atoms = m.point_classes()
    cvals = _atom_outer_values(inst)
    for a, c in zip(atoms, cvals):
        if m.value(a) != c:
            fails.append(f"the upper density must equal the measure on {a!r}")
            break
    if not inst.density.usc:
        fails.append("the upper density of a regular measure must be usc")
    if m.is_finite_backend:
        an = analysis(m.space)
        for b in an.borel_masks:
            expected = join_all(lat, (cvals[an.borel.atom_of_point[x]]
                                      for x in bits(b)))
            if m.value(b) != expected:
                fails.append("the upper density must reproduce the measure")
                break
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
    else:
        td = m.tail
        for a in atoms:
            if not lat.le(td.sup_density(a), td.value(a)):
                fails.append("the pointwise density exceeds the upper density")
                break
    return True, fails


def _case_regtight(inst):
    r, d, p = inst.record, inst.density, inst.predicates
    if not (p.quasisober and _domain_gate(inst.measure.lattice)):
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


def _case_opt(inst):
    r = inst.record
    fails = []
    if r.continuous_from_above != r.optimal:
        fails.append("continuity from above alone must characterize "
                     "optimality")
    return True, fails


def _case_metric(inst):
    r, p = inst.record, inst.predicates
    if not (p.metrizable and r.optimal):
        return False, []
    m, lat = inst.measure, inst.measure.lattice
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


def _case_sclc(inst):
    r, p = inst.record, inst.predicates
    if not (p.separable and p.metrizable and r.optimal):
        return False, []
    return True, ([] if r.regular else
                  ["optimal measures on separable metrizable spaces must "
                   "be regular"])


def _case_polish(inst):
    r, p = inst.record, inst.predicates
    if not ((p.polish or (p.sigma_compact and p.metrizable)) and r.optimal):
        return False, []
    return True, ([] if r.tight and r.regular else
                  ["optimal measures must be tight regular here"])


def _decomposition_gate(inst):
    return precondition_failure(inst.measure.lattice) is None


def _case_regpart(inst):
    if not _decomposition_gate(inst):
        return False, []
    dec = inst.dec
    fails = []
    if not dec.regular.classify().regular:
        fails.append("the regular part must be regular")
    if not dec.regular_part_idempotent:
        fails.append("taking the regular part must be idempotent")
    if inst.measure.is_finite_backend:
        if tuple(dec.regular.atom_values) != tuple(inst.density.values):
            fails.append("the regular part must have the upper density "
                         "as its density")
    else:
        if dec.regular.tail != inst.density.values:
            fails.append("the regular part must have the upper density "
                         "as its density")
    return True, fails


def _case_sing(inst):
    if not _decomposition_gate(inst):
        return False, []
    dec = inst.dec
    fails = []
    if not dec.identity_holds:
        fails.append("outer regularization must split as regular join "
                     "singular")
    if not dec.singular_vanishes_on_compacts:
        fails.append("the singular part must vanish on compact sets")
    if not dec.singular_of_regular_vanishes:
        fails.append("the singular part of a regular part must vanish")
    lat = inst.measure.lattice
    if lat.is_finite and len(inst.measure.point_classes()) <= 3 and lat.n <= 4:
        rep = minimality_brute_force(inst.measure, dec)
        if rep.checked and not rep.least:
            fails.append("a smaller completion than the singular part exists")
    return True, fails


def _case_regchar(inst):
    if not (_decomposition_gate(inst) and inst.record.outer):
        return False, []
    dec = inst.dec
    a = dec.regular == inst.measure
    b = dec.is_regular_measure()
    c = inst.record.regular
    fails = []
    if not (a == b == c):
        fails.append("being a regular part, having no singular part, and "
                     "regularity must coincide for outer-continuous measures")
    return True, fails


def _case_singchar(inst):
    if not (_decomposition_gate(inst) and inst.record.outer):
        return False, []
    m, lat = inst.measure, inst.measure.lattice
    dec = inst.dec
    a = dec.singular == m
    b = dec.is_purely_singular()
    c = all(m.value(k) == lat.bottom for k in m.compact_sets())
    fails = []
    if not (a == b == c):
        fails.append("being a singular part, having no regular part, and "
                     "vanishing on compacts must coincide for "
                     "outer-continuous measures")
    return True, fails


def _case_optdec(inst):
    p = inst.predicates
    if not (_decomposition_gate(inst) and p.metrizable
            and inst.record.optimal):
        return False, []
    m, lat = inst.measure, inst.measure.lattice
    dec = inst.dec
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


# cases over spaces and orders


def _run_space_case(check, bounds):
    violations = []
    count = 0
    for n in range(bounds.max_points + 1):
        for space in enumerate_topologies(n):
            count += 1
            violations.extend(check(space, bounds))
    return count, violations, 0


def _check_hm(space, bounds):
    rep = hofmann_mislove_check(space)
    out = []
    if not rep.binary_unions:
        out.append({"instance": repr(space),
                    "problem": "compact saturated sets not closed under "
                               "binary unions"})
    if not rep.filtered_intersections:
        out.append({"instance": repr(space),
                    "problem": "a filtered intersection of compact "
                               "saturated sets escapes the family"})
    if not rep.open_escape:
        out.append({"instance": repr(space),
                    "problem": "a filtered family refuses to enter an open "
                               "around its intersection"})
    return out


@lru_cache(maxsize=None)
def _t0_targets(max_points):
    out = []
    for n in range(max_points + 1):
        out.extend(enumerate_t0_spaces(n))
    return tuple(out)


def _check_t0(space, bounds):
    try:
        t0_reflection(space, factor_targets=_t0_targets(bounds.max_points))
    except MaxitiveError as e:
        return [{"instance": repr(space), "problem": str(e)}]
    return []


def _check_tilde(space, bounds):
    # the class of a point by definition: the points with its closure
    classes = [sum(1 << y for y in range(space.n)
                   if space.down[y] == space.down[x])
               for x in range(space.n)]
    out = []
    for b in analysis(space).borel.sets:
        for x in bits(b):
            if classes[x] & ~b:
                out.append({"instance": repr(space),
                            "problem": f"Borel set {b:b} cuts the class of "
                                       f"point {space.names[x]}"})
    return out


def _run_interp(bounds):
    violations = []
    count = 0
    vacuous = 0
    for n in range(5):
        for poset in enumerate_posets(n):
            count += 1
            rep = check_domain(poset)
            if not (rep.continuous and rep.filtered_complete):
                vacuous += 1
                continue
            if not rep.interpolation:
                violations.append({
                    "instance": repr(poset),
                    "problem": "a continuous filtered-complete poset must "
                               "interpolate the way-above relation"})
    return count, violations, vacuous


def _run_jcont(bounds):
    violations = []
    count = 0
    vacuous = 0
    for n in range(1, 5):
        for poset in enumerate_posets(n):
            rep = check_domain(poset)
            if not (rep.continuous and rep.filtered_complete
                    and poset.has_bottom):
                continue
            for fmask in poset.filter_masks():
                base = poset.inf_of_mask(fmask)
                if base is None:
                    continue
                members = list(bits(fmask))
                for t in poset.values():
                    count += 1
                    joins = [poset.sup_of_mask(1 << t | 1 << f)
                             for f in members]
                    if any(j is None for j in joins):
                        vacuous += 1
                        continue
                    total = poset.sup_of_mask(1 << t | 1 << base)
                    if total is None:
                        violations.append({
                            "instance": repr(poset),
                            "problem": f"join of {poset.name(t)} with the "
                                       f"filter infimum must exist"})
                        continue
                    if poset.inf_of_mask(poset.mask_of(joins)) != total:
                        violations.append({
                            "instance": repr(poset),
                            "problem": "joining must commute with the "
                                       "filtered infimum"})
                        continue
                    # exercise the library routine, which re-asserts this
                    try:
                        join_continuity(poset, t, members)
                    except MaxitiveError as e:
                        violations.append({
                            "instance": repr(poset),
                            "problem": f"library join-continuity check "
                                       f"disagrees: {e}"})
    for lower in (Ext.of(0), Ext.of("1/2"), Ext.of(2), Ext.of("7/3"),
                  Ext.of("inf")):
        for closed in (True, False):
            if lower.is_infinite and not closed:
                continue
            filt = RationalFilter(lower, closed)
            for t in (Ext.of(0), Ext.of("1/2"), Ext.of(3), Ext.of("inf")):
                count += 1
                got = join_continuity(EXT_REALS, t, filt)
                if got != EXT_REALS.join(t, lower):
                    violations.append({
                        "instance": f"filter above {lower!r}",
                        "problem": "join with a rational filter infimum "
                                   "must distribute"})
    return count, violations, vacuous


def _run_sep(bounds):
    violations = []
    count = 0
    vacuous = 0
    for n in range(1, 6):
        for lattice in enumerate_lattices(n):
            pairs = [(s, t) for s in lattice.values() for t in lattice.values()
                     if not lattice.le(s, t)]
            if not pairs:
                count += 1
                vacuous += 1
                continue
            for s, t in pairs:
                count += 1
                phi = separating_map(lattice, s, t)
                if phi[s] != Fraction(1) or phi[t] != Fraction(0):
                    violations.append({
                        "instance": repr(lattice),
                        "problem": f"map must send {lattice.name(s)} to 1 "
                                   f"and {lattice.name(t)} to 0"})
                if not separating_map_preserves(lattice, phi):
                    violations.append({
                        "instance": repr(lattice),
                        "problem": "separating map must preserve existing "
                                   "suprema and filtered infima"})
    return count, violations, vacuous


# registry


@dataclass(frozen=True)
class TheoremCase:
    id: str
    description: str
    backends: tuple
    kind: str
    runner: object
    notes: tuple = ()


def _measure_case(case_id, description, runner, notes=(),
                  backends=("finite", "countable")):
    return TheoremCase(case_id, description, backends, "measure", runner,
                       notes)


CASES = (
    TheoremCase(
        "L-INTERP",
        "Continuous filtered-complete posets interpolate the way-above "
        "relation.",
        ("order",), "order", _run_interp),
    TheoremCase(
        "L-JCONT",
        "In a continuous filtered-complete poset, joining with a fixed "
        "element commutes with infima of filters, whenever the pairwise "
        "joins exist.",
        ("order",), "order", _run_jcont),
    TheoremCase(
        "L-SEP",
        "For s not below t there is a map to the unit interval preserving "
        "existing suprema and filtered infima that sends s to 1 and t to 0.",
        ("order",), "order", _run_sep),
    TheoremCase(
        "T-HM",
        "Compact saturated sets are closed under binary unions and "
        "filtered intersections, and a filtered family whose intersection "
        "lies in an open has a member inside it.",
        ("finite",), "space",
        lambda bounds: _run_space_case(_check_hm, bounds)),
    TheoremCase(
        "T-T0",
        "Identifying points with equal closures yields a T0 quotient; the "
        "projection preserves opens and compact saturated sets both ways, "
        "induces a Borel algebra isomorphism, and every continuous map "
        "into a T0 space factors uniquely through it.",
        ("finite",), "space",
        lambda bounds: _run_space_case(_check_t0, bounds)),
    TheoremCase(
        "C-TILDE",
        "A Borel set containing a point contains its whole class.",
        ("finite",), "space",
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
        _case_wic),
    _measure_case(
        "L-REG0",
        "The outer value of a compact Borel set is the join of the outer "
        "values of the point classes inside it, so weak outer-continuity "
        "reduces to the classes.",
        _case_reg0),
    _measure_case(
        "P-LOCCOMP",
        "Weak outer- plus weak inner-continuity give regularity and "
        "complete maxitivity.",
        _case_loccomp),
    _measure_case(
        "C-SC",
        "On second-countable spaces, weakly outer-continuous "
        "sigma-maxitive measures are regular.",
        _case_sc),
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
        _case_trpolish),
    _measure_case(
        "C-SIGCOMP",
        "On sigma-compact metrizable spaces, smoothness on compact sets "
        "with sigma-maxitivity gives regularity.",
        _case_sigcomp,
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
        _case_treg),
    _measure_case(
        "C-MAXDENS",
        "For regular measures the upper density equals the measure on "
        "point classes, is an usc density, and dominates every density.",
        _case_maxdens),
    _measure_case(
        "T-REGTIGHT",
        "The tight regularity block: tight regularity is having an upper "
        "compact usc density, it implies tight weak outer-continuity, "
        "then smoothness with saturation, and the chain closes under "
        "local compactness, complete metrizability, or Polishness.",
        _case_regtight),
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
        _case_regpart),
    _measure_case(
        "T-SING",
        "The outer regularization splits as the join of the regular part "
        "with a least singular complement that vanishes on point classes, "
        "and the singular part of a regular part vanishes.",
        _case_sing),
    _measure_case(
        "C-REGCHAR",
        "For outer-continuous measures: being a regular part, having no "
        "singular part, and being regular coincide.",
        _case_regchar),
    _measure_case(
        "C-SINGCHAR",
        "For outer-continuous measures: being a singular part, having no "
        "regular part, and vanishing on compact sets coincide.",
        _case_singchar),
    _measure_case(
        "C-OPTDEC",
        "On metrizable spaces an optimal measure itself splits into a "
        "regular optimal part and an optimal singular part vanishing on "
        "compact sets.",
        _case_optdec),
)

CASE_INDEX = {case.id: case for case in CASES}


# running and reporting


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    instances: int
    violations: tuple
    vacuous: int
    notes: tuple

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


@dataclass(frozen=True)
class VerificationReport:
    bounds: Bounds
    results: tuple

    @property
    def total_violations(self):
        return sum(len(r.violations) for r in self.results)

    @property
    def total_instances(self):
        return sum(r.instances for r in self.results)

    def as_dict(self):
        return {
            "schema": "maxitive-verification/1",
            "bounds": self.bounds.as_dict(),
            "cases": [r.as_dict() for r in self.results],
            "total_instances": self.total_instances,
            "total_violations": self.total_violations,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def run_case(case, bounds):
    bounds.validate()
    if case.kind in ("order", "space"):
        count, violations, vacuous = case.runner(bounds)
        return CaseResult(case.id, count, tuple(
            tuple(sorted(v.items())) for v in violations), vacuous, case.notes)
    violations = []
    vacuous = 0
    insts = measure_instances(bounds)
    for inst in insts:
        try:
            nonvac, fails = case.runner(inst)
        except MaxitiveError as e:
            nonvac, fails = True, [f"verification error: {e}"]
        if not nonvac:
            vacuous += 1
        for f in fails:
            violations.append((("instance", inst.label), ("problem", f)))
    return CaseResult(case.id, len(insts), tuple(violations), vacuous,
                      case.notes)


def run_theorem(case_id, bounds=Bounds()):
    if case_id not in CASE_INDEX:
        raise InputError(f"unknown theorem case {case_id!r}")
    return run_case(CASE_INDEX[case_id], bounds)


def run_all(bounds=Bounds()):
    return VerificationReport(bounds,
                              tuple(run_case(c, bounds) for c in CASES))


# counterexample search

_FINITE_FORCED = {
    "weak_inner": True, "tight": True, "q_smooth": True, "f_smooth": True,
    "k_smooth": True, "sigma_maxitive": True, "completely_maxitive": True,
    "continuous_from_above": True, "optimal": True,
}

# Flags tied to one another on the finite backend: each equals the
# statement that the measure agrees with its saturation.  Membership of
# usc densities in this class follows from an antitone argument: any
# density rounds down to one that is antitone along specialization
# exactly when the measure respects saturation.
_FINITE_SAT_CLASS = ("inner", "outer", "weak_outer", "saturated", "regular",
                     "usc_density_exists")


def search_counterexample(required, forbidden, bounds=Bounds()):
    """Search for a measure whose record matches every `required` flag
    and also matches every `forbidden` flag (the caller passes the
    negation of the conclusion there).

    A witness is returned whenever one exists within the bounds, even
    if the structural tables below say it should not.  With no witness,
    the constraints are tested against backend structure: flags forced
    true by finiteness, the saturation equivalence class on the finite
    backend, and the three reachable flag profiles of tail measures.
    If both backends rule the combination out the verdict is
    "unattainable"; otherwise the search was merely exhausted.
    """
    bounds.validate()
    constraints = dict(required)
    constraints.update(forbidden)
    searched = 0
    for inst in measure_instances(bounds):
        searched += 1
        rec = inst.record.as_dict()
        if all(rec.get(k) == v for k, v in constraints.items()):
            return {"verdict": "witness", "witness": inst.label,
                    "instances_searched": searched, "reason": ""}

    reasons = []
    finite_ok = True
    for k, v in constraints.items():
        if k in _FINITE_FORCED and v is False:
            finite_ok = False
            reasons.append(f"finite backend forces {k} to hold")
    tied = {k: v for k, v in constraints.items() if k in _FINITE_SAT_CLASS}
    if len(set(tied.values())) > 1:
        finite_ok = False
        reasons.append("finite backend ties "
                       + ", ".join(sorted(tied)) + " together")
    # the tail closed forms depend only on whether the infinite mass
    # stays below the tail and whether both vanish, so three tails on
    # the two-element chain reach every profile
    chain = FinitePoset.chain(2)
    profiles = []
    for tail, mass in ((0, 0), (1, 0), (0, 1)):
        flags = cached_tail_flags(TailDensity(chain, {}, tail, mass))
        profiles.append({f: flags[f] for f in ClassificationRecord._FIELDS})
    countable_ok = any(
        all(profile.get(k) == v for k, v in constraints.items()
            if k in profile)
        for profile in profiles)
    if not countable_ok:
        reasons.append("no tail measure profile satisfies the combination")
    verdict = "unattainable" if (not finite_ok and not countable_ok) \
        else "exhausted"
    return {"verdict": verdict, "witness": None,
            "instances_searched": searched,
            "reason": "; ".join(reasons)}
