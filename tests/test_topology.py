import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from maxitive import (BudgetError, CrossCheckError, FiniteSpace, InputError,
                      ValidationError, analysis, borel_structure,
                      enumerate_topologies, hofmann_mislove_check,
                      t0_reflection, topology)
from maxitive.oracles import (_continuous_maps_literal,
                              _count_factorizations_literal,
                              _filtered_subfamilies_literal,
                              _is_compact_literal, _relation_walk_literal)
from maxitive.order import _ENUM_NAMES
from maxitive.topology import (continuous_maps, enumerate_t0_spaces,
                               filtered_subfamilies, generate_topology,
                               irreducible_closed_sets)


def all_topologies_by_filtering(n):
    """Independent oracle: filter every family of subsets of an n-point
    set by the topology axioms directly."""
    masks = range(1 << n)
    full = (1 << n) - 1
    out = set()
    for fam_mask in range(1 << (1 << n)):
        fam = [m for m in masks if (fam_mask >> m) & 1]
        fams = set(fam)
        if 0 not in fams or full not in fams:
            continue
        if all(u | v in fams and u & v in fams for u in fam for v in fam):
            out.add(frozenset(fams))
    return out


class TestEnumeration:
    def test_counts_match_known_sequence(self):
        assert [sum(1 for _ in enumerate_topologies(n))
                for n in range(5)] == [1, 1, 4, 29, 355]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_against_axiom_filtering_oracle(self, n):
        enumerated = {s.opens for s in enumerate_topologies(n)}
        assert enumerated == all_topologies_by_filtering(n)

    def test_budget(self):
        with pytest.raises(BudgetError):
            list(enumerate_topologies(5))

    @pytest.mark.parametrize("n", range(5))
    def test_order_matches_product_oracle(self, n):
        # the topology of a preorder is determined by its up-sets
        assert [(s.names, s.up) for s in enumerate_topologies(n)] == \
            [(tuple(_ENUM_NAMES[:n]), up)
             for up in _relation_walk_literal(n, (0, 1, 2, 3))]

    @pytest.mark.parametrize("n", range(5))
    def test_t0_order_matches_filter_oracle(self, n):
        assert list(enumerate_t0_spaces(n)) == \
            [s for s in enumerate_topologies(n)
             if irreducible_closed_sets(s)[2]]

    def test_t0_enumeration_subset(self):
        all3 = set(enumerate_topologies(3))
        t03 = set(enumerate_t0_spaces(3))
        assert t03 <= all3
        assert len(t03) == 19  # labeled T0 topologies on 3 points


class TestFiniteSpace:
    def test_axioms_validated(self):
        with pytest.raises(ValidationError):
            FiniteSpace(("a", "b"), (0, 0b01))  # full set missing
        with pytest.raises(ValidationError):
            # {a} and {b} present but their union missing
            FiniteSpace(("a", "b", "c"), (0, 0b001, 0b010, 0b111))

    def test_unknown_point(self, sier):
        with pytest.raises(InputError):
            sier.mask(("z",))

    def test_generate_topology_closes(self):
        sp = generate_topology(("a", "b", "c"), [0b001, 0b010])
        assert sp.opens == frozenset({0, 0b001, 0b010, 0b011, 0b111})

    def test_specialization_sierpinski(self, sier):
        # b is the open point: a specializes to b nowhere, b <= a nowhere;
        # a's least open is the whole space so a specializes to b
        assert sier.spec_le(0, 1)
        assert not sier.spec_le(1, 0)

    def test_saturate_and_closure(self, sier):
        assert sier.saturate(0b01) == 0b11  # {a} saturates to everything
        assert sier.closure(0b10) == 0b11  # {b} is dense
        assert sier.closure(0b01) == 0b01  # {a} closed

    def test_interior(self, sier):
        assert sier.interior(0b01) == 0
        assert sier.interior(0b10) == 0b10


def relabeled(space, perm, names):
    """The space with point x moved to position perm[x]."""
    def image(u):
        return sum(1 << perm[x] for x in range(space.n) if (u >> x) & 1)
    return FiniteSpace(names, {image(u) for u in space.opens})


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        for n in range(5):
            for space in enumerate_topologies(n):
                for perm in itertools.permutations(range(n)):
                    other = relabeled(space, perm, "pqrs"[:n])
                    assert other.canonical_form == space.canonical_form

    def test_class_counts(self):
        # OEIS A001930 (topologies) and A000112 (T0 spaces) up to
        # homeomorphism: a form that merges two classes fails here,
        # and no verify case could see it
        def classes(spaces):
            return len({s.canonical_form for s in spaces})
        assert ([classes(enumerate_topologies(n)) for n in range(5)]
                == [1, 1, 3, 9, 33])
        assert ([classes(enumerate_t0_spaces(n)) for n in range(5)]
                == [1, 1, 2, 5, 16])


class TestCompactness:
    def test_all_subsets_compact_on_finite(self):
        # the literal cover test agrees with the stated fact on every
        # mask of every space of at most four points
        for n in range(5):
            for space in enumerate_topologies(n):
                compact = analysis(space).compact_masks
                assert compact == frozenset(range(1 << n))
                for mask in range(1 << n):
                    assert _is_compact_literal(space, mask)

    def test_analysis_draws_no_cover_families(self, monkeypatch):
        # compactness is stated, so analysing a space draws no subfamily
        # pool, not even on five points
        def refuse(members, label):
            raise AssertionError(f"subfamily pool drawn for {label}")

        monkeypatch.setattr(topology, "subfamily_pool", refuse)
        analysis.cache_clear()
        spaces = [s for n in range(5) for s in enumerate_topologies(n)]
        spaces.append(FiniteSpace.discrete("abcde"))
        for space in spaces:
            analysis(space)

    def test_compact_saturated_equals_opens_here(self):
        # on a finite space saturated sets are exactly unions of minimal
        # opens, and all sets are compact, so the family is the opens
        for space in enumerate_topologies(3):
            qs = analysis(space).compact_saturated
            assert set(qs) == {u for u in space.opens}


class TestHofmannMislove:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_all_spaces_pass(self, n):
        for space in enumerate_topologies(n):
            rep = hofmann_mislove_check(space)
            assert rep.ok, (space, rep)
            assert rep.families_checked > 0 or n == 0

    def test_quasisoberness_always_holds(self):
        for n in range(4):
            for space in enumerate_topologies(n):
                _, quasisober, _ = irreducible_closed_sets(space)
                assert quasisober


class TestFilteredSubfamilies:
    @staticmethod
    def member_lists(space):
        return {"opens": space.opens_list, "closed": space.closed_list,
                "compact_borel": analysis(space).compact_borel}

    def test_bitmask_filter_matches_tuple_filter(self):
        # every space of at most 3 points, then a fixed handful of
        # four-point ones; the discrete one has 16 opens, so its
        # families are sampled
        spaces = [s for n in range(4) for s in enumerate_topologies(n)]
        spaces += list(enumerate_topologies(4))[::71]
        spaces.append(FiniteSpace.discrete("abcd"))
        for space in spaces:
            for kind, members in self.member_lists(space).items():
                label = f"{kind}:{space!r}"
                assert (filtered_subfamilies(members, label)
                        == _filtered_subfamilies_literal(members, label)), \
                    (space, kind)


class TestBorel:
    def test_sierpinski_atoms(self, sier):
        bs = borel_structure(sier)
        assert bs.atoms == (0b01, 0b10)
        assert bs.atom_labels == ("a", "b")
        assert set(bs.sets) == {0, 0b01, 0b10, 0b11}

    def test_indiscrete_single_atom(self, indisc):
        bs = borel_structure(indisc)
        assert bs.atoms == (0b11,)
        assert bs.atom_labels == ("a/b",)
        assert set(bs.sets) == {0, 0b11}

    def test_borel_sets_are_atom_unions(self):
        for space in enumerate_topologies(3):
            bs = borel_structure(space)
            for b in bs.sets:
                union = 0
                for a in bs.atoms:
                    if not a & ~b:
                        union |= a
                assert union == b


class TestT0Reflection:
    def test_sierpinski_already_t0(self, sier):
        ref = t0_reflection(sier)
        assert ref.quotient.n == 2

    def test_indiscrete_collapses(self, indisc):
        ref = t0_reflection(indisc)
        assert ref.quotient.n == 1
        assert ref.class_masks == (0b11,)

    def test_borel_bijection_all_small_spaces(self):
        targets = tuple(itertools.chain.from_iterable(
            enumerate_t0_spaces(n) for n in range(3)))
        for space in enumerate_topologies(2):
            # raises CrossCheckError on any failed invariant
            t0_reflection(space, factor_targets=targets)

    def test_planted_compactness_fault_caught(self, monkeypatch):
        # a compactness statement that rejects the whole space must
        # surface through the analysis the reflection reads
        monkeypatch.setattr(topology, "_compact_masks",
                            lambda space: frozenset(range(space.full)))
        analysis.cache_clear()
        try:
            with pytest.raises(CrossCheckError):
                t0_reflection(FiniteSpace.indiscrete(("p", "q", "r")))
        finally:
            analysis.cache_clear()

    def test_one_target_per_homeomorphism_class(self, monkeypatch):
        calls = []
        maps = topology.continuous_maps

        def counted(space, target):
            calls.append(target)
            return maps(space, target)
        monkeypatch.setattr(topology, "continuous_maps", counted)
        targets = [t for n in range(5) for t in enumerate_t0_spaces(n)]
        assert len(targets) == 243
        for factor_targets in (targets, targets + targets):
            calls.clear()
            t0_reflection(FiniteSpace.discrete("abcd"),
                          factor_targets=factor_targets)
            assert len(calls) == 25

    def test_fast_routes_match_literal_oracles(self):
        # every labeled target, including those t0_reflection skips as
        # homeomorphic to one already checked
        targets = [t for n in range(4) for t in enumerate_t0_spaces(n)]
        for space in (s for n in range(4) for s in enumerate_topologies(n)):
            refl = t0_reflection(space)
            for target in targets:
                maps = list(continuous_maps(space, target))
                assert maps == _continuous_maps_literal(space, target)
                for f in maps:
                    assert _count_factorizations_literal(refl, target, f) == 1

    def test_planted_specialization_fault_caught(self, monkeypatch, sier):
        # with no point specializing to any other every tuple looks
        # monotone; the swap of the Sierpinski space is not continuous
        monkeypatch.setattr(FiniteSpace, "spec_le", lambda self, x, y: False)
        with pytest.raises(CrossCheckError):
            list(continuous_maps(sier, sier))

    def test_planted_continuity_fault_caught(self, monkeypatch, sier):
        # the continuity test of the induced map is the one check left
        # on the factor path
        monkeypatch.setattr(topology, "_is_continuous",
                            lambda space, target, f: False)
        with pytest.raises(CrossCheckError, match="admits 0 factorizations"):
            t0_reflection(sier, factor_targets=(sier,))

    def test_discrete_four_points_against_every_t0_target(self):
        # 219 targets of four points take 256 maps each; a child process
        # lets the time limit stop a search over candidate factors
        script = textwrap.dedent("""
            from maxitive import FiniteSpace, t0_reflection
            from maxitive.topology import enumerate_t0_spaces
            targets = [t for n in range(5) for t in enumerate_t0_spaces(n)]
            refl = t0_reflection(FiniteSpace.discrete("abcd"),
                                 factor_targets=targets)
            print(len(targets), refl.quotient.n)
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=10)
        assert out.stdout.split() == ["243", "4"]

    def test_continuous_maps_compose(self, sier, indisc):
        maps = list(continuous_maps(indisc, sier))
        # both points must land on one point whose preimage of {b} is
        # empty or everything: the constant maps
        assert all(len(set(f)) == 1 for f in maps)


class TestAnalysis:
    def test_predicates_discrete(self):
        sp = FiniteSpace.discrete(("a", "b"))
        p = analysis(sp).predicates
        assert p.discrete and p.t1 and p.metrizable and p.polish

    def test_predicates_sierpinski(self, sier):
        p = analysis(sier).predicates
        assert not p.t1 and not p.metrizable
        assert p.t0 and p.quasisober and p.sober
        assert p.second_countable and p.locally_compact

    def test_indiscrete_not_t0(self, indisc):
        p = analysis(indisc).predicates
        assert not p.t0 and not p.sober and p.quasisober

    def test_cached(self, sier):
        assert analysis(sier) is analysis(FiniteSpace.sierpinski())
