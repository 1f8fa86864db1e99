import itertools
import random
from types import SimpleNamespace

import pytest

from maxitive import (EXT_REALS, CrossCheckError, Ext, FinCofinSet,
                      FinitePoset, FiniteSpace, InputError, MaxitiveMeasure,
                      TailDensity, ValidationError, analysis, decompose,
                      enumerate_topologies)
from maxitive import measure as measure_module
from maxitive.countable import sample_sets
from maxitive.decomposition import precondition_failure
from maxitive.errors import MissingSupremumError
from maxitive.harness import Bounds, finite_measure_pool
from maxitive import oracles
from maxitive.measure import (FINITE, FINITE_FORCED, FINITE_SAT_CLASS,
                              ClassificationRecord, _family_table,
                              open_cover_families, unions_are_joins)
from maxitive.oracles import (_family_pools_literal, _finite_record_literal,
                              _intersections_are_infima_literal,
                              _least_completion_literal,
                              _regular_part_literal,
                              _unions_are_joins_literal)
from maxitive.order import enumerate_posets, join_all


def brute_outer(measure, b):
    """Infimum of open-superset values, straight from the definition."""
    lat = measure.lattice
    space = measure.space
    vals = [measure.value(g) for g in space.opens_list if not b & ~g]
    out = vals[0]
    for v in vals[1:]:
        out = lat.meet(out, v)
    return out


class TestConstruction:
    def test_atom_count_checked(self, sier, chain3):
        with pytest.raises(InputError):
            MaxitiveMeasure(sier, chain3, atom_values=(1,))

    def test_from_atom_values_by_label(self, indisc, chain2):
        m = MaxitiveMeasure.from_atom_values(indisc, chain2, {"a/b": 1})
        assert m.value(0b11) == 1
        with pytest.raises(InputError):
            MaxitiveMeasure.from_atom_values(indisc, chain2, {"zz": 1})

    def test_from_density_joins_into_atoms(self, indisc, chain2):
        m = MaxitiveMeasure.from_density(indisc, chain2,
                                         {"a": 0, "b": 1})
        assert m.atom_values == (1,)

    def test_from_table_accepts_maxitive(self, sier, chain3, mu1):
        table = {b: mu1.value(b) for b in analysis(sier).borel_masks}
        again = MaxitiveMeasure.from_table(sier, chain3, table)
        assert again == mu1

    def test_from_table_rejects_non_maxitive(self, sier, chain3):
        # value drops on a union: not maxitive
        table = {0: 0, 0b01: 2, 0b10: 2, 0b11: 1}
        with pytest.raises(ValidationError) as exc:
            MaxitiveMeasure.from_table(sier, chain3, table)
        # the atoms carry 2 each, so the whole space must carry 2
        assert exc.value.witness == (0b11,)

    def test_from_table_rejects_nonzero_empty(self, sier, chain3):
        table = {0: 1, 0b01: 1, 0b10: 1, 0b11: 1}
        with pytest.raises(ValidationError):
            MaxitiveMeasure.from_table(sier, chain3, table)

    def test_tail_lattice_must_match(self, chain2, chain3):
        from maxitive import COUNTABLE
        td = TailDensity(chain2, {}, 0, 0)
        with pytest.raises(InputError):
            MaxitiveMeasure(COUNTABLE, chain3, tail=td)

    def test_bool_values_rejected(self, sier, chain3):
        for lattice in (chain3, EXT_REALS):
            with pytest.raises(InputError):
                MaxitiveMeasure.from_density(sier, lattice, {"a": True})

    def test_value_requires_borel(self, mu1):
        with pytest.raises(InputError):
            mu1.value(0b100)

    def test_countable_value_requires_fincofin(self, eta):
        with pytest.raises(InputError):
            eta.value({0, 1})


class TestValues:
    def test_join_over_atoms(self, mu1):
        assert mu1.value(0) == 0
        assert mu1.value(0b01) == 0  # {a}
        assert mu1.value(0b10) == 1  # {b}
        assert mu1.value(0b11) == 1

    def test_outer_matches_brute_force_everywhere(self):
        for space in enumerate_topologies(2):
            an = analysis(space)
            k = 3
            chain = FinitePoset.chain(k)
            for assign in itertools.product(range(k),
                                            repeat=len(an.atoms)):
                m = MaxitiveMeasure(space, chain, atom_values=assign)
                for b in an.borel_masks:
                    assert m.outer_value(b) == brute_outer(m, b)

    def test_ext_real_values(self, sier):
        m = MaxitiveMeasure.from_density(sier, EXT_REALS,
                                         {"a": "1/2", "b": "inf"})
        assert m.value(0b01) == Ext.of("1/2")
        assert m.outer_value(0b01) == Ext.of("inf")

    def test_table_covers_all_borel_sets(self, mu1, sier):
        table = mu1.table()
        assert set(table) == set(analysis(sier).borel_masks)

    @pytest.mark.parametrize("lattice,pool", [
        (FinitePoset.chain(3), (0, 1, 2)),
        (FinitePoset.diamond(), (0, 1, 2, 3)),
        (EXT_REALS, tuple(map(Ext.of, ("0", "1/2", "inf")))),
    ])
    def test_value_table_is_the_atom_join(self, lattice, pool):
        for space in enumerate_topologies(3):
            an = analysis(space)
            for assign in itertools.product(pool, repeat=len(an.atoms)):
                m = MaxitiveMeasure(space, lattice, atom_values=assign)
                table = m.table()
                assert set(table) == set(an.borel_masks)
                for b in an.borel_masks:
                    joined = join_all(lattice, (v for a, v in
                                                zip(an.atoms, assign)
                                                if not a & ~b))
                    assert m.value(b) == table[b] == joined

    def test_value_rejects_masks_outside_the_space(self, mu1):
        for b in (-1, 0b100, 1 << 40):
            with pytest.raises(InputError):
                mu1.value(b)


class TestClassification:
    def test_mu1_record(self, mu1):
        r = mu1.classify()
        assert not r.inner and not r.outer and not r.regular
        assert r.weak_inner and not r.weak_outer
        assert not r.saturated
        assert r.q_smooth and r.f_smooth and r.k_smooth
        assert r.tight
        assert r.sigma_maxitive and r.completely_maxitive
        assert r.continuous_from_above and r.optimal
        assert not r.usc_density_exists

    def test_mu2_record(self, mu2):
        r = mu2.classify()
        assert all(r.as_dict().values())

    def test_record_fields_are_exactly_the_contract(self, mu1):
        assert set(mu1.classify().as_dict()) == {
            "inner", "outer", "weak_inner", "weak_outer", "regular",
            "saturated", "q_smooth", "f_smooth", "k_smooth", "tight",
            "sigma_maxitive", "completely_maxitive", "continuous_from_above",
            "optimal", "usc_density_exists"}

    def test_countable_record_matches_tail_flags(self, eta, theta, rho):
        for m in (eta, theta, rho):
            rec = m.classify().as_dict()
            from maxitive.countable import tail_flags
            flags = tail_flags(m.tail)
            for name, value in rec.items():
                assert flags[name] == value, name

    def test_classification_cached(self, mu1):
        assert mu1.classify() is mu1.classify()

    def test_planted_outer_fault_caught(self, chain3):
        # a value table wrong on the whole discrete space but right on
        # its atoms: outer-continuity fails only off the atoms
        m = MaxitiveMeasure(FiniteSpace.discrete(("a", "b")), chain3,
                            atom_values=(1, 2))
        m.outer_regularization()
        values = list(m._values)
        values[0b11] = 1
        m._values = tuple(values)
        with pytest.raises(CrossCheckError, match="atom form"):
            _finite_record_literal(m)


def family_tables(space):
    """The table of case L-WIC, and a table of each family pool the
    finite record quantifies over."""
    return (open_cover_families(space),
            *(_family_table(fams)
              for fams in _family_pools_literal(space).values()))


def quantifiers_against_oracles(m):
    """The union fold over every family table of the measure's space,
    against the literal quantifier; returns the outcomes."""
    outcomes = set()
    for table in family_tables(m.space):
        got = unions_are_joins(m, table)
        assert got == _unions_are_joins_literal(m, table[0]), m
        outcomes.add(got)
    return outcomes


class TestFamilyTables:
    # a maxitive measure turns every finite union into a join, so the
    # fold holds on every table; the planted tests below make it fail
    def test_fast_routes_match_literal_oracles_at_default_bounds(self):
        b = Bounds()
        outcomes = set()
        for m in finite_measure_pool(b.max_points, b.max_lattice, b.seed,
                                     b.density_samples):
            outcomes |= quantifiers_against_oracles(m)
        assert outcomes == {True}

    @pytest.mark.parametrize("lattice,pool", [
        (FinitePoset.diamond(), (0, 1, 2, 3)),
        (FinitePoset.m3(), (0, 1, 2, 3, 4)),
        (FinitePoset.pentagon(), (0, 1, 2, 3, 4)),
        (EXT_REALS, tuple(map(Ext.of, ("0", "1/2", "inf")))),
    ])
    def test_fast_routes_match_literal_oracles_off_chains(self, lattice, pool):
        # every assignment on up to two atoms, 16 seeded ones on three
        rng = random.Random(7)
        outcomes = set()
        for n in range(4):
            for space in enumerate_topologies(n):
                assigns = list(itertools.product(
                    pool, repeat=len(analysis(space).atoms)))
                if len(assigns) > 16:
                    assigns = rng.sample(assigns, 16)
                for assign in assigns:
                    m = MaxitiveMeasure(space, lattice, atom_values=assign)
                    outcomes |= quantifiers_against_oracles(m)
        assert outcomes == {True}

    def test_poset_without_pair_meets_takes_the_infimum(self):
        # c and d have no meet, yet {c, d, a} has the infimum a: the
        # family's infimum is taken whole, not as a fold of pair meets
        lat = FinitePoset.from_pairs("0abcde", [
            ("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
            ("b", "d"), ("c", "e"), ("d", "e")])
        m = MaxitiveMeasure(FiniteSpace.discrete("xyz"), lat,
                            atom_values=[lat.index(v) for v in "cda"])
        assert _intersections_are_infima_literal(m, ((0b101, 0b110, 0b100),))

    def test_planted_value_table_fault_caught(self):
        space = FiniteSpace.discrete(("a", "b"))
        m = MaxitiveMeasure(space, FinitePoset.chain(3), atom_values=(1, 2))
        pools = _family_pools_literal(space)
        table, chains = _family_table(pools["borel"]), pools["chains"]
        assert unions_are_joins(m, table)
        assert _intersections_are_infima_literal(m, chains)
        # the whole space holds {b}, so its value must be at least 2
        values = list(m._values)
        values[0b11] = 1
        m._values = tuple(values)
        assert not unions_are_joins(m, table)
        assert not _unions_are_joins_literal(m, table[0])
        assert not _intersections_are_infima_literal(m, chains)

    def test_missing_join_raises_as_join_all_does(self):
        # bottom below two maximal elements a and b, which have no join
        vee = FinitePoset(("0", "a", "b"), (0b111, 0b010, 0b100))
        space = FiniteSpace.discrete(("x", "y"))
        m = MaxitiveMeasure(space, vee, atom_values=(1, 1))
        values = list(m._values)
        values[0b10] = 2
        m._values = tuple(values)
        table = _family_table(_family_pools_literal(space)["borel"])
        with pytest.raises(MissingSupremumError):
            unions_are_joins(m, table)
        with pytest.raises(MissingSupremumError):
            _unions_are_joins_literal(m, table[0])


def stated_against_oracles(m):
    """The stated record and decomposition of a finite measure against
    their oracles: each flag from its definition, the literal join over
    compact subsets, and the least completion of the outer
    regularization over itself.  Returns the saturation bit."""
    oracle = _finite_record_literal(m)
    assert m.classify().as_dict() == oracle, m
    if precondition_failure(m.lattice) is None:
        dec = decompose(m)
        assert dec.regular == _regular_part_literal(m), m
        assert dec.singular == _least_completion_literal(
            m, m.outer_regularization()), m
    return oracle["saturated"]


EXT_GRID = tuple(map(Ext.of, ("0", "1/3", "1/2", "1", "2", "inf")))


class TestFiniteTheorem:
    @pytest.fixture(autouse=True)
    def _drop_cached_results(self):
        # thousands of measures: keep their records and decompositions
        # out of the process-wide caches
        yield
        measure_module._classify.cache_clear()
        decompose.cache_clear()

    def test_flags_split_into_forced_and_saturation_class(self):
        assert sorted(FINITE_FORCED + FINITE_SAT_CLASS) == \
            sorted(ClassificationRecord._fields)

    @pytest.mark.parametrize("lattice,pool", [
        (FinitePoset.chain(1), (0,)),
        (FinitePoset.chain(2), (0, 1)),
        (FinitePoset.chain(3), (0, 1, 2)),
        (FinitePoset.diamond(), (0, 1, 2, 3)),
        (EXT_REALS, EXT_GRID),
    ], ids=["chain1", "chain2", "chain3", "diamond", "extreal"])
    def test_every_measure_on_three_points(self, lattice, pool):
        bits = set()
        for n in range(4):
            for space in enumerate_topologies(n):
                for assign in itertools.product(
                        pool, repeat=len(analysis(space).atoms)):
                    bits.add(stated_against_oracles(MaxitiveMeasure(
                        space, lattice, atom_values=assign)))
        assert bits == ({True} if len(pool) == 1 else {True, False})

    def test_every_poset_with_bottom_on_two_points(self):
        # a measure whose atom values lack a join cannot be built; every
        # other one is checked, lattice or not
        checked = skipped = 0
        for k in range(1, 5):
            for lat in (p for p in enumerate_posets(k) if p.has_bottom):
                for space in (s for n in range(3)
                              for s in enumerate_topologies(n)):
                    for assign in itertools.product(
                            lat.values(), repeat=len(analysis(space).atoms)):
                        m = MaxitiveMeasure(space, lat, atom_values=assign)
                        try:
                            m.table()
                        except MissingSupremumError:
                            skipped += 1
                            continue
                        stated_against_oracles(m)
                        checked += 1
        assert (checked, skipped) == (4228, 450)

    def test_seeded_sample_on_four_points(self):
        rng = random.Random(4)
        spaces = rng.sample(list(enumerate_topologies(4)), 12)
        bits = set()
        for space in spaces:
            k = len(analysis(space).atoms)
            for lattice, pool in ((FinitePoset.chain(3), (0, 1, 2)),
                                  (FinitePoset.diamond(), (0, 1, 2, 3)),
                                  (EXT_REALS, EXT_GRID)):
                for _ in range(2):
                    bits.add(stated_against_oracles(MaxitiveMeasure(
                        space, lattice,
                        atom_values=[rng.choice(pool) for _ in range(k)])))
        assert bits == {True, False}

    @pytest.mark.parametrize("flag", ClassificationRecord._fields)
    def test_each_flipped_flag_caught(self, flag, monkeypatch):
        # a classify that states one flag wrong must fail against the
        # oracle on some measure on at most two points over chain 2
        stated = type(FINITE).classify

        def flipped(backend, m):
            flags = stated(backend, m)
            return {**flags, flag: not flags[flag]}
        measure_module._classify.cache_clear()
        monkeypatch.setattr(type(FINITE), "classify", flipped)
        with pytest.raises(AssertionError):
            for space in (s for n in range(3)
                          for s in enumerate_topologies(n)):
                for assign in itertools.product(
                        (0, 1), repeat=len(analysis(space).atoms)):
                    stated_against_oracles(MaxitiveMeasure(
                        space, FinitePoset.chain(2), atom_values=assign))

    def test_hot_path_reads_no_family_table(self, chain3, monkeypatch):
        for cached in (open_cover_families, measure_module._classify,
                       decompose):
            cached.cache_clear()

        def refuse(*args):
            raise RuntimeError("a family pool or table was built")
        for module, builders in (
                (measure_module, ("_family_table", "subfamily_pool")),
                (oracles, ("subfamily_pool", "filtered_subfamilies"))):
            for builder in builders:
                monkeypatch.setattr(module, builder, refuse)
        m = MaxitiveMeasure.from_density(
            FiniteSpace.from_subbasis(("p", "q", "r"), (0b001, 0b011)),
            chain3, {"p": "1", "q": "2", "r": "0"})
        assert not m.classify().saturated
        assert decompose(m).ok
        with pytest.raises(RuntimeError, match="family pool"):
            _finite_record_literal(m)


class TestUpperDensity:
    def test_mu1_density_is_top(self, mu1):
        info = mu1.upper_density()
        assert info.values == (1, 1)
        assert info.usc and info.upper_compact

    def test_mu2_density(self, mu2):
        info = mu2.upper_density()
        assert info.values == (1, 0)

    def test_ext_real_density(self, sier):
        m = MaxitiveMeasure.from_density(sier, EXT_REALS,
                                         {"a": "1", "b": "2"})
        info = m.upper_density()
        assert info.values == (Ext.of(2), Ext.of(2))
        assert info.usc

    def test_countable_density(self, rho):
        info = rho.upper_density()
        assert info.values == TailDensity(rho.lattice, {0: 2}, 1, 0)
        assert info.usc
        assert not info.upper_compact  # sets where the density exceeds 0
        # stay cofinite, never compact

    def test_usc_search_honest_on_regular_chain(self, sier, chain3):
        # on the Sierpinski space a density exists iff the closed point
        # carries at least the open point's weight
        for va, vb in itertools.product(range(3), repeat=2):
            m = MaxitiveMeasure.from_density(sier, chain3,
                                             {"a": va, "b": vb})
            expected = va >= vb
            assert m.classify().usc_density_exists == expected, (va, vb)


class TestNuplusFailures:
    def test_least_element_rule_matches_pairwise_rule(self):
        # a measure stand-in whose only Borel set is empty, so every
        # open is a superset, with the listed values on the opens
        diamond = FinitePoset.diamond()
        lists = [vals for k in range(1, 5)
                 for vals in itertools.product(diamond.values(), repeat=k)]
        verdicts = set()
        for vals in lists:
            m = SimpleNamespace(lattice=diamond,
                                _an=SimpleNamespace(borel_masks=(0,)),
                                space=SimpleNamespace(
                                    opens_list=range(len(vals))),
                                value=vals.__getitem__)
            filtered = all(any(diamond.le(c, a) and diamond.le(c, b)
                               for c in vals)
                           for a in vals for b in vals)
            assert FINITE.nuplus_failures(m) == ([] if filtered else [
                "open-superset values at 0 are not filtered"]), vals
            verdicts.add(filtered)
        assert len(lists) == 340 and verdicts == {True, False}


class TestOuterRegularization:
    def test_mu1_outer_measure(self, mu1):
        plus = mu1.outer_regularization()
        assert plus.atom_values == (1, 1)
        assert plus.classify().outer

    def test_idempotent(self, mu1, eta):
        for m in (mu1, eta):
            plus = m.outer_regularization()
            assert plus.outer_regularization() == plus

    def test_countable_outer_is_identity(self, eta):
        assert eta.outer_regularization() == eta
        s = FinCofinSet.cofinite((3,))
        assert eta.outer_value(s) == eta.value(s)

    def test_dominates(self, mu1):
        plus = mu1.outer_regularization()
        for b in mu1.table():
            assert mu1.lattice.le(mu1.value(b), plus.value(b))

    def test_outer_value_rejects_masks_outside_the_space(self, mu1):
        for b in (-1, 0b100):
            with pytest.raises(InputError):
                mu1.outer_value(b)

    def test_built_once_per_measure(self, monkeypatch):
        m = MaxitiveMeasure.from_density(FiniteSpace.sierpinski(),
                                         FinitePoset.chain(3),
                                         {"a": "0", "b": "1"})
        calls = []
        inf = m.lattice.inf
        monkeypatch.setattr(m.lattice, "inf",
                            lambda values: calls.append(1) or inf(values))
        first = m.outer_regularization()
        literal = len(calls)
        assert literal > 0
        assert m.outer_regularization() is first
        assert m.upper_density() is m.upper_density()
        assert len(calls) == literal

    @pytest.mark.parametrize("entry", ["outer_regularization",
                                       "upper_density", "decompose"])
    def test_planted_outer_value_fault_caught(self, entry, monkeypatch):
        # the literal open-superset infimum must expose a fast route
        # that has gone wrong, whichever entry point reaches it
        m = MaxitiveMeasure.from_density(FiniteSpace.sierpinski(),
                                         FinitePoset.chain(3),
                                         {"a": "2", "b": "1"})
        monkeypatch.setattr(MaxitiveMeasure, "outer_value",
                            lambda self, b: self.lattice.bottom)
        decompose.cache_clear()
        run = {"outer_regularization": m.outer_regularization,
               "upper_density": m.upper_density,
               "decompose": lambda: decompose(m)}[entry]
        with pytest.raises(CrossCheckError):
            run()


def _pools_by_definition(m):
    """The five set pools as the verification cases used to build them
    for themselves: Borel sets, compact Borel sets, atoms and closed sets
    of a finite space; the sample pool, its finite members, the
    exceptional singletons followed by three plain ones, and the pool
    again for a tail density."""
    if m.backend is FINITE:
        an = analysis(m.space)
        return (an.borel_masks, an.compact_borel, an.atoms,
                m.space.closed_list, lambda a, b: not a & ~b)
    pool = sample_sets(m.tail)
    pts = [x for x, _ in m.tail.exceptions]
    plain = FinCofinSet.cofinite(pts).members(limit=3)
    classes = tuple(FinCofinSet.of_points((x,)) for x in (*pts, *plain))
    return (pool, tuple(s for s in pool if s.kind == "finite"), classes,
            pool, lambda a, b: a.issubset(b))


@pytest.mark.parametrize("fixture", ["mu1", "rho"])
def test_set_pools_match_their_definitions(fixture, request):
    m = request.getfixturevalue(fixture)
    sets, compacts, classes, closed, subset = _pools_by_definition(m)
    assert tuple(m.sets()) == tuple(sets)
    assert tuple(m.compact_sets()) == tuple(compacts)
    assert tuple(m.point_classes()) == tuple(classes)
    assert tuple(m.closed_sets()) == tuple(closed)
    assert [m.is_subset(a, b) for a in sets for b in sets] == \
        [subset(a, b) for a in sets for b in sets]
