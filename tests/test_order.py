import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from maxitive import (BudgetError, CrossCheckError, EXT_REALS, Ext,
                      FinCofinSet, FinitePoset, INFINITY, InputError,
                      MissingInfimumError, MissingSupremumError,
                      PreconditionError, RationalFilter, TailDensity, ZERO,
                      check_domain, join_continuity, separating_map,
                      separating_map_preserves, way_above)
from maxitive import order
from maxitive.oracles import (_relation_walk_literal,
                              _separating_map_preserves_literal,
                              _way_above_filter_literal)
from maxitive.order import (_ENUM_NAMES, _relation_walk, bits,
                            enumerate_lattices, enumerate_posets,
                            least_completion)


def brute_force_infimum(poset, mask):
    """Greatest common lower bound, by scanning all elements."""
    lower = [c for c in poset.values()
             if all(poset.le(c, m) for m in bits(mask))]
    greatest = [c for c in lower if all(poset.le(d, c) for d in lower)]
    return greatest[0] if greatest else None


class TestFinitePoset:
    def test_chain_order(self):
        c = FinitePoset.chain(4)
        assert c.is_chain() and c.is_lattice()
        assert c.le(0, 3) and not c.le(3, 0)
        assert c.bottom == 0
        assert c.join(1, 2) == 2 and c.meet(1, 2) == 1

    def test_from_pairs_transitive(self):
        p = FinitePoset.from_pairs("abc", [("a", "b"), ("b", "c")])
        assert p.le(p.index("a"), p.index("c"))

    def test_reflexivity_validated(self):
        with pytest.raises(InputError):
            FinitePoset(("a", "b"), (0b01, 0b01))  # b's up-set misses b

    def test_antisymmetry_validated(self):
        with pytest.raises(InputError):
            FinitePoset(("a", "b"), (0b11, 0b11))

    def test_diamond_not_chain_but_lattice(self):
        d = FinitePoset.diamond()
        assert d.is_lattice() and not d.is_chain()
        a, b = d.index("a"), d.index("b")
        assert d.join(a, b) == d.index("1")
        assert d.meet(a, b) == d.index("0")

    def test_missing_bounds_raise(self):
        v = FinitePoset(("a", "b"), (0b01, 0b10))  # antichain
        assert v.sup_of_mask(0b11) is None
        with pytest.raises(MissingSupremumError):
            v.sup([0, 1])
        with pytest.raises(MissingInfimumError):
            v.inf([0, 1])

    def test_chain_and_lattice_flags_against_pairs(self):
        # is_chain reads up- and down-sets, check_domain the pair tables
        for n in range(5):
            for poset in enumerate_posets(n):
                pairs = list(itertools.combinations(poset.values(), 2))
                assert poset.is_chain() == all(
                    poset.le(a, b) or poset.le(b, a) for a, b in pairs)
                assert check_domain(poset).is_lattice == poset.is_lattice()

    def test_infimum_against_brute_force(self):
        for n in range(5):
            for poset in enumerate_posets(n):
                for mask in range(1, 1 << n):
                    assert poset.inf_of_mask(mask) == \
                        brute_force_infimum(poset, mask)


class TestWayAbove:
    def test_fast_rule_matches_filter_oracle(self):
        # the oracle enumerates every filter with an infimum
        for n in range(5):
            for poset in enumerate_posets(n):
                for s in poset.values():
                    for r in poset.values():
                        assert poset.way_above(s, r) == \
                            _way_above_filter_literal(poset, s, r), \
                            (poset, s, r)

    def test_ext_reals_closed_form(self):
        assert way_above(EXT_REALS, INFINITY, INFINITY)
        assert way_above(EXT_REALS, Ext.of(2), Ext.of(1))
        assert not way_above(EXT_REALS, Ext.of(1), Ext.of(1))
        assert not way_above(EXT_REALS, Ext.of(1), Ext.of(2))
        assert way_above(EXT_REALS, Ext.of(0), ZERO) is False

    def test_ext_reals_against_interval_filters(self):
        # filters of the chain are final segments [a, inf] and (a, inf]
        grid = [ZERO, Ext.of("1/2"), Ext.of(1), Ext.of(3), INFINITY]
        for s in grid:
            for r in grid:
                expected = True
                for a in grid:
                    for closed in (True, False):
                        if a.is_infinite and not closed:
                            continue
                        filt = RationalFilter(a, closed)
                        if filt.infimum <= r and not filt.contains(s):
                            expected = False
                assert way_above(EXT_REALS, s, r) == expected


class TestCheckDomain:
    def test_ext_reals(self):
        rep = check_domain(EXT_REALS)
        assert rep.continuous and rep.filtered_complete
        assert rep.interpolation and rep.distributive
        assert rep.conditionally_complete

    def test_chain(self, chain3):
        rep = check_domain(chain3)
        assert rep.continuous and rep.distributive

    def test_pentagon_not_distributive(self):
        rep = check_domain(FinitePoset.pentagon())
        assert not rep.distributive

    def test_m3_not_distributive(self):
        rep = check_domain(FinitePoset.m3())
        assert not rep.distributive

    def test_diamond_distributive(self):
        assert check_domain(FinitePoset.diamond()).distributive

    def test_one_report_per_lattice(self):
        assert check_domain(FinitePoset.chain(3)) is \
            check_domain(FinitePoset.chain(3))
        assert check_domain(FinitePoset.m3()) is \
            check_domain(FinitePoset.m3())

    def test_lattice_over_size_budget_rejected(self):
        with pytest.raises(BudgetError):
            check_domain(FinitePoset.chain(17))

    def test_finite_posets_always_continuous(self):
        for n in range(4):
            for poset in enumerate_posets(n):
                rep = check_domain(poset)
                assert rep.continuous and rep.filtered_complete


class TestPairTables:
    def test_tables_match_bitmask_routes(self):
        # bottomless posets and non-lattices included
        for n in range(5):
            for poset in enumerate_posets(n):
                for a in poset.values():
                    for b in poset.values():
                        pair = 1 << a | 1 << b
                        sup = poset.sup_of_mask(pair)
                        if sup is None:
                            with pytest.raises(MissingSupremumError):
                                poset.join(a, b)
                        else:
                            assert poset.join(a, b) == sup
                        inf = poset.inf_of_mask(pair)
                        if inf is None:
                            with pytest.raises(MissingInfimumError):
                                poset.meet(a, b)
                        else:
                            assert poset.meet(a, b) == inf

    def test_infimum_table_matches_bitmask_route(self):
        for n in range(5):
            for poset in enumerate_posets(n):
                for mask in range(1, 1 << n):
                    inf = poset.inf_of_mask(mask)
                    values = list(bits(mask))
                    if inf is None:
                        with pytest.raises(MissingInfimumError):
                            poset.inf(values)
                    else:
                        for _ in range(2):  # filled, then read back
                            assert poset.inf(values) == inf

    def test_join_table_built_once(self):
        p = FinitePoset.diamond()
        calls = []
        sup_of_mask = p.sup_of_mask
        p.sup_of_mask = lambda mask: calls.append(mask) or sup_of_mask(mask)
        assert p.join(1, 2) == 3
        built = len(calls)
        assert built > 0
        assert p.join(0, 1) == 1 and p.join(2, 1) == 3
        assert len(calls) == built

    def test_bottom(self):
        assert FinitePoset.diamond().bottom == 0
        v = FinitePoset(("a", "b"), (0b01, 0b10))
        assert not v.has_bottom
        with pytest.raises(PreconditionError):
            v.bottom

    @pytest.mark.parametrize("table,attr,route,bounds", [
        ("_joins", "join", "sup_of_mask", "n=2,lattice=3,countable=2"),
        ("_meets", "meet", "inf_of_mask", "n=2,lattice=3,countable=3"),
        ("_meets", "meet", "inf_of_mask", "n=3,lattice=3,countable=2"),
        ("_joins", "join", "sup_of_mask", "n=3,lattice=3,countable=2"),
    ])
    def test_planted_table_fault_caught(self, table, attr, route, bounds):
        # in a child process: the process-wide caches keep lattices, and
        # with them their tables, alive across tests
        script = textwrap.dedent(f"""
            import contextlib, functools, io, json
            from maxitive.cli import main
            from maxitive.order import FinitePoset

            build = vars(FinitePoset)[{table!r}].func

            def planted(self):
                rows = build(self)
                if self.n == 3 and self.is_chain():
                    # the other of 1 and 2: wrong in every 3-chain
                    wrong = 3 - rows[1][2]
                    rows = [list(r) for r in rows]
                    rows[1][2] = rows[2][1] = wrong
                    rows = tuple(map(tuple, rows))
                return rows

            prop = functools.cached_property(planted)
            prop.__set_name__(FinitePoset, {table!r})
            setattr(FinitePoset, {table!r}, prop)
            chain = FinitePoset.chain(3)
            assert chain.{attr}(1, 2) != chain.{route}(0b110)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["verify", "all", "--bounds", {bounds!r},
                      "--format", "json"])
            report = json.loads(out.getvalue())
            interp, = (c for c in report["cases"] if c["case"] == "L-INTERP")
            named = sum("{attr} table sends" in v["problem"]
                        for v in interp["violations"])
            print(report["total_violations"], named)
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        total, named = map(int, out.stdout.split())
        # L-INTERP reads no table itself: check_domain compares the
        # table with its definition on every 3-chain it enumerates
        assert total > 0 and named > 0


def brute_force_completion(lat, pairs, levels):
    """The least of the levels t with o <= join(r, t) for every pair."""
    ok = [t for t in levels
          if all(lat.le(o, lat.join(r, t)) for o, r in pairs)]
    least = [t for t in ok if all(lat.le(t, u) for u in ok)]
    assert len(least) == 1
    return least[0]


class TestLeastCompletion:
    @pytest.mark.parametrize("lat", [
        *(FinitePoset.chain(k) for k in range(1, 5)), FinitePoset.diamond()])
    def test_matches_brute_force_on_finite_lattices(self, lat):
        # every list of up to three pairs
        pairs = list(itertools.product(lat.values(), repeat=2))
        for size in range(4):
            for family in itertools.product(pairs, repeat=size):
                assert least_completion(lat, family) == \
                    brute_force_completion(lat, family, lat.values()), family

    def test_matches_brute_force_on_ext_reals(self):
        grid = [ZERO, Ext.of("1/2"), Ext.of(1), Ext.of(3), INFINITY]
        for family in ([], [(Ext.of(2), Ext.of(3))],
                       [(Ext.of(3), Ext.of(2))],
                       [(INFINITY, Ext.of(5)), (Ext.of(1), ZERO)],
                       [(Ext.of("7/2"), Ext.of(1)), (Ext.of(2), Ext.of(2)),
                        (Ext.of(1), Ext.of(3))]):
            # the least level is bottom or one of the outer values
            levels = sorted({*grid, *(o for o, _ in family)},
                            key=lambda v: (v.is_infinite, v.finite or 0))
            assert least_completion(EXT_REALS, family) == \
                brute_force_completion(EXT_REALS, family, levels), family

    def test_planted_meet_fault_caught(self):
        # the completing levels of (1, 0) are 1 and 2; a meet table
        # sending them to 2 puts the least level outside their filter
        chain = FinitePoset.chain(3)
        rows = [list(row) for row in chain._meets]
        rows[1][2] = rows[2][1] = 2
        chain._meets = tuple(map(tuple, rows))
        with pytest.raises(CrossCheckError):
            least_completion(chain, [(1, 0)])


    @pytest.mark.parametrize("lat,pairs,planted", [
        # the scan finds 1; the residuals, joined to bottom, disagree
        (FinitePoset.chain(3), [(1, 0)], 0),
        # the residuals must complete
        (EXT_REALS, [(Ext.of(3), Ext.of(2))], ZERO),
        # bottom completes, so the residuals must join to bottom
        (EXT_REALS, [(Ext.of(2), Ext.of(3))], INFINITY),
    ])
    def test_planted_residual_fault_caught(self, monkeypatch, lat, pairs,
                                           planted):
        monkeypatch.setattr(order, "join_all", lambda lat, values: planted)
        with pytest.raises(CrossCheckError):
            least_completion(lat, pairs)


class TestJoinContinuity:
    def test_chain(self, chain3):
        # filter {1, 2} has infimum 1
        assert join_continuity(chain3, 2, [1, 2]) == 2

    def test_ext_reals_closed_filter(self):
        filt = RationalFilter(Ext.of(1), True)
        assert join_continuity(EXT_REALS, Ext.of(2), filt) == Ext.of(2)

    def test_ext_reals_open_filter(self):
        filt = RationalFilter(Ext.of(1), False)
        assert join_continuity(EXT_REALS, Ext.of("1/2"), filt) == Ext.of(1)

    def test_non_filter_rejected(self, chain3):
        with pytest.raises(InputError):
            join_continuity(chain3, 0, [0, 2])  # not upward closed

    def test_planted_fault_caught_under_optimization(self):
        # python -O strips asserts; the theorem check must survive it
        script = textwrap.dedent("""
            from maxitive import CrossCheckError, FinitePoset, join_continuity
            P = FinitePoset.chain(3)
            P.inf = lambda values: P.bottom
            try:
                join_continuity(P, 1, [2])
            except CrossCheckError:
                print("caught")
            else:
                print("missed")
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "caught"


class TestSeparatingMap:
    def test_requires_violation(self, chain3):
        with pytest.raises(PreconditionError):
            separating_map(chain3, 0, 2)  # 0 <= 2 cannot be separated

    def test_every_small_lattice(self):
        for n in range(1, 6):
            for lattice in enumerate_lattices(n):
                for s in lattice.values():
                    for t in lattice.values():
                        if lattice.le(s, t):
                            continue
                        phi = separating_map(lattice, s, t)
                        assert phi[s] == Fraction(1)
                        assert phi[t] == Fraction(0)
                        assert separating_map_preserves(lattice, phi)

    def test_map_breaking_a_supremum_rejected(self, chain3):
        # a constant map keeps every infimum; only the supremum of the
        # empty family, the bottom, goes to 1 instead of 0
        one = Fraction(1)
        assert not separating_map_preserves(chain3, {0: one, 1: one, 2: one})

    def test_bitmask_check_matches_rank_oracle(self):
        # seeded maps with three or more values, constant maps, maps
        # with a nonzero bottom and the separating maps themselves, on
        # every poset of at most four elements, bottomless ones included
        rng = random.Random(8)
        levels = [Fraction(k, 2) for k in range(-1, 5)]
        outcomes = set()
        for n in range(5):
            for poset in enumerate_posets(n):
                vals = list(poset.values())
                maps = [dict.fromkeys(vals, c)
                        for c in (Fraction(0), Fraction(1))]
                for _ in range(6):
                    drawn = rng.sample(levels, rng.randint(3, len(levels)))
                    maps.append({v: rng.choice(drawn) for v in vals})
                if poset.has_bottom:
                    for _ in range(2):
                        phi = {v: rng.choice(levels[2:]) for v in vals}
                        phi[poset.bottom] = rng.choice(levels[3:])
                        maps.append(phi)
                maps.extend(separating_map(poset, s, t) for s in vals
                            for t in vals if not poset.le(s, t))
                for phi in maps:
                    got = separating_map_preserves(poset, phi)
                    assert got == _separating_map_preserves_literal(
                        poset, phi), (poset, phi)
                    outcomes.add(got)
        assert outcomes == {True, False}

    def test_planted_bound_target_caught(self):
        # in a child process: the process-wide caches keep lattices, and
        # with them their bound tables, alive across tests
        script = textwrap.dedent("""
            import contextlib, functools, io, json
            from maxitive.cli import main
            from maxitive.order import FinitePoset, separating_map

            build = vars(FinitePoset)["_bound_tables"].func

            def planted(self):
                sups, infs = build(self)
                if sups:
                    # the first supremum moved to the next element
                    (mask, target), *rest = sups
                    sups = ((mask, (target + 1) % self.n), *rest)
                return sups, infs

            prop = functools.cached_property(planted)
            prop.__set_name__(FinitePoset, "_bound_tables")
            FinitePoset._bound_tables = prop
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["verify", "all", "--format", "json"])
            report = json.loads(out.getvalue())
            print(json.dumps({c["case"]: len(c["violations"])
                              for c in report["cases"]}))
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        violations = json.loads(out.stdout.strip().splitlines()[-1])
        assert violations["L-SEP"] > 0


# each value class with a constructor call and its fields, in order
VALUE_CLASSES = [
    (lambda: Ext(Fraction(1, 2)), ("finite",)),
    (lambda: RationalFilter(Ext.of(2), False), ("lower", "closed")),
    (lambda: FinCofinSet.of_points((1, 3)), ("kind", "support")),
    (lambda: TailDensity(FinitePoset.chain(2), {0: 1}, 0, 1),
     ("lattice", "exceptions", "tail", "infinite_mass")),
]


class TestValueClasses:
    @pytest.mark.parametrize("make, fields", VALUE_CLASSES)
    def test_fields_cannot_be_assigned_or_deleted(self, make, fields):
        value = make()
        for name in fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before

    @pytest.mark.parametrize("make, fields", VALUE_CLASSES)
    def test_equal_values_hash_as_their_field_tuple(self, make, fields):
        # set orders under a fixed hash seed feed the report bytes, so
        # the hash stays the one a frozen dataclass computed
        a, b = make(), make()
        key = tuple(getattr(a, name) for name in fields)
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(key)
        assert a != key and key != a

    def test_equal_only_within_the_class(self):
        assert Ext(Fraction(1)) != (Fraction(1),)
        assert Ext(Fraction(1)) != RationalFilter(Ext(Fraction(1)), True)

    def test_open_filter_at_infinity_rejected(self):
        # (inf, inf] is empty; the harness never builds it
        with pytest.raises(InputError, match="not a filter"):
            RationalFilter(INFINITY, False)
        assert RationalFilter(INFINITY, True).contains(INFINITY)


class TestExt:
    def test_parse_forms(self):
        assert Ext.of("inf") == INFINITY
        assert Ext.of("3/2") == Ext(Fraction(3, 2))
        assert Ext.of(2) == Ext(Fraction(2))
        with pytest.raises(InputError):
            Ext.of("three")
        with pytest.raises(InputError):
            Ext.of("-1")
        with pytest.raises(InputError):
            Ext.of(True)
        # Fraction would read an exponent by computing the power
        with pytest.raises(InputError, match="exponent"):
            Ext.of("1e999999999")

    def test_total_order(self):
        vals = [ZERO, Ext.of("1/3"), Ext.of(1), INFINITY]
        for a, b in itertools.combinations(vals, 2):
            assert a < b
        # each comparison against Fraction's, infinity as float inf, on
        # every ordered pair of a grid holding one value written twice
        grid = [Ext.of(x) for x in ("0", "1/3", "1/2", "2/4", "3/5", "1",
                                     "7/3", "inf")]
        for a, b in itertools.product(grid, repeat=2):
            fa, fb = (math.inf if v.finite is None else v.finite
                      for v in (a, b))
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert op(a, b) == op(fa, fb), (op, a, b)

    def test_repr_round_trips(self):
        for v in (ZERO, Ext.of("7/3"), INFINITY):
            assert Ext.of(repr(v)) == v

    def test_sup_and_inf(self):
        assert EXT_REALS.sup([Ext.of(1), Ext.of(2)]) == Ext.of(2)
        assert EXT_REALS.sup([]) == ZERO
        assert EXT_REALS.inf([Ext.of(1), INFINITY]) == Ext.of(1)


class TestEnumeration:
    def test_poset_counts(self):
        # labeled posets: OEIS A001035
        assert [sum(1 for _ in enumerate_posets(n)) for n in range(6)] == \
            [1, 1, 3, 19, 219, 4231]

    def test_pruned_walk_matches_product_oracle(self):
        for n in range(6):
            assert list(enumerate_posets(n)) == \
                [FinitePoset(_ENUM_NAMES[:n], up)
                 for up in _relation_walk_literal(n, (0, 1, 2))]

    def test_preorder_walk_count(self):
        # labeled preorders on five points: OEIS A000798
        assert sum(1 for _ in _relation_walk(5, (0, 1, 2, 3))) == 6942

    def test_lattice_counts_small(self):
        # labeled lattices: n! chains; on four elements also the 12
        # diamonds; on five the 60 + 60 diamonds with a new top or
        # bottom, 20 M3 and 120 N5
        counts = [sum(1 for _ in enumerate_lattices(n)) for n in range(1, 6)]
        assert counts == [1, 2, 6, 36, 380]

    def test_lattices_are_lattices(self):
        for n in range(1, 5):
            for lattice in enumerate_lattices(n):
                assert lattice.is_lattice()

    def test_no_empty_lattice(self):
        with pytest.raises(InputError):
            list(enumerate_lattices(0))
