import functools
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from maxitive import (COUNTABLE, EXT_REALS, CrossCheckError, Ext,
                      FinCofinSet, FinitePoset, InputError, MaxitiveMeasure,
                      PreconditionError, TailDensity, decompose,
                      regular_part, singular_part)
from maxitive import countable
from maxitive.countable import (TAIL, TAIL_FORCED, TAIL_INNER_CLASS,
                                TAIL_TIGHT_CLASS, _cross_check_tail_bits,
                                cached_tail_flags, horizon, is_compact,
                                sample_sets, tail_flags)
from maxitive.harness import Bounds, tail_measure_pool
from maxitive.oracles import (_singleton_cover_literal,
                              _tail_decomposition_literal,
                              _tail_family_pools_literal,
                              _tail_record_literal)
from maxitive.topology import FAMILY_ENUM_LIMIT

TAIL_KEYS = (*TAIL_FORCED, *TAIL_INNER_CLASS, *TAIL_TIGHT_CLASS,
             "upper_compact_density")


@functools.cache
def default_densities():
    """The distinct densities of the tail pool at default bounds."""
    return tuple(dict.fromkeys(
        m.tail for m in tail_measure_pool(Bounds().countable_chain)))


@functools.cache
def oracle_record(td):
    return _tail_record_literal(td)


def chain_grid(points=(0, 1, 2)):
    """Chains of one to four values, with every exception pattern on
    three points, 0, 1 and 2 by default, and every tail and infinite
    mass."""
    for k in range(1, 5):
        chain = FinitePoset.chain(k)
        for *values, tail, mass in itertools.product(range(k), repeat=5):
            yield TailDensity(chain, dict(zip(points, values)), tail, mass)


def extreal_grid(points=(0, 1, 2)):
    """The same patterns over the extended rationals 0, 1/2, 1, inf."""
    levels = ("0", "1/2", "1", "inf")
    for *values, tail, mass in itertools.product(levels, repeat=5):
        yield TailDensity(EXT_REALS, dict(zip(points, values)), tail, mass)


def spread_grid():
    """Both grids with the exceptions on the points 0, 3 and 7, so that
    prefixes of the pool stop between them."""
    yield from chain_grid((0, 3, 7))
    yield from extreal_grid((0, 3, 7))


def bits_of(td):
    """The bits a, z and u tail_flags states its record from."""
    flags = tail_flags(td)
    return {"a": flags["inner"], "z": flags["tight"],
            "u": flags["upper_compact_density"]}


def window(s, horizon=40):
    """The set restricted to {0, ..., horizon-1}, as a Python set."""
    return {x for x in range(horizon) if s.contains(x)}


class TestFinCofinSet:
    def test_construction(self):
        s = FinCofinSet.of_points((3, 1, 1))
        assert s.members() == (1, 3)
        assert not s.is_infinite
        c = FinCofinSet.cofinite((0,))
        assert c.is_infinite and not c.contains(0) and c.contains(7)

    def test_rejects_negatives(self):
        with pytest.raises(InputError):
            FinCofinSet.of_points((-1,))

    def test_rejects_bool_members(self):
        # True == 1 would make {True} equal {1} yet print as {True}
        for kind in ("finite", "cofinite"):
            with pytest.raises(InputError):
                FinCofinSet(kind, frozenset({True}))
        with pytest.raises(InputError):
            FinCofinSet.of_points([False, 2])

    def test_algebra_against_set_oracle(self):
        pool = [FinCofinSet.empty(), FinCofinSet.universe(),
                FinCofinSet.of_points((0, 2)), FinCofinSet.of_points((1,)),
                FinCofinSet.cofinite((0, 1)), FinCofinSet.cofinite((2, 5)),
                FinCofinSet.cofinite((0, 1, 2))]
        for a, b in itertools.product(pool, repeat=2):
            assert window(a.union(b)) == window(a) | window(b)
            meet = a.intersection(b)
            assert window(meet) == window(a) & window(b)
            assert meet.kind == ("cofinite" if a.is_infinite and b.is_infinite
                                 else "finite")
            assert window(a.difference(b)) == window(a) - window(b)
            assert a.issubset(b) == (window(a) <= window(b)
                                     and (b.is_infinite or not a.is_infinite))

    def test_complement_involution(self):
        s = FinCofinSet.of_points((4, 9))
        assert s.complement().complement() == s
        assert s.complement().kind == "cofinite"

    def test_members_of_cofinite_needs_limit(self):
        c = FinCofinSet.cofinite((1,))
        assert c.members(limit=4) == (0, 2, 3, 4)
        with pytest.raises(InputError):
            c.members()

    def test_compactness(self):
        assert is_compact(FinCofinSet.of_points((0, 1)))
        assert not is_compact(FinCofinSet.cofinite(()))
        assert _singleton_cover_literal(FinCofinSet.of_points((0, 5)))


class TestCountableSpace:
    def test_identity_operators(self):
        s = FinCofinSet.cofinite((2,))
        assert COUNTABLE.saturate(s) == s
        assert COUNTABLE.closure(s) == s

    def test_predicates_all_true(self):
        p = COUNTABLE.predicates
        assert p.polish and p.metrizable and p.discrete and p.quasisober


class TestTailDensity:
    def test_requires_chain(self):
        with pytest.raises(PreconditionError):
            TailDensity(FinitePoset.diamond(), {}, 0, 0)

    def test_canonicalization(self, chain2):
        # exceptions equal to the tail disappear; dominated mass drops
        td = TailDensity(chain2, {0: 1, 3: 0}, 0, 0)
        assert td.exceptions == ((0, 1),)
        td2 = TailDensity(chain2, {}, 1, 1)
        assert td2.infinite_mass == 0
        assert td2 == TailDensity(chain2, {5: 1}, 1, 0)

    def test_values(self, chain3):
        td = TailDensity(chain3, {0: 2}, 1, 2)
        assert td.density(0) == 2 and td.density(9) == 1
        assert td.value(FinCofinSet.of_points((0,))) == 2
        assert td.value(FinCofinSet.of_points((3,))) == 1
        assert td.value(FinCofinSet.empty()) == 0
        assert td.value(FinCofinSet.cofinite((0,))) == 2  # mass dominates

    def test_ext_real_values(self):
        td = TailDensity(EXT_REALS, {0: "3/2"}, "1/2", "inf")
        assert td.density(0) == Ext.of("3/2")
        assert td.value(FinCofinSet.cofinite(())) == Ext.of("inf")

    def test_conflicting_duplicates_rejected(self, chain2):
        with pytest.raises(InputError):
            TailDensity(chain2, [(0, 0), (0, 1)], 0, 0)

    def test_rejects_bool_exception_points(self, chain3):
        with pytest.raises(InputError):
            TailDensity(chain3, {True: 2}, 1, 0)

    def test_rejects_bool_values(self, chain3):
        for args in (({0: True}, 0, 0), ({}, True, 0), ({}, 0, False)):
            with pytest.raises(InputError):
                TailDensity(chain3, *args)
            with pytest.raises(InputError):
                TailDensity(EXT_REALS, *args)


class TestTailFlags:
    def test_eta_profile(self, eta):
        flags = tail_flags(eta.tail)
        assert flags["outer"] and flags["weak_outer"] and flags["saturated"]
        assert flags["q_smooth"] and flags["k_smooth"]
        assert not flags["inner"] and not flags["weak_inner"]
        assert not flags["tight"] and not flags["f_smooth"]
        assert not flags["sigma_maxitive"] and not flags["optimal"]
        assert not flags["usc_density_exists"]
        assert flags["upper_compact_density"]

    def test_theta_profile(self, theta):
        flags = tail_flags(theta.tail)
        for name in ("inner", "outer", "regular", "tight", "optimal",
                     "sigma_maxitive", "completely_maxitive"):
            assert flags[name], name
        assert flags["upper_compact_density"]  # the tail value is bottom

    def test_closed_forms_over_grid(self):
        # inner continuity is mass <= tail; tightness is mass join tail = 0
        chain = FinitePoset.chain(3)
        for v0, v1, tail, mass in itertools.product(range(3), repeat=4):
            td = TailDensity(chain, {0: v0, 1: v1}, tail, mass)
            flags = tail_flags(td)
            assert flags["inner"] == (mass <= tail)
            assert flags["sigma_maxitive"] == (mass <= tail)
            assert flags["regular"] == (mass <= tail)
            assert flags["tight"] == (mass == 0 and tail == 0)
            assert flags["optimal"] == flags["tight"]
            assert flags["outer"] and flags["weak_outer"]
            assert flags["saturated"] and flags["q_smooth"]
            assert flags["upper_compact_density"] == (tail == 0)

    def test_far_exception_costs_no_more_than_a_near_one(self):
        # the witnesses must not walk out to the exceptional point; a
        # child process lets the time limit stop a walk that does
        script = textwrap.dedent("""
            from maxitive import FinitePoset, TailDensity
            from maxitive.countable import tail_flags
            chain = FinitePoset.chain(3)
            far = tail_flags(TailDensity(chain, {300000: 2}, 0, 1))
            near = tail_flags(TailDensity(chain, {2: 2}, 0, 1))
            print(far == near)
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=20)
        assert out.stdout.strip() == "True"

    def test_cache_returns_same_object(self, eta, chain3):
        assert cached_tail_flags(eta.tail) is cached_tail_flags(eta.tail)
        # densities that differ only in point names share one record
        assert (cached_tail_flags(TailDensity(chain3, {7: 2}, 0, 1))
                is cached_tail_flags(TailDensity(chain3, {0: 2}, 0, 1)))

    @pytest.mark.parametrize("flag", TAIL_KEYS)
    def test_witnessed_flag_stated_wrong_is_caught(self, flag):
        # each key, stated wrong, disagrees with the literal oracle on
        # every density of the default pool
        assert len(default_densities()) == 227
        for td in default_densities():
            flags = tail_flags(td)
            assert (not flags[flag]) != oracle_record(td)[flag], td

    @pytest.mark.parametrize("bit", ["a", "z", "u"])
    def test_flipped_bit_is_caught(self, bit):
        # each bit, flipped, fails its witness on every density of the
        # default pool
        for td in default_densities():
            bits = bits_of(td)
            with pytest.raises(CrossCheckError):
                _cross_check_tail_bits(td.relabeled,
                                       **{**bits, bit: not bits[bit]})

    def test_witness_cost_is_linear_in_the_exceptions(self, chain3,
                                                      monkeypatch):
        # the value calls of the witnesses grow with the pool, not with
        # its square
        calls = []
        value = TailDensity.value

        def counted(self, s):
            calls.append(s)
            return value(self, s)

        monkeypatch.setattr(TailDensity, "value", counted)
        counts = []
        for n in (50, 200):
            calls.clear()
            tail_flags(TailDensity(chain3, {x: x % 2 * 2 for x in range(n)},
                                   1, 2))
            counts.append(len(calls))
        assert 0 < counts[1] <= 5 * counts[0], counts


class TestStatedRecordAgainstOracle:
    """tail_flags states the record from two bits; the oracle computes
    each key from its definition, on family pools enumerated in full."""

    @pytest.mark.parametrize("grid, size", [(chain_grid, 1300),
                                            (extreal_grid, 1024)],
                             ids=["chains", "extreal"])
    def test_every_key_on_the_grid(self, grid, size):
        densities = list(grid())
        assert len(densities) == size
        for td in dict.fromkeys(densities):
            finite = [b for b in td.pool if b.kind == "finite" and b.support]
            assert len(finite) <= FAMILY_ENUM_LIMIT, td
            assert _tail_family_pools_literal(td)[1], td
            stated, literal = tail_flags(td), _tail_record_literal(td)
            assert stated.keys() == literal.keys()
            for key in TAIL_KEYS:
                assert stated[key] == literal[key], (td, key)


class TestStatedPartsAgainstOracle:
    """TailBackend states the regular and singular parts; the oracle
    computes each at every pool set from its definition."""

    @pytest.mark.parametrize("grid, size, distinct",
                             [(chain_grid, 1300, 827),
                              (extreal_grid, 1024, 640),
                              (spread_grid, 2324, 1467)],
                             ids=["chains", "extreal", "spread"])
    def test_both_parts_on_the_grid(self, grid, size, distinct):
        densities = list(grid())
        assert (len(densities), len(set(densities))) == (size, distinct)
        for td in dict.fromkeys(densities):
            measure = MaxitiveMeasure.from_tail(td)
            stated = (regular_part(measure), singular_part(measure))
            assert tuple(tuple(map(part.value, td.pool))
                         for part in stated) == \
                _tail_decomposition_literal(td), td

    def test_oracle_completes_off_the_pool(self, chain3):
        # every infinite pool subset of ~{0} contains the exceptional
        # point 7, so the pool alone completes at 0 there; ~{0, 7}
        # needs the mass
        td = TailDensity(chain3, {7: 2}, 0, 1)
        at = td.pool.index(FinCofinSet.cofinite((0,)))
        assert all(7 not in a.support for a in td.pool
                   if a.is_infinite and a.issubset(td.pool[at]))
        assert _tail_decomposition_literal(td)[1][at] == 1

    def test_decompose_cost_is_linear_in_the_exceptions(self, monkeypatch):
        # the subset tests of one decompose grow with the pool, not
        # with its square
        calls = []
        issubset = FinCofinSet.issubset

        def counted(self, other):
            calls.append(other)
            return issubset(self, other)

        monkeypatch.setattr(FinCofinSet, "issubset", counted)
        chain4 = FinitePoset.chain(4)
        counts = []
        for n in (50, 200):
            td = TailDensity(chain4, {x: x % 3 + 1 for x in range(n)}, 2, 3)
            decompose.cache_clear()
            calls.clear()
            assert decompose(MaxitiveMeasure.from_tail(td)).ok
            counts.append(len(calls))
        assert counts[1] <= 5 * counts[0], counts

    def test_reach_ignores_where_the_exceptions_lie(self, monkeypatch,
                                                    chain3):
        # the witnesses of the regular part and of the singleton cover
        # reach the exceptional points and a fixed number of plain ones,
        # not every natural up to the farthest exceptional point
        built = []
        init = FinCofinSet.__init__

        def counted(self, kind, support):
            built.append(len(support))
            init(self, kind, support)

        td = TailDensity(chain3, {10**6: 2}, 1, 2)
        m = MaxitiveMeasure.from_tail(td)
        monkeypatch.setattr(FinCofinSet, "__init__", counted)
        decompose.cache_clear()
        assert decompose(m).ok
        assert TAIL.opens_distribute(m) is False
        assert max(built) <= len(td.points) + 50
        assert len(built) <= 200, len(built)


class TestSampleSets:
    def test_pool_shape(self, rho):
        pool = sample_sets(rho.tail)
        assert FinCofinSet.empty() in pool
        assert FinCofinSet.universe() in pool
        assert any(s.kind == "cofinite" for s in pool)
        assert any(s.kind == "finite" and not s.is_empty for s in pool)
        assert len(pool) == len(set(pool))


def _literal_value(td, s):
    """The value read point by point: the join of the densities of the
    members of s up to the horizon, which reaches past every exceptional
    point and so to a plain member of a cofinite set, each density found
    by scanning the exceptions, joined with the infinite mass on a
    cofinite set."""
    lat = td.lattice
    v = lat.bottom
    for x in s.members(limit=horizon(td)):
        v = lat.join(v, next((e for p, e in td.exceptions if p == x),
                             td.tail))
    if s.is_infinite:
        v = lat.join(v, td.infinite_mass)
    return v


class TestValueOracle:
    def test_value_matches_pointwise_literal(self):
        far = (FinCofinSet.of_points((10**6,)),
               FinCofinSet.of_points((0, 10**6)),
               FinCofinSet.of_points(range(60, 70)),
               FinCofinSet.cofinite((10**6,)),
               FinCofinSet.cofinite((0, 1, 10**6)),
               FinCofinSet.cofinite(range(70)))
        checked = 0
        for m in tail_measure_pool(Bounds().countable_chain):
            td = m.tail
            sets = [*td.pool, *far]
            members = td.free.members(limit=horizon(td))
            sets += [FinCofinSet.of_points(members[:k])
                     for k in range(1, len(members) + 1)]
            for s in td.pool:
                head = s.members(limit=7)
                sets += [FinCofinSet.of_points(head[:k]) for k in range(1, 8)]
            for s in sets:
                assert td.value(s) == _literal_value(td, s), (td, s)
                checked += 1
        assert checked > 10000

    def test_far_exception(self, chain3):
        # the horizon, and with it the literal walk, reaches past 5000
        td = TailDensity(chain3, {5000: 2, 3: 0}, 1, 2)
        for s in (FinCofinSet.of_points((5000,)),
                  FinCofinSet.of_points((3,)),
                  FinCofinSet.of_points((3, 5000)),
                  FinCofinSet.of_points((3, 4)),
                  FinCofinSet.cofinite((5000,)),
                  FinCofinSet.cofinite(range(10)),
                  FinCofinSet.empty()):
            assert td.value(s) == _literal_value(td, s), s


class TestPlantedRouteFaults:
    """Faults planted in the set-at-once evaluation route, each in a
    child process, since the process-wide caches keep densities and
    their tables alive; verify all must report violations."""

    @pytest.mark.parametrize("plant", [
        # one exceptional point left out of the key set
        """
        keys = vars(TailDensity)["exception_keys"].func
        prop = functools.cached_property(
            lambda self: frozenset(sorted(keys(self))[1:]))
        prop.__set_name__(TailDensity, "exception_keys")
        TailDensity.exception_keys = prop
        """,
        # the tail joined even when every member of a finite set is
        # exceptional
        """
        sup = TailDensity.sup_density

        def planted(self, s):
            v = sup(self, s)
            if s.kind == "finite" and s.support <= self.exception_keys:
                v = self.lattice.join(v, self.tail)
            return v

        TailDensity.sup_density = planted
        """,
    ], ids=["key-left-out", "tail-on-exceptional-set"])
    def test_caught_by_verify(self, plant):
        script = textwrap.dedent("""
            import contextlib, functools, io, json
            from maxitive.cli import main
            from maxitive.countable import TailDensity
        """) + textwrap.dedent(plant) + textwrap.dedent("""
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["verify", "all", "--format", "json"])
            print(json.loads(out.getvalue())["total_violations"])
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=300)
        assert int(out.stdout.strip().splitlines()[-1]) > 0


class TestPoolTables:
    def test_tables_built_once_per_density(self, monkeypatch):
        built = []
        for name in ("pool", "pool_values"):
            def counted(self, build=vars(TailDensity)[name].func, name=name):
                built.append((name, self))
                return build(self)
            prop = functools.cached_property(counted)
            prop.__set_name__(TailDensity, name)
            monkeypatch.setattr(TailDensity, name, prop)
        # exceptions off the harness grid, so no cache holds the measure,
        # and off 0, 1, ..., so tail_flags works on a relabeled copy
        args = (FinitePoset.chain(4), {2: 3, 5: 1}, 2, 3)
        td = TailDensity(*args)
        measure = MaxitiveMeasure.from_tail(td)
        tail_flags(td)
        assert {obj for _, obj in built} == {td.relabeled}
        TAIL.opens_distribute(measure)
        decompose(measure)
        count = len(built)
        # the same density again, and decompose on an equal one
        tail_flags(td)
        TAIL.opens_distribute(measure)
        decompose(measure)
        decompose(MaxitiveMeasure.from_tail(TailDensity(*args)))
        assert len(built) == count
        # every table was built once on its own density object
        keys = [(name, id(obj)) for name, obj in built]
        assert len(keys) == len(set(keys))
        assert {name for name, obj in built if obj is td} == \
            {"pool", "pool_values"}

    def test_decompose_builds_one_pool(self, monkeypatch):
        # the regular part keeps the exceptional points, which are all
        # sample_sets reads, so it takes the density's pool; a fresh
        # 50-exception density with its mass above the tail, so the
        # regular part is a new density
        built = []

        def counted(td, build=countable.sample_sets):
            built.append(td)
            return build(td)
        monkeypatch.setattr(countable, "sample_sets", counted)
        td = TailDensity(FinitePoset.chain(4),
                         {x: 1 + 2 * (x % 2) for x in range(50)}, 2, 3)
        assert len(td.exceptions) == 50
        dec = decompose(MaxitiveMeasure.from_tail(td))
        assert dec.regular.tail.infinite_mass == 0
        assert built == [td]

    def test_table_matches_sample_sets(self, rho):
        td = rho.tail
        assert td.pool == sample_sets(td)
        assert td.pool_values == tuple(map(td.value, sample_sets(td)))

    def test_planted_table_fault_caught_by_each_reader(self, chain3):
        # the mass stays below the tail, so the measure is its own
        # regular part and distributes over unions of opens
        td = TailDensity(chain3, {0: 2}, 1, 0)
        measure = MaxitiveMeasure.from_tail(td)
        assert td.relabeled is td and TAIL.opens_distribute(measure)
        # a finite pool set valued above its true value
        values = list(td.pool_values)
        plain = td.pool.index(FinCofinSet.of_points((1, 2, 3)))
        assert values[plain] == 1
        values[plain] = 2
        td.__dict__["pool_values"] = tuple(values)
        with pytest.raises(CrossCheckError):
            tail_flags(td)
        assert not TAIL.opens_distribute(measure)
        with pytest.raises(CrossCheckError):
            regular_part(measure)
        with pytest.raises(CrossCheckError):
            singular_part(measure)

    def test_planted_table_fault_caught_by_verify(self):
        # in a child process: the process-wide caches keep densities,
        # and with them their tables, alive across tests
        script = textwrap.dedent("""
            import contextlib, functools, io, json
            from maxitive.cli import main
            from maxitive.countable import FinCofinSet, TailDensity

            build = vars(TailDensity)["pool_values"].func

            def planted(self):
                values = list(build(self))
                values[self.pool.index(FinCofinSet.universe())] = \
                    self.lattice.bottom
                return tuple(values)

            prop = functools.cached_property(planted)
            prop.__set_name__(TailDensity, "pool_values")
            TailDensity.pool_values = prop
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["verify", "all", "--format", "json"])
            print(json.loads(out.getvalue())["total_violations"])
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert int(out.stdout.strip().splitlines()[-1]) > 0
