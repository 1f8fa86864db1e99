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
from maxitive.countable import (cached_tail_flags, is_compact, sample_sets,
                                singleton_cover_check, tail_flags)
from maxitive.harness import _eqo_literal


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
        assert singleton_cover_check(FinCofinSet.of_points((0, 5)))


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

    def test_cache_returns_same_object(self, eta):
        assert cached_tail_flags(eta.tail) is cached_tail_flags(eta.tail)


class TestSampleSets:
    def test_pool_shape(self, rho):
        pool = sample_sets(rho.tail)
        assert FinCofinSet.empty() in pool
        assert FinCofinSet.universe() in pool
        assert any(s.kind == "cofinite" for s in pool)
        assert any(s.kind == "finite" and not s.is_empty for s in pool)
        assert len(pool) == len(set(pool))


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
        _eqo_literal(measure)
        decompose(measure)
        count = len(built)
        # the same density again, and decompose on an equal one
        tail_flags(td)
        _eqo_literal(measure)
        decompose(measure)
        decompose(MaxitiveMeasure.from_tail(TailDensity(*args)))
        assert len(built) == count
        # every table was built once on its own density object
        keys = [(name, id(obj)) for name, obj in built]
        assert len(keys) == len(set(keys))
        assert {name for name, obj in built if obj is td} == \
            {"pool", "pool_values"}

    def test_table_matches_sample_sets(self, rho):
        td = rho.tail
        assert td.pool == sample_sets(td)
        assert td.pool_values == tuple(map(td.value, sample_sets(td)))

    def test_planted_table_fault_caught_by_each_reader(self, chain3):
        # the mass stays below the tail, so the measure is its own
        # regular part and distributes over unions of opens
        td = TailDensity(chain3, {0: 2}, 1, 0)
        measure = MaxitiveMeasure.from_tail(td)
        assert td.relabeled is td and _eqo_literal(measure)
        # a finite pool set valued above its true value
        values = list(td.pool_values)
        plain = td.pool.index(FinCofinSet.of_points((1, 2, 3)))
        assert values[plain] == 1
        values[plain] = 2
        td.__dict__["pool_values"] = tuple(values)
        with pytest.raises(CrossCheckError):
            tail_flags(td)
        assert not _eqo_literal(measure)
        with pytest.raises(CrossCheckError):
            regular_part(measure)
        unplanted = TailDensity(chain3, {0: 2}, 1, 0)
        with pytest.raises(CrossCheckError):
            singular_part(measure,
                          regular=MaxitiveMeasure.from_tail(unplanted))

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
