import itertools

import pytest

from maxitive import (EXT_REALS, CrossCheckError, Ext, FinCofinSet,
                      FinitePoset, FiniteSpace, MaxitiveMeasure,
                      PreconditionError, TailDensity, analysis, decompose,
                      enumerate_topologies, minimality_brute_force,
                      regular_part, residual, singular_part)
from maxitive import decomposition
from maxitive.harness import Bounds, measure_instances
from maxitive.measure import FINITE
from maxitive.oracles import _least_completion_literal


def scan_residual(k, p, q):
    """Least t on the chain 0 < ... < k-1 with p <= max(q, t)."""
    for t in range(k):
        if p <= max(q, t):
            return t
    raise AssertionError("chain join is total")


class TestResidual:
    def test_matches_scan_on_all_chains(self):
        for k in range(1, 5):
            chain = FinitePoset.chain(k)
            for p in range(k):
                for q in range(k):
                    assert residual(chain, p, q) == scan_residual(k, p, q)

    def test_ext_reals(self):
        assert residual(EXT_REALS, Ext.of(2), Ext.of(3)) == Ext.of(0)
        assert residual(EXT_REALS, Ext.of(3), Ext.of(2)) == Ext.of(3)
        assert residual(EXT_REALS, Ext.of("inf"), Ext.of(5)) == Ext.of("inf")

    def test_needs_chain(self):
        with pytest.raises(PreconditionError):
            residual(FinitePoset.diamond(), 1, 2)


class TestRegularPart:
    def test_mu1(self, mu1):
        reg = regular_part(mu1)
        assert reg.atom_values == (1, 1)
        assert reg == mu1.outer_regularization()

    def test_idempotent_everywhere_small(self):
        from maxitive.topology import enumerate_topologies
        chain = FinitePoset.chain(2)
        for space in enumerate_topologies(2):
            an = analysis(space)
            for assign in itertools.product(range(2), repeat=len(an.atoms)):
                m = MaxitiveMeasure(space, chain, atom_values=assign)
                reg = regular_part(m)
                assert regular_part(reg) == reg

    def test_eta_regular_part_vanishes(self, eta):
        reg = regular_part(eta)
        assert reg.tail == TailDensity(eta.lattice, {}, 0, 0)

    def test_rho(self, rho):
        reg = regular_part(rho)
        assert reg.tail == TailDensity(rho.lattice, {0: 2}, 1, 0)


class TestSingularPart:
    def test_mu1_vanishes(self, mu1):
        sing = singular_part(mu1)
        assert sing == decompose(mu1).singular
        assert decompose(mu1).is_regular_measure()

    def test_eta_purely_singular(self, eta):
        sing = singular_part(eta)
        assert sing == eta

    def test_theta_vanishes(self, theta):
        assert singular_part(theta) == decompose(theta).singular
        assert decompose(theta).is_regular_measure()

    def test_rho_mass(self, rho):
        sing = singular_part(rho)
        assert sing.tail == TailDensity(rho.lattice, {}, 0, 2)
        assert sing.value(FinCofinSet.of_points((0, 1, 2))) == 0
        assert sing.value(FinCofinSet.cofinite((0,))) == 2

    def test_regular_part_below_outer_reads_subsets(self):
        # with a regular part other than the outer regularization, the
        # level at {x, y} is set by its subset {x}, not by its own pair
        lat = FinitePoset.chain(3)
        space = FiniteSpace.discrete("xy")
        m = MaxitiveMeasure(space, lat, atom_values=(2, 0))
        reg = MaxitiveMeasure(space, lat, atom_values=(0, 2))
        sing = _least_completion_literal(m, reg)
        assert {b: sing.value(b) for b in sing.sets()} == \
            {0: 0, 1: 2, 2: 0, 3: 2}

    def test_matches_least_completing_measure(self):
        # on every space of at most two points, for every pair of
        # chain-3 measures, the level scan gives the least measure s
        # with outer <= reg join s on every Borel set
        lat = FinitePoset.chain(3)
        for space in (s for n in range(3) for s in enumerate_topologies(n)):
            k = len(analysis(space).atoms)
            measures = [MaxitiveMeasure(space, lat, atom_values=v)
                        for v in itertools.product(lat.values(), repeat=k)]
            for m, reg in itertools.product(measures, repeat=2):
                completing = [
                    s for s in measures
                    if all(lat.le(m.outer_value(b),
                                  lat.join(reg.value(b), s.value(b)))
                           for b in m.sets())]
                least = [s for s in completing
                         if all(lat.le(s.value(b), t.value(b))
                                for t in completing for b in m.sets())]
                assert least == [_least_completion_literal(m, reg)], (m, reg)

    def test_non_distributive_rejected(self):
        space = FiniteSpace.discrete(("x",))
        for lat in (FinitePoset.pentagon(), FinitePoset.m3()):
            m = MaxitiveMeasure(space, lat, atom_values=(lat.index("1"),))
            regular_part(m)  # continuity and completeness suffice here
            with pytest.raises(PreconditionError):
                singular_part(m)


class TestDecompose:
    def test_identity_on_fixtures(self, mu1, mu2, eta, theta, rho):
        for m in (mu1, mu2, eta, theta, rho):
            dec = decompose(m)
            assert dec.ok
            lat = m.lattice
            if m.backend is FINITE:
                domain = analysis(m.space).borel_masks
            else:
                from maxitive.countable import sample_sets
                domain = sample_sets(m.tail)
            for b in domain:
                assert dec.outer.value(b) == lat.join(dec.regular.value(b),
                                                      dec.singular.value(b))

    def test_classifications(self, mu2, eta, rho):
        assert decompose(mu2).is_regular_measure()
        assert decompose(eta).is_purely_singular()
        d = decompose(rho)
        assert not d.is_regular_measure() and not d.is_purely_singular()

    def test_cached(self, rho):
        assert decompose(rho) is decompose(rho)

    @pytest.mark.parametrize("fixture", ["mu1", "rho"])
    def test_two_regular_parts_per_measure(self, fixture, request,
                                           monkeypatch):
        # the measure's and its regular part's; the singular part of
        # the regular part reuses the second
        m = request.getfixturevalue(fixture)
        calls = []
        monkeypatch.setattr(decomposition, "regular_part",
                            lambda measure: calls.append(measure)
                            or regular_part(measure))
        decompose.cache_clear()
        dec = decompose(m)
        assert calls == [m, dec.regular]

    def test_ext_real_decomposition(self, sier):
        m = MaxitiveMeasure.from_density(sier, EXT_REALS,
                                         {"a": "1/2", "b": "2"})
        dec = decompose(m)
        assert dec.ok
        assert dec.regular == m.outer_regularization()
        assert dec.is_regular_measure()


class TestMinimality:
    def test_finite_fixtures_least(self, mu1, mu2):
        for m in (mu1, mu2):
            rep = minimality_brute_force(m)
            assert rep.checked and rep.least
            assert rep.candidates > 0

    def test_countable_fixtures_least(self, eta, theta, rho):
        for m in (eta, theta, rho):
            rep = minimality_brute_force(m)
            assert rep.checked and rep.least

    def test_ext_reals_not_scanned(self, sier):
        m = MaxitiveMeasure.from_density(sier, EXT_REALS, {"b": "1"})
        rep = minimality_brute_force(m)
        assert not rep.checked

    def test_misaligned_vectors_raise(self, monkeypatch, mu1, rho):
        # the singular part of rho is nonzero on the cofinite pool sets,
        # so reversed vectors no longer contain it
        backend = type(rho.backend)
        listed = backend.minimality_candidates
        monkeypatch.setattr(backend, "minimality_candidates",
                            lambda self, m: (v[::-1] for v in listed(self, m)))
        with pytest.raises(CrossCheckError):
            minimality_brute_force(rho)
        # empty vectors complete vacuously on either backend
        for m in (mu1, rho):
            monkeypatch.setattr(type(m.backend), "minimality_candidates",
                                lambda self, m: (() for _ in range(3)))
            with pytest.raises(CrossCheckError):
                minimality_brute_force(m)

    def test_larger_completion_is_not_least(self, mu1, rho):
        # the outer regularization completes too, and lies strictly
        # above the singular part, which is itself a candidate
        for m in (mu1, rho):
            dec = decompose(m)
            assert dec.outer != dec.singular
            rep = minimality_brute_force(
                m, dec._replace(singular=dec.outer))
            assert rep.checked and not rep.least

    def test_matches_one_measure_per_candidate_oracle(self):
        pool = measure_instances(Bounds(max_points=2, max_lattice=3))
        kinds = set()
        for m in pool:
            rep = minimality_brute_force(m)
            assert (rep.checked, rep.least, rep.candidates) == \
                _minimality_one_measure_per_candidate(m), m
            kinds.add(m.tail is None)
        assert kinds == {True, False}


def _minimality_one_measure_per_candidate(measure):
    """The literal brute force: one measure per candidate, each read
    set by set through MaxitiveMeasure.value."""
    lat = measure.lattice
    dec = decompose(measure)
    outer, reg, sing = dec.outer, dec.regular, dec.singular
    if measure.tail is None:
        atoms = analysis(measure.space).atoms
        candidates = (MaxitiveMeasure(measure.space, lat, atom_values=assign)
                      for assign in itertools.product(lat.values(),
                                                      repeat=len(atoms)))
    else:
        points = measure.tail.points
        candidates = (MaxitiveMeasure.from_tail(TailDensity(
                          lat, dict(zip(points, combo)), combo[-2], combo[-1]))
                      for combo in itertools.product(lat.values(),
                                                     repeat=len(points) + 2))
    domain = measure.sets()
    count = 0
    least = True
    for tau in candidates:
        if all(outer.value(b) == lat.join(reg.value(b), tau.value(b))
               for b in domain):
            count += 1
            if not all(lat.le(sing.value(b), tau.value(b)) for b in domain):
                least = False
    return True, least, count
