"""Acceptance suite: one test per criterion, each emitting a single
PASS/FAIL line outside the capture machinery so the lines always show.

Criteria with a stated wall-clock budget assert it; the others just
report their elapsed time.
"""

import itertools
import json
import time
from contextlib import contextmanager

from maxitive.cli import main
from maxitive.countable import TailDensity, tail_flags
from maxitive.decomposition import decompose, minimality_brute_force, residual
from maxitive.harness import Bounds, measure_instances, run_theorem
from maxitive.measure import FINITE, MaxitiveMeasure
from maxitive.oracles import _way_above_filter_literal
from maxitive.order import FinitePoset, enumerate_posets
from maxitive.topology import (analysis, enumerate_topologies,
                               hofmann_mislove_check)


@contextmanager
def criterion(capsys, n, text, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(
                f"criterion-{n} took {dt:.1f}s, budget {budget}s")
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion-{n}: {text}")
        raise
    with capsys.disabled():
        print(f"PASS criterion-{n}: {text} ({dt:.1f}s)")


def test_criterion_01_way_above_oracle(capsys):
    with criterion(capsys, 1, "way-above fast rule matches the filter "
                   "oracle on all posets with at most 4 elements",
                   budget=60):
        pairs = 0
        for n in range(5):
            for p in enumerate_posets(n):
                for s in p.values():
                    for r in p.values():
                        assert p.way_above(s, r) == \
                            _way_above_filter_literal(p, s, r)
                        pairs += 1
        assert pairs == sum((0, 1 * 1, 3 * 4, 19 * 9, 219 * 16))


def test_criterion_02_topology_counts(capsys):
    with criterion(capsys, 2, "topology enumeration counts 1, 1, 4, 29, 355",
                   budget=60):
        assert [sum(1 for _ in enumerate_topologies(n))
                for n in range(5)] == [1, 1, 4, 29, 355]


def test_criterion_03_hofmann_mislove(capsys):
    with criterion(capsys, 3, "compact saturated families pass the "
                   "closure and escape checks on all spaces with at "
                   "most 3 points", budget=60):
        checked = 0
        for n in range(4):
            for space in enumerate_topologies(n):
                report = hofmann_mislove_check(space)
                assert report.ok, space
                checked += 1
        assert checked == 1 + 1 + 4 + 29


def test_criterion_04_t0_reflection(capsys):
    with criterion(capsys, 4, "T0 reflection is a Borel bijection with "
                   "unique continuous factorizations on all spaces "
                   "with at most 3 points"):
        res = run_theorem("T-T0", Bounds())
        assert res.violations == ()
        assert res.instances == 35 and res.vacuous < res.instances


def test_criterion_05_regularity_equivalences(capsys):
    with criterion(capsys, 5, "the regularity equivalence block holds on "
                   "every instance", budget=300):
        res = run_theorem("T-REG", Bounds())
        assert res.violations == ()
        finite = [m for m in measure_instances(Bounds())
                  if m.backend is FINITE]
        assert len(finite) == 873
        assert res.instances == 1227 and res.vacuous < res.instances


def test_criterion_06_tight_regularity_and_tension(capsys):
    with criterion(capsys, 6, "tight regularity and the tension "
                   "equivalences hold on both grids; an upper-compact "
                   "density does not force tightness without weak "
                   "inner-continuity", budget=300):
        for case_id in ("T-REGTIGHT", "P-TENSIONEQ"):
            res = run_theorem(case_id, Bounds())
            assert res.violations == (), case_id
            assert res.vacuous < res.instances
        tails = [m for m in measure_instances(Bounds())
                 if m.backend is not FINITE]
        assert len(tails) == sum(k ** 4 for k in range(1, 5))
        eta = MaxitiveMeasure.from_tail(
            TailDensity(FinitePoset.chain(2), {}, 0, 1))
        record = eta.classify()
        assert eta.upper_density().upper_compact
        assert not record.weak_inner and not record.tight


def test_criterion_07_decomposition(capsys):
    with criterion(capsys, 7, "outer = regular joined with singular on "
                   "every instance, the singular part is least and "
                   "vanishes on atoms, and chain residuals match the "
                   "scan", budget=300):
        for m in measure_instances(Bounds()):
            dec = decompose(m)
            assert dec.identity_holds, m
            assert dec.singular_vanishes_on_compacts, m
            assert dec.singular_of_regular_vanishes, m

        confirmed = 0
        for space in (s for n in range(4) for s in enumerate_topologies(n)):
            atoms = analysis(space).atoms
            if len(atoms) > 3:
                continue
            for size in range(1, 5):
                lat = FinitePoset.chain(size)
                for assign in itertools.product(lat.values(),
                                                repeat=len(atoms)):
                    m = MaxitiveMeasure(space, lat, atom_values=assign)
                    report = minimality_brute_force(m)
                    assert report.checked and report.least, m
                    confirmed += 1
        assert confirmed > 0

        for size in range(1, 7):
            lat = FinitePoset.chain(size)
            for p in lat.values():
                for q in lat.values():
                    sats = [t for t in lat.values()
                            if lat.le(p, lat.join(q, t))]
                    least = sats[0]
                    for t in sats:
                        if lat.le(t, least):
                            least = t
                    assert all(lat.le(least, t) for t in sats)
                    assert residual(lat, p, q) == least


def test_criterion_08_countable_closed_forms(capsys):
    with criterion(capsys, 8, "countable closed forms hold on the "
                   "81-instance grid and the tail fixture is "
                   "maxitive, not sigma-maxitive, and purely "
                   "singular"):
        chain = FinitePoset.chain(3)
        bottom = chain.bottom
        seen = 0
        for v0, v1, tail, mass in itertools.product(range(3), repeat=4):
            m = MaxitiveMeasure.from_tail(
                TailDensity(chain, {0: v0, 1: v1}, tail, mass))
            record = m.classify()
            assert record.sigma_maxitive == chain.le(mass, tail)
            assert record.tight == (chain.join(mass, tail) == bottom)
            if record.f_smooth and record.sigma_maxitive:
                assert record.tight and record.regular
            seen += 1
        assert seen == 81

        eta_tail = TailDensity(FinitePoset.chain(2), {}, 0, 1)
        flags = tail_flags(eta_tail)
        assert flags["maxitive"] and not flags["sigma_maxitive"]
        eta = MaxitiveMeasure.from_tail(eta_tail)
        assert decompose(eta).is_purely_singular()


def test_criterion_09_separating_maps(capsys):
    with criterion(capsys, 9, "separating maps exist, separate, and "
                   "preserve suprema and filtered infima on all "
                   "lattices with at most 5 elements"):
        res = run_theorem("L-SEP", Bounds())
        assert res.violations == () and res.vacuous < res.instances


def test_criterion_10_determinism(capsys):
    with criterion(capsys, 10, "repeated full verification runs with the "
                   "same bounds and seed emit byte-identical "
                   "reports"):
        outputs = []
        for _ in range(2):
            code = main(["verify", "all", "--format", "json"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["total_violations"] == 0
        assert len(payload["cases"]) == 29
