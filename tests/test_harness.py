import functools
import json
from types import SimpleNamespace

import pytest

from maxitive import countable, decomposition, harness, measure, order
from maxitive import (BudgetError, Bounds, CASES, CrossCheckError,
                      FinitePoset, FiniteSpace, InputError,
                      run_all, run_theorem, search_counterexample)
from maxitive.cli import main
from maxitive.countable import TAIL, TailBackend, TailDensity
from maxitive.decomposition import decompose
from maxitive.harness import (_domain_gate, _measure_case, measure_instances,
                              run_case)
from maxitive.measure import FINITE, ClassificationRecord, FiniteBackend

SMALL = Bounds(max_points=2, max_lattice=2, countable_chain=2)


class TestRegistry:
    def test_exactly_the_registered_cases(self):
        assert len(CASES) == 29
        assert len({c.id for c in CASES}) == 29
        backends = {c.backends for c in CASES}
        assert backends == {("order",), ("finite",), ("finite", "countable")}

    def test_descriptions_present(self):
        for case in CASES:
            assert case.description.strip()


class TestRunning:
    def test_single_case(self):
        res = run_theorem("P-OPT", SMALL)
        assert res.case_id == "P-OPT"
        assert res.violations == ()
        assert res.instances == len(measure_instances(SMALL))

    def test_unknown_case(self):
        with pytest.raises(InputError):
            run_theorem("T-NOPE", SMALL)

    def test_bounds_validated(self):
        with pytest.raises(BudgetError):
            run_theorem("P-OPT", Bounds(max_points=9))

    def test_full_run_clean_and_deterministic(self):
        first = run_all(SMALL)
        assert first.total_violations == 0
        assert {r.case_id for r in first.results} == {c.id for c in CASES}
        second = run_all(SMALL)
        assert first.to_json() == second.to_json()

    def test_every_case_nonvacuous_somewhere(self):
        report = run_all(SMALL)
        for r in report.results:
            assert r.vacuous < r.instances, r.case_id

    def test_planted_borel_fault_caught(self, monkeypatch):
        # a Borel algebra that splits the class of the indiscrete
        # two-point space must be reported, not trusted
        analysis = harness.analysis
        indiscrete = FiniteSpace.indiscrete(("a", "b"))

        def planted(space):
            if space == indiscrete:
                return SimpleNamespace(borel=SimpleNamespace(
                    atoms=(0b01, 0b10), atom_of_point=(0, 1),
                    sets=(0, 0b01, 0b10, 0b11)))
            return analysis(space)
        monkeypatch.setattr(harness, "analysis", planted)
        res = run_theorem("C-TILDE", SMALL)
        assert res.violations
        assert {dict(v)["instance"] for v in res.violations} == \
            {repr(indiscrete)}

    def test_negated_saturation_bit_caught_by_reg0(self, monkeypatch):
        # a finite record states weak_outer from the saturation bit, and
        # L-REG0's pointwise form is its second route: a wrong bit is
        # reported on every finite measure
        saturated = measure._saturated
        monkeypatch.setattr(measure, "_saturated",
                            lambda m: not saturated(m))
        measure._classify.cache_clear()
        try:
            res = run_theorem("L-REG0", SMALL)
        finally:
            measure._classify.cache_clear()
        finite = [m for m in measure_instances(SMALL)
                  if m.backend is measure.FINITE]
        assert finite and len(res.violations) == len(finite)
        assert {dict(v)["problem"] for v in res.violations} == \
            {"weak outer-continuity must match the pointwise form"}

    @pytest.mark.parametrize("cls, planted", [(FiniteBackend, 59),
                                               (TailBackend, 354)],
                             ids=["finite", "tail"])
    def test_false_k_smooth_caught_by_nuplus(self, monkeypatch, cls,
                                             planted):
        # k_smooth is the premise of one arm only, so E-NUPLUS ties it
        # to q_smooth: on a T1 space, the discrete finite ones and the
        # countable one, a false k_smooth is reported on every measure
        classify = cls.classify
        monkeypatch.setattr(cls, "classify", lambda self, m: {
            **classify(self, m), "k_smooth": False})
        measure._classify.cache_clear()
        try:
            res = run_theorem("E-NUPLUS")
        finally:
            measure._classify.cache_clear()
        t1 = [m for m in measure_instances(Bounds())
              if isinstance(m.backend, cls) and m.space.predicates.t1]
        assert len(res.violations) == len(t1) == planted
        assert {dict(v)["problem"] for v in res.violations} == \
            {"on a T1 space, smoothness on compact and on compact "
             "saturated families must agree"}

    def test_cycling_regular_parts_are_violations(self, monkeypatch):
        # a planted regular part that makes two measures each other's
        # regular part is reported on both, and reading the checks on
        # the regular part does not recurse without end
        pool = measure_instances(SMALL)
        a, b = (m for m in pool if m.backend is measure.FINITE
                and m.space.n == 1 and m.lattice.n == 2)
        swapped = {a: b, b: a}
        regular_part = decomposition.regular_part
        monkeypatch.setattr(decomposition, "regular_part",
                            lambda m: swapped[m] if m in swapped
                            else regular_part(m))
        decompose.cache_clear()
        try:
            res = run_theorem("D-REGPART", SMALL)
        finally:
            decompose.cache_clear()
        assert {dict(v)["instance"] for v in res.violations} == \
            {f"#{i} {m!r}" for i, m in enumerate(pool) if m in swapped}


    @pytest.mark.parametrize("case_id,target,name", [
        ("T-HM", FiniteSpace.sierpinski(), "hofmann_mislove_check"),
        ("L-INTERP", FinitePoset(("a", "b"), (0b11, 0b10)), "check_domain"),
    ])
    def test_planted_error_is_a_violation(self, monkeypatch, capsys,
                                          case_id, target, name):
        # an error raised on one space or poset is reported against it,
        # and the run still writes its report
        original = getattr(harness, name)

        def planted(instance):
            if instance == target:
                raise CrossCheckError("planted")
            return original(instance)
        monkeypatch.setattr(harness, name, planted)
        assert main(["verify", case_id, "--bounds", "n=2",
                     "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["total_violations"] == 1
        assert report["cases"][0]["violations"] == \
            [{"instance": repr(target), "problem": "planted"}]


# the enumerated two-element chain a < b
CHAIN_AB = FinitePoset(("a", "b"), (0b11, 0b10))


def _patch_report(monkeypatch, target, report):
    """Let harness.check_domain give report for the target poset."""
    original = harness.check_domain
    monkeypatch.setattr(harness, "check_domain", lambda lattice: (
        report if lattice == target else original(lattice)))


class TestOncePerValue:
    def test_default_run_computes_each_quantity_once_per_value(
            self, monkeypatch):
        # tail_flags once per relabeled density (182 of the 227 tail
        # densities), and the two parts once per distinct measure: the
        # decomposition of a regular part is the cached decompose(reg)
        # the free-cover supremum once per density object that the bit-a
        # witness (on the relabeled densities) or L-WIC (on the pool's
        # own) reads
        calls = dict.fromkeys(("tail_flags", "Tail.regular_part",
                               "Tail.singular_part", "Finite.regular_part",
                               "Finite.singular_part", "free_cover_sup"), 0)

        def counted(name, f):
            def call(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return call
        monkeypatch.setattr(countable, "tail_flags",
                            counted("tail_flags", countable.tail_flags))
        for cls, kind in ((TailBackend, "Tail"), (FiniteBackend, "Finite")):
            for part in ("regular_part", "singular_part"):
                monkeypatch.setattr(cls, part, counted(
                    f"{kind}.{part}", getattr(cls, part)))
        prop = functools.cached_property(counted(
            "free_cover_sup", vars(TailDensity)["free_cover_sup"].func))
        prop.__set_name__(TailDensity, "free_cover_sup")
        monkeypatch.setattr(TailDensity, "free_cover_sup", prop)
        # fresh densities too, since each keeps its supremum
        for cached in (countable._relabeled_flags, measure._classify,
                       decompose, measure_instances):
            cached.cache_clear()
        assert run_all().total_violations == 0
        assert calls == {"tail_flags": 182, "Tail.regular_part": 227,
                         "Tail.singular_part": 227,
                         "Finite.regular_part": 873,
                         "Finite.singular_part": 873,
                         "free_cover_sup": 257}


class TestInterpolationCase:
    def test_failed_interpolation_is_reported_by_the_case(self, monkeypatch):
        # with any() false in the order module, check_domain finds no
        # interpolating element; it reports that and leaves the verdict
        # to L-INTERP
        with monkeypatch.context() as patch:
            patch.setattr(order, "any", lambda items: False, raising=False)
            rep = order.check_domain.__wrapped__(FinitePoset.chain(2))
        assert rep.continuous and rep.filtered_complete
        assert not rep.interpolation
        _patch_report(monkeypatch, CHAIN_AB, rep)
        res = run_theorem("L-INTERP", SMALL)
        assert res.violations == ((
            ("instance", repr(CHAIN_AB)),
            ("problem", "a continuous filtered-complete poset must "
                        "interpolate the way-above relation")),)

    def test_discontinuous_poset_is_one_vacuous_instance(self, monkeypatch):
        before = run_theorem("L-INTERP", SMALL)
        rep = order.check_domain(CHAIN_AB)._replace(continuous=False)
        _patch_report(monkeypatch, CHAIN_AB, rep)
        after = run_theorem("L-INTERP", SMALL)
        assert after.vacuous == before.vacuous + 1 == 1
        assert after.instances == before.instances
        assert after.violations == ()


class TestMeasureRunner:
    def test_gate_failure_never_reaches_the_check(self, monkeypatch):
        chain2 = FinitePoset.chain(2)
        seen = []

        def check(m):
            seen.append(m.lattice)
            return True, []
        rep = order.check_domain(chain2)._replace(continuous=False)
        _patch_report(monkeypatch, chain2, rep)
        case = _measure_case("X-GATE", "gated", check, gate=_domain_gate)
        res = run_case(case, SMALL)
        pool = measure_instances(SMALL)
        gated = sum(m.lattice == chain2 for m in pool)
        assert gated > 0
        assert chain2 not in seen
        assert len(seen) == len(pool) - gated
        assert (res.instances, res.vacuous, res.violations) == \
            (len(pool), gated, ())

    def test_error_is_one_numbered_violation(self):
        pool = measure_instances(SMALL)
        target = pool[5]

        def check(m):
            if m is target:
                raise CrossCheckError("planted")
            return True, []
        res = run_case(_measure_case("X-ERROR", "erring", check), SMALL)
        assert res.violations == (
            (("instance", f"#5 {target!r}"), ("problem", "planted")),)
        assert (res.instances, res.vacuous) == (len(pool), 0)


class TestSearch:
    def test_finds_unsaturated_smooth_witness(self):
        out = search_counterexample({"q_smooth": True},
                                    {"saturated": False}, SMALL)
        assert out["verdict"] == "witness"
        assert "FiniteSpace" in out["witness"]

    def test_finds_untight_sigma_witness(self):
        out = search_counterexample({"sigma_maxitive": True},
                                    {"tight": False}, SMALL)
        assert out["verdict"] == "witness"

    def test_weak_outer_without_outer_unattainable(self):
        out = search_counterexample({"weak_outer": True},
                                    {"outer": False}, SMALL)
        assert out["verdict"] == "unattainable"
        assert out["witness"] is None
        assert "finite" in out["reason"]

    def test_forced_flag_reported(self):
        out = search_counterexample({}, {"q_smooth": False}, SMALL)
        assert out["verdict"] == "unattainable"
        assert "q_smooth" in out["reason"]

    def test_exhausted_counts_instances(self):
        out = search_counterexample({"regular": True},
                                    {"tight": False}, SMALL)
        # exists at larger bounds only through the countable side; the
        # small pool does contain one (mass below a nonzero tail)
        assert out["instances_searched"] > 0

    @pytest.mark.parametrize("flag", ["q_smoth", "maxitive"])
    def test_unknown_flag_rejected(self, flag):
        # a misspelt flag, and a tail_flags key that is not a record
        # field, would otherwise read as an empty exhausted search
        for required, forbidden in (({flag: True}, {}), ({}, {flag: False})):
            with pytest.raises(InputError, match=flag):
                search_counterexample(required, forbidden, SMALL)

    @pytest.mark.parametrize("backend, size", [(FINITE, 2), (TAIL, 3)],
                             ids=["finite", "tail"])
    def test_records_are_what_classify_states(self, backend, size):
        # the tail bits give four records, which upper_compact_density
        # alone tells apart, so three on the record fields
        stated = {ClassificationRecord(
            **{f: rec[f] for f in ClassificationRecord._fields})
            for rec in backend.records()}
        reached = {m.classify() for m in measure_instances(Bounds())
                   if m.backend is backend}
        assert reached == stated
        assert len(stated) == size
