"""Tests of the benchmark itself: tracing arithmetic, wrapper removal,
seeded inputs, and traced outputs equal to untraced ones.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import proc
import run
import sample
import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # root spent 0.5 s in leaf calls directly, b 1 s
    spans = [
        (1, None, "root", 0.0, 10.0, 0.5),
        (2, 1, "a", 1.0, 4.0, 0.0),
        (3, 2, "c", 2.0, 3.0, 0.0),
        (4, 1, "b", 5.0, 9.0, 1.0),
        (5, None, "a", 20.0, 22.0, 0.0),
    ]
    assert tracing.self_times(spans) == {
        "root": 10.0 - 3.0 - 4.0 - 0.5,
        "a": (3.0 - 1.0) + 2.0,
        "c": 1.0,
        "b": 4.0 - 1.0,
    }


def test_tracer_charges_leaf_time_to_the_enclosing_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf_work():
        clock.now += 2.0

    def outer_work(leaf):
        clock.now += 1.0
        leaf()
        clock.now += 3.0
        return "done"

    leaf = tracer.leaf("t.leaf", leaf_work)
    outer = tracer.span("t.outer", outer_work)
    assert outer(leaf) == "done"
    leaf()
    summary = tracer.summary()
    assert summary["t.outer.calls"] == 1
    assert summary["t.outer.self_s"] == 4.0
    assert summary["t.leaf.calls"] == 2
    assert summary["t.leaf.self_s"] == 4.0


def test_span_generator_times_each_resumption():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def gen():
        for k in range(3):
            clock.now += 1.0
            yield k

    wrapped = tracer.span_generator("t.gen", gen)
    out = []
    for item in wrapped():
        clock.now += 10.0     # consumer time is not the generator's
        out.append(item)
    assert out == [0, 1, 2]
    assert tracer.summary()["t.gen.self_s"] == 3.0
    assert tracer.summary()["t.gen.calls"] == 1


def _bindings():
    import maxitive.cli  # noqa: F401
    seen = {}
    for mod in tracing._modules():
        for attr, val in vars(mod).items():
            seen[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__.startswith("maxitive"):
                for name, member in vars(val).items():
                    seen[(mod.__name__, attr, name)] = member
    return seen


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import maxitive.cli
    import maxitive.decomposition
    import maxitive.harness
    import maxitive.order
    before = _bindings()
    original_decompose = maxitive.decomposition.decompose
    original_join = maxitive.order.FinitePoset.join
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert maxitive.harness.decompose is not original_decompose
        assert maxitive.cli.decompose is maxitive.harness.decompose
        assert maxitive.order.FinitePoset.join is not original_join
        from maxitive import FinitePoset
        FinitePoset.chain(3).join(0, 2)
    finally:
        restore()
    assert tracer.summary()["order.join.calls"] == 1
    assert _bindings() == before
    assert maxitive.harness.decompose is original_decompose


def test_n4_sample_is_deterministic_and_stratified():
    pool = sample.load_reference()["n4_pool"]
    spec, expected = sample.sample_n4(pool, 7)
    assert sample.sample_n4(pool, 7) == (spec, expected)
    assert sample.sample_n4(pool, 8)[0] != spec
    strata = {s["id"]: s["stratum"] for s in pool["spaces"]}
    drawn = [strata[s["id"]] for s in spec["spaces"]]
    assert sorted(drawn) == sorted(set(strata.values()))
    for sp in spec["spaces"]:
        kinds = [m["lattice"] for m in sp["measures"]]
        assert {k: kinds.count(k) for k in set(kinds)} == dict(
            sample.N4_MEASURES)
        assert len({m["id"] for m in sp["measures"]}) == len(kinds)
    assert "digest" not in json.dumps(spec)


def test_n4_measures_come_one_from_each_band_of_work():
    pool = sample.load_reference()["n4_pool"]
    space = pool["spaces"][-1]
    chain2 = [m for m in space["measures"] if m["lattice"] == "chain2"]
    bands = sample.bands(chain2, 6)
    assert sorted(m["id"] for b in bands for m in b) == \
        sorted(m["id"] for m in chain2)
    assert {len(b) for b in bands} <= {len(chain2) // 6,
                                       len(chain2) // 6 + 1}
    for lower, upper in zip(bands, bands[1:]):
        assert max(m["work"] for m in lower) <= min(m["work"] for m in upper)
    for seed in range(20):
        spec, _ = sample.sample_n4(pool, seed)
        for sp in spec["spaces"]:
            full = next(s for s in pool["spaces"] if s["id"] == sp["id"])
            for lattice, per in sample.N4_MEASURES:
                ids = {m["id"] for m in sp["measures"]
                       if m["lattice"] == lattice}
                options = [m for m in full["measures"]
                           if m["lattice"] == lattice]
                assert [len(ids & {m["id"] for m in b})
                        for b in sample.bands(options, per)] == [1] * per


def test_cli_batch_is_deterministic_and_has_fixed_composition(tmp_path):
    pool = sample.load_reference()["cli_pool"]
    calls = sample.sample_cli(pool, 3)
    assert sample.sample_cli(pool, 3) == calls
    assert sample.sample_cli(pool, 4) != calls
    assert len(calls) == sum(c[3] for c in sample.CLI_MIX) == 42
    codes = sorted(c["exit"] for c in calls)
    assert codes.count(2) == 2 and codes.count(3) == 2
    paths = sample.write_instances(calls, str(tmp_path))
    with open(paths[0], encoding="utf-8") as fh:
        assert fh.read() == calls[0]["text"]


def _child(argv):
    return subprocess.run(argv, capture_output=True, env=proc.child_env(),
                          cwd=proc.ROOT, timeout=300)


def test_traced_n4_outputs_equal_untraced_and_reference(tmp_path):
    pool = sample.load_reference()["n4_pool"]
    space = next(s for s in pool["spaces"] if s["stratum"].startswith("3atoms"))
    measures = [next(m for m in space["measures"] if m["lattice"] == k)
                for k in ("chain2", "chain3", "diamond", "extreal")]
    spec = {"spaces": [dict(space, measures=measures)]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for extra in ([], ["--trace"]):
        out = tmp_path / f"out{len(outputs)}.json"
        done = _child(proc.child_argv("n4", str(spec_path), str(out), *extra))
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(out.read_text()))
    plain, traced = outputs
    assert traced["spaces"] == plain["spaces"] == {space["id"]:
                                                   space["digest"]}
    assert traced["measures"] == plain["measures"] == {
        m["id"]: m["digest"] for m in measures}
    assert traced["trace"]["topology.t0_reflection.calls"] == 1
    assert traced["trace"]["measure.classify.calls"] == 4


@pytest.mark.parametrize("category", ["chain", "tail", "precondition",
                                      "bad_input"])
def test_traced_cli_call_equals_untraced(category, tmp_path):
    pool = sample.load_reference()["cli_pool"]
    item = next(it for it in pool if it["category"] == category)
    path = tmp_path / "instance.json"
    path.write_text(item["text"])
    args = ["decompose", str(path), "--format", "json"]
    plain = _child(proc.cli_argv(args))
    trace_out = tmp_path / "trace.json"
    traced = _child(proc.child_argv("cli", str(trace_out), "--", *args))
    assert (traced.returncode, traced.stdout) == (plain.returncode,
                                                  plain.stdout)
    assert plain.returncode == item["decompose"]["exit"]
    assert sample.sha256_bytes(plain.stdout) == \
        item["decompose"]["stdout_sha256"]
    payload = json.loads(trace_out.read_text())
    assert payload["trace"]["instances.load_instance.calls"] == 1


def test_stage_medians_take_each_stage_over_the_passes_that_timed_it():
    passes = [run.Pass(stages={"a": (1.0, 0.5), "b": (9.0, 8.0)}),
              run.Pass(stages={"a": (3.0, 1.5), "b": (2.0, 1.0)}),
              run.Pass(stages={"a": (2.0, 1.0), "b": (3.0, 2.0),
                               "c": (7.0, 6.0)})]
    assert run.stage_medians(passes) == {"a": (2.0, 1.0), "b": (3.0, 2.0),
                                         "c": (7.0, 6.0)}
    assert list(run.stage_medians(passes)) == ["a", "b", "c"]


def test_layer_metrics_sum_children_and_fill_missing_layers():
    traces = [{"order.join.calls": 3, "decomposition.decompose.errors": 1},
              {"order.join.calls": 4}]
    micro = {"order.join.ns": 1.0, "order.meet.ns": 2.0,
             "measure.value.ns": 3.0, "measure.outer_value.ns": 4.0}
    out = run.layer_metrics(traces, [0.3, 0.1, 0.2], micro)
    assert out["order.join.calls"] == 7
    assert out["decomposition.errors"] == 1
    assert out["cli.import_s"] == 0.2
    assert out["harness.case.T-T0.self_s"] == 0
    assert set(out) == set(run.PER_LAYER_NAMES)


def test_benchmark_json_names_the_metrics_run_emits():
    with open(os.path.join(proc.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_case_ids_match_the_harness():
    from maxitive import harness
    assert run.CASE_IDS == tuple(c.id for c in harness.CASES)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(proc.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""
