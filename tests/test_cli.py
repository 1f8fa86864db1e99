import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from maxitive import BudgetError, instances
from maxitive.cli import main
from maxitive.instances import (_EXCEPTION_LIMIT, instance_to_json,
                                load_instance)
from maxitive.oracles import _usc_density_search


@pytest.fixture
def write(tmp_path):
    def _write(name, measure=None, text=None):
        path = tmp_path / name
        path.write_text(text if text is not None
                        else instance_to_json(measure))
        return str(path)
    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_mu1_report(self, capsys, write, mu1):
        path = write("mu1.json", mu1)
        code, out, _ = run(capsys, "analyze", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        cls = payload["classification"]
        assert cls["regular"] is False
        assert cls["weak_inner"] is True
        assert cls["saturated"] is False
        assert payload["upper_density"]["usc"] is True

    def test_theta_all_true(self, capsys, write, theta):
        path = write("theta.json", theta)
        code, out, _ = run(capsys, "analyze", path, "--format", "json")
        assert code == 0
        cls = json.loads(out)["classification"]
        assert all(cls.values())

    def test_text_format(self, capsys, write, mu2):
        path = write("mu2.json", mu2)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "classification:" in out and "notes:" in out

    def test_unknown_lattice_kind_exits_2(self, capsys, write):
        path = write("bad.json", text=json.dumps({
            "lattice": {"kind": "modular"},
            "space": {"kind": "countable_discrete"},
            "measure": {"kind": "tail", "exceptions": {}, "tail": "0",
                        "infinite_mass": "0"}}))
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "lattice.kind" in err

    def test_bool_chain_size_exits_2(self, capsys, write):
        # JSON true is an int to Python; it must not read as size 1
        path = write("bool.json", text=json.dumps({
            "lattice": {"kind": "chain", "size": True},
            "space": {"kind": "countable_discrete"},
            "measure": {"kind": "tail", "exceptions": {}, "tail": "0",
                        "infinite_mass": "0"}}))
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "lattice.size" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.json")
        assert code == 2

    def test_three_point_space(self, capsys, write):
        path = write("three.json", text=json.dumps({
            "lattice": {"kind": "chain", "size": 2},
            "space": {"kind": "finite", "points": ["a", "b", "c"],
                      "subbasis": [["a"], ["b"]]},
            "measure": {"kind": "density",
                        "values": {"a": "1", "b": "0", "c": "0"}}}))
        code, out, _ = run(capsys, "analyze", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["classification"]["outer"] in (True, False)


class TestDecompose:
    def test_eta_purely_singular(self, capsys, write, eta):
        path = write("eta.json", eta)
        code, out, _ = run(capsys, "decompose", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "purely_singular"
        assert payload["identity_holds"] is True
        for row in payload["sets"]:
            assert row["regular_part"] == "0"

    def test_rho_infinite_sets_carry_2(self, capsys, write, rho):
        path = write("rho.json", rho)
        code, out, _ = run(capsys, "decompose", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "mixed"
        for row in payload["sets"]:
            expected = "2" if row["set"].startswith("~") else "0"
            assert row["singular_part"] == expected, row

    def test_mu2_regular(self, capsys, write, mu2):
        path = write("mu2.json", mu2)
        code, out, _ = run(capsys, "decompose", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "regular"
        assert all(r["singular_part"] == "0" for r in payload["sets"])

    def test_borel_sets_named_by_atoms(self, capsys, write, mu1):
        path = write("mu1.json", mu1)
        code, out, _ = run(capsys, "decompose", path, "--format", "json")
        names = [tuple(r["set"]) for r in json.loads(out)["sets"]]
        assert () in names and ("a", "b") in names

    def test_non_distributive_exits_3(self, capsys, write):
        path = write("n5.json", text=json.dumps({
            "lattice": {"kind": "finite",
                        "names": ["0", "a", "b", "c", "1"],
                        "le": [["0", "a"], ["a", "b"], ["b", "1"],
                               ["0", "c"], ["c", "1"]]},
            "space": {"kind": "finite", "points": ["x"], "subbasis": []},
            "measure": {"kind": "density", "values": {"x": "1"}}}))
        code, _, err = run(capsys, "decompose", path)
        assert code == 3

    def test_oversized_lattice_exits_2(self, write):
        # the domain check scans every subset of the lattice, so a
        # 40-element chain must be refused before the scan starts
        path = write("chain40.json", text=json.dumps({
            "lattice": {"kind": "chain", "size": 40},
            "space": {"kind": "finite", "points": ["x"], "subbasis": []},
            "measure": {"kind": "density", "values": {"x": "1"}}}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "maxitive.cli", "decompose", path],
            env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 2
        assert "error:" in done.stderr

    @pytest.mark.parametrize("kind, space", [("chain", "finite"),
                                             ("chain", "countable"),
                                             ("names", "finite")])
    def test_lattice_over_the_size_budget_exits_2(self, write, kind, space):
        # the pair tables of a 1000-element lattice take minutes to
        # build, so the instance must be refused before it is built;
        # 128 elements are still accepted
        def lattice(size):
            if kind == "chain":
                return {"kind": "chain", "size": size}
            names = [str(i) for i in range(size)]
            return {"kind": "finite", "names": names,
                    "le": [[a, b] for a, b in zip(names, names[1:])]}
        measure = ({"kind": "density", "values": {"x": "1"}}
                   if space == "finite" else
                   {"kind": "tail", "exceptions": {}, "tail": "1",
                    "infinite_mass": "1"})
        space_obj = ({"kind": "finite", "points": ["x"], "subbasis": []}
                     if space == "finite" else {"kind": "countable_discrete"})
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        for size, code in ((1000, 2), (128, 0)):
            path = write(f"lattice{size}.json", text=json.dumps({
                "lattice": lattice(size), "space": space_obj,
                "measure": measure}))
            done = subprocess.run(
                [sys.executable, "-m", "maxitive.cli", "analyze", path],
                env=env, capture_output=True, text=True, timeout=20)
            assert done.returncode == code, done.stderr
            assert ("at most 128" in done.stderr) == (code == 2)

    def test_tail_over_the_exception_budget_exits_2(self, capsys, write,
                                                    monkeypatch):
        # the decomposition's cost grows with the square of the
        # exception count, so one exception past the limit is refused
        # before any density is built; the limit itself is analysed
        def tail(count):
            return write(f"tail{count}.json", text=json.dumps({
                "lattice": {"kind": "chain", "size": 3},
                "space": {"kind": "countable_discrete"},
                "measure": {"kind": "tail", "tail": "1",
                            "infinite_mass": "2",
                            "exceptions": {str(2 * i + 1): str(i % 2 * 2)
                                           for i in range(count)}}}))
        assert run(capsys, "analyze", tail(_EXCEPTION_LIMIT))[0] == 0
        past_limit = tail(_EXCEPTION_LIMIT + 1)

        def refuse(*args):
            raise AssertionError("a tail density was built")
        monkeypatch.setattr(instances, "TailDensity", refuse)
        code, _, err = run(capsys, "analyze", past_limit)
        assert code == 2
        assert f"at most {_EXCEPTION_LIMIT} exceptions" in err

    @pytest.mark.parametrize("points, subbasis", [
        (["x"], [1]),
        # a string is not a point-name array, though iterating it would
        # read the points "a" and "b" instead of the point "ab"
        (["ab", "a", "b"], ["ab"]),
    ], ids=["number", "string"])
    def test_subbasis_member_not_an_array_exits_2(self, capsys, write,
                                                  points, subbasis):
        path = write("member.json", text=json.dumps({
            "lattice": {"kind": "chain", "size": 2},
            "space": {"kind": "finite", "points": points,
                      "subbasis": subbasis},
            "measure": {"kind": "density", "values": {}}}))
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "space.subbasis" in err

    @pytest.mark.parametrize("key, code", [
        ("1_0", 2), (" 3", 2), ("+3", 2), ("-1", 2), ("10", 0)])
    def test_exception_key_must_be_decimal_digits(self, capsys, write,
                                                  key, code):
        path = write("key.json", text=json.dumps({
            "lattice": {"kind": "chain", "size": 2},
            "space": {"kind": "countable_discrete"},
            "measure": {"kind": "tail", "exceptions": {key: "1"},
                        "tail": "0", "infinite_mass": "0"}}))
        got, _, err = run(capsys, "analyze", path)
        assert got == code
        assert ("measure.exceptions" in err) == (code == 2)

    def test_too_many_points_refused_before_the_closure(self, write):
        # twenty singletons close to 2^20 opens; the point budget of 8
        # must refuse them before the closure starts
        points = [f"p{i}" for i in range(20)]
        path = write("points20.json", text=json.dumps({
            "lattice": {"kind": "chain", "size": 2},
            "space": {"kind": "finite", "points": points,
                      "subbasis": [[p] for p in points]},
            "measure": {"kind": "density", "values": {}}}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "maxitive.cli", "analyze", path],
            env=env, capture_output=True, text=True, timeout=5)
        assert done.returncode == 2, done.stderr
        assert "at most 8 points" in done.stderr

    def test_oversized_usc_density_search_left_to_the_oracle(self, write):
        # 40 candidate values at each of four points: 40^4 assignments,
        # which the literal search refuses before it starts; analyze
        # states the flag from the saturation bit and never runs it
        points = ["w", "x", "y", "z"]
        path = write("usc40.json", text=json.dumps({
            "lattice": {"kind": "chain", "size": 40},
            "space": {"kind": "finite", "points": points,
                      "subbasis": [[p] for p in points]},
            "measure": {"kind": "density",
                        "values": {p: "39" for p in points}}}))
        with pytest.raises(BudgetError):
            _usc_density_search(load_instance(path))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "maxitive.cli", "analyze", path,
             "--format", "json"],
            env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stderr
        assert "error:" not in done.stderr
        cls = json.loads(done.stdout)["classification"]
        assert cls["usc_density_exists"] == cls["saturated"]


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "T-HM",
                           "--bounds", "n=2,lattice=2,countable=2")
        assert code == 0
        assert "violations=0" in out

    def test_json_deterministic(self, capsys):
        args = ("verify", "C-TILDE", "--bounds", "n=2,lattice=2,countable=2",
                "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("bounds, digest", [
        pytest.param("n=2,lattice=2,countable=2",
                     "e35f47573b292199f4f1eab25eb4199f9f15044fe3c9b19b227f5b62df0188a6",
                     id="small"),
        pytest.param("",
                     "ab3e7eddf2f298c060c14d654653047f64d312448d0db530e42a306a6899fa14",
                     id="default"),
    ])
    def test_json_stable_across_processes(self, bounds, digest):
        # separate processes start with empty caches and different
        # string hashing, so nothing can be replayed from the first run
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hashseed)
            done = subprocess.run(
                [sys.executable, "-m", "maxitive.cli", "verify", "all",
                 "--bounds", bounds, "--format", "json"],
                env=env, capture_output=True, check=True)
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        assert hashlib.sha256(outs[0]).hexdigest() == digest

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "bogus-id")
        assert code == 2

    def test_bad_bounds_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "all", "--bounds", "n=9")
        assert code == 2
        code, _, err = run(capsys, "verify", "all", "--bounds", "frogs=1")
        assert code == 2


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3")
        assert code == 0 and "29" in out
        code, out, _ = run(capsys, "enumerate", "0")
        assert code == 0 and "1" in out

    def test_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "5")
        assert code == 2

    def test_dump(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "--dump",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 4
        assert len(payload["spaces"]) == 4
        assert all("points" in s for s in payload["spaces"])

    def test_usage_error(self, capsys):
        assert run(capsys, "enumerate", "many")[0] == 2
        assert run(capsys)[0] == 2


# Instances covering each backend and value lattice kind; the bytes
# analyze and decompose print for them are pinned below.
_DIAMOND = {"kind": "finite", "names": ["0", "a", "b", "1"],
            "le": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
_SIERPINSKI = {"kind": "finite", "points": ["a", "b"], "subbasis": [["b"]]}
_CHAIN_SPACE = {"kind": "finite", "points": ["a", "b", "c"],
                "subbasis": [["a"], ["a", "b"]]}
_COUNTABLE = {"kind": "countable_discrete"}
GOLDEN_INSTANCES = {
    "finite-chain3": {
        "lattice": {"kind": "chain", "size": 3}, "space": _CHAIN_SPACE,
        "measure": {"kind": "density",
                    "values": {"a": "0", "b": "2", "c": "1"}}},
    "diamond-sierpinski": {
        "lattice": _DIAMOND, "space": _SIERPINSKI,
        "measure": {"kind": "density", "values": {"a": "a", "b": "b"}}},
    "finite-extreal": {
        "lattice": {"kind": "extreal"}, "space": _CHAIN_SPACE,
        "measure": {"kind": "density",
                    "values": {"a": "1/2", "b": "inf", "c": "2"}}},
    "tail-chain3": {
        "lattice": {"kind": "chain", "size": 3}, "space": _COUNTABLE,
        "measure": {"kind": "tail", "exceptions": {"0": "2", "3": "0"},
                    "tail": "1", "infinite_mass": "2"}},
    "tail-extreal": {
        "lattice": {"kind": "extreal"}, "space": _COUNTABLE,
        "measure": {"kind": "tail", "exceptions": {"3": "1/2"},
                    "tail": "1/4", "infinite_mass": "inf"}},
}
GOLDEN_SHA256 = {
    ("finite-chain3", "analyze", "json"):
        "3a8491951a670487e1a6d0c6897eda4ba80d3a3d0a91c095c01761928bf8237f",
    ("finite-chain3", "analyze", "text"):
        "4ce4ac21ef5a6b9545d0d4f25b7506dc682566df8c474d2bca0bfe1674329310",
    ("finite-chain3", "decompose", "json"):
        "02a264f88d50fbafa00fef9a78858c936aeca046de12b5f11f9028559bc240a1",
    ("finite-chain3", "decompose", "text"):
        "f8e3f3db7cfb22136ab868cebc2ab5aa738290e7c56d0e8ad438def3bf98ae67",
    ("diamond-sierpinski", "analyze", "json"):
        "2a7ce83ed50a4a3f0ba7f044c11aa8ce762519b685d03040bd1ce5b215464e2c",
    ("diamond-sierpinski", "analyze", "text"):
        "869ed7000d6e7b3cef59e7f09a620f3dc9645e8429abfbdfd6c687910b3dad55",
    ("diamond-sierpinski", "decompose", "json"):
        "191c300b275ab0628256c6339c8c0695b32e2da598b0a904c63e73146f52128b",
    ("diamond-sierpinski", "decompose", "text"):
        "1937cc8134ecdc7c851ea031d836eb7b0955bd3589862b1b884ef67e7058a82c",
    ("finite-extreal", "analyze", "json"):
        "4a2f1612b91689159b7fc73a2ef6d6e7b027890c191a1e140a12e646b2eefabb",
    ("finite-extreal", "analyze", "text"):
        "6daad3b504bef7bb52d04b63410b06a009a3c4daa8dd00882a61b2f5213954d4",
    ("finite-extreal", "decompose", "json"):
        "eb1a359199ddb21a0105b7207dd0f80898d71730b06e5c2fc980ae9be8d14614",
    ("finite-extreal", "decompose", "text"):
        "b98619ac8956f304e1c6a50ea4815de49a0ee86410c86f16be4b29d6d379d0a0",
    ("tail-chain3", "analyze", "json"):
        "009c1f358b31267ce53ad6d55c02de127615b0df9448fdab3b4783d3697e55bc",
    ("tail-chain3", "analyze", "text"):
        "52630fed0e75a14a53d1a90c817ca052cfae4cbe79ac4201e0a6b12df283c776",
    ("tail-chain3", "decompose", "json"):
        "8199452ee8c78ea9d58ad06503bf67344259308136eeb59b23f34d0df941f5a4",
    ("tail-chain3", "decompose", "text"):
        "b47ff41dc35f8c54f05a3817a2ff995cd568ce18d3d078b86d81cdd019ffccf8",
    ("tail-extreal", "analyze", "json"):
        "1fb6dfbe274a96ff43d902dfe32d6bfed4eeaccbe786283f13a96fd8fe7289fd",
    ("tail-extreal", "analyze", "text"):
        "e02f82bb2e81a3ae8f1a9f36083c1ca53a33c76e57a6fb792de5cdfbb8e8feb9",
    ("tail-extreal", "decompose", "json"):
        "86e584721a4a47f352f2c4bf35e10c5acdacc3e00572797c03be62998b1edc58",
    ("tail-extreal", "decompose", "text"):
        "10990f48c10164b8932d0231501a29dee4097f4503fc701f25aae0f893048928",
}


@pytest.mark.parametrize("name, command, fmt", sorted(GOLDEN_SHA256))
def test_output_bytes_pinned(name, command, fmt, capsys, write):
    path = write(f"{name}.json", text=json.dumps(GOLDEN_INSTANCES[name]))
    code, out, _ = run(capsys, command, path, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_SHA256[name, command, fmt]
