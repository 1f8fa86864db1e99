import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from maxitive.cli import main
from maxitive.instances import instance_to_json


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

    def test_oversized_usc_density_search_exits_2(self, write):
        # 40 candidate values at each of four points: 40^4 assignments,
        # refused before the search starts
        points = ["w", "x", "y", "z"]
        path = write("usc40.json", text=json.dumps({
            "lattice": {"kind": "chain", "size": 40},
            "space": {"kind": "finite", "points": points,
                      "subbasis": [[p] for p in points]},
            "measure": {"kind": "density",
                        "values": {p: "39" for p in points}}}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "maxitive.cli", "analyze", path],
            env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 2
        assert "error:" in done.stderr


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

    def test_json_stable_across_processes(self):
        # separate processes start with empty caches and different
        # string hashing, so nothing can be replayed from the first run
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hashseed)
            done = subprocess.run(
                [sys.executable, "-m", "maxitive.cli", "verify", "all",
                 "--bounds", "n=2,lattice=2,countable=2", "--format", "json"],
                env=env, capture_output=True, check=True)
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        assert hashlib.sha256(outs[0]).hexdigest() == (
            "e35f47573b292199f4f1eab25eb4199f9f15044fe3c9b19b227f5b62df0188a6")

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
