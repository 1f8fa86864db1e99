"""Mutated instance files against the exit-code contract of the CLI:
analyze and decompose return 0, 1, 2 or 3 on any file, within a
deadline, and raise nothing."""

import copy
import json
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from maxitive.cli import main  # noqa: E402

CORPUS = (
    {"lattice": {"kind": "chain", "size": 3},
     "space": {"kind": "finite", "points": ["a", "b"], "subbasis": [["b"]]},
     "measure": {"kind": "density", "values": {"a": "1", "b": "2"}}},
    {"lattice": {"kind": "extreal"},
     "space": {"kind": "finite", "points": ["x", "y", "z"],
               "subbasis": [["x"], ["x", "y"]]},
     "measure": {"kind": "density", "values": {"x": "1/2", "y": "inf"}}},
    {"lattice": {"kind": "finite", "names": ["0", "a", "b", "1"],
                 "le": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]},
     "space": {"kind": "finite", "points": ["p", "q"], "subbasis": [["p"]]},
     "measure": {"kind": "density", "values": {"p": "a", "q": "b"}}},
    {"lattice": {"kind": "chain", "size": 3},
     "space": {"kind": "countable_discrete"},
     "measure": {"kind": "tail", "exceptions": {"0": "2", "3": "0"},
                 "tail": "1", "infinite_mass": "2"}},
    {"lattice": {"kind": "extreal"},
     "space": {"kind": "countable_discrete"},
     "measure": {"kind": "tail", "exceptions": {"1": "3"}, "tail": "0",
                 "infinite_mass": "inf"}},
    {"lattice": {"kind": "finite", "names": ["0", "a", "b", "c", "1"],
                 "le": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"],
                        ["c", "1"]]},
     "space": {"kind": "finite", "points": ["p", "q"], "subbasis": []},
     "measure": {"kind": "density", "values": {"p": "b", "q": "c"}}},
)

# the words and numbers the parser looks for, values just off them,
# and strings past the digit limit of int() and of Fraction
WORDS = st.sampled_from([
    "", "0", "1", "2", "3", "a", "b", "p", "x", "inf", "-1", "1/0", "1/2",
    "0.5", "1e9", "1e999999999", "9" * 5000, "0." + "0" * 5000 + "1",
    "chain", "finite", "extreal", "density", "tail", "countable_discrete",
    "kind", "size", "names", "le", "points", "subbasis", "values",
    "exceptions", "infinite_mass"])
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 200),
                   st.floats(), WORDS, st.text(max_size=6))
VALUES = st.recursive(
    LEAVES, lambda kids: (st.lists(kids, max_size=4)
                          | st.dictionaries(WORDS | st.text(max_size=3),
                                            kids, max_size=4)),
    max_leaves=8)


def _paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_files(draw):
    """A corpus instance with one to three edits, each a section taken
    from another instance or a field replaced, deleted or added,
    written out as JSON and then, sometimes, cut short or given a stray
    byte."""
    doc = copy.deepcopy(draw(st.sampled_from(CORPUS)))
    for _ in range(draw(st.integers(1, 3))):
        if isinstance(doc, dict) and draw(st.booleans()):
            key = draw(st.sampled_from(("lattice", "space", "measure")))
            doc[key] = copy.deepcopy(draw(st.sampled_from(CORPUS))[key])
            continue
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "delete":
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(WORDS)] = draw(VALUES)
        else:
            parent[path[-1]] = draw(VALUES)
    data = json.dumps(doc).encode()
    cut = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(("keep",) * 4 + ("truncate", "insert")))
    if edit == "truncate":
        data = data[:cut]
    elif edit == "insert":
        data = data[:cut] + bytes([draw(st.integers(0, 255))]) + data[cut:]
    return data


@pytest.mark.parametrize("command", ["analyze", "decompose"])
@settings(max_examples=200, derandomize=True, database=None,
          deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=mutated_files())
def test_mutated_instance_exits_by_contract(command, data, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_bytes(data)
    assert main([command, str(path), "--format", "json"]) in (0, 1, 2, 3)
    capsys.readouterr()
