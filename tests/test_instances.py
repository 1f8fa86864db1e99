import json

import pytest

from maxitive import (EXT_REALS, BudgetError, FinitePoset, InputError,
                      TailDensity, load_instance, parse_instance,
                      serialize_instance)
from maxitive.instances import parse_lattice, parse_space, serialize_lattice


def make_obj(lattice=None, **measure):
    return {
        "lattice": lattice or {"kind": "chain", "size": 2},
        "space": {"kind": "countable_discrete"},
        "measure": measure,
    }


def density_obj(values, lattice=None):
    return {
        "lattice": lattice or {"kind": "chain", "size": 2},
        "space": {"kind": "finite", "points": ["a", "b"],
                  "subbasis": [["b"]]},
        "measure": {"kind": "density", "values": values},
    }


EXTREAL = {"kind": "extreal"}


class TestParsing:
    def test_minimal_finite_instance(self):
        obj = {
            "lattice": {"kind": "chain", "size": 3},
            "space": {"kind": "finite", "points": ["a", "b"],
                      "subbasis": [["b"]]},
            "measure": {"kind": "density", "values": {"b": "2"}},
        }
        m = parse_instance(obj)
        assert m.value(m.space.mask(("b",))) == 2

    def test_tail_instance(self):
        obj = make_obj(kind="tail", exceptions={"0": "1"}, tail="0",
                       infinite_mass="1")
        m = parse_instance(obj)
        assert m.tail.density(0) == 1 and m.tail.infinite_mass == 1

    def test_extreal_lattice(self):
        obj = {
            "lattice": {"kind": "extreal"},
            "space": {"kind": "countable_discrete"},
            "measure": {"kind": "tail", "exceptions": {},
                        "tail": "1/2", "infinite_mass": "inf"},
        }
        m = parse_instance(obj)
        assert m.lattice is EXT_REALS

    def test_finite_lattice_kind(self):
        lat = parse_lattice({"kind": "finite", "names": ["0", "x", "1"],
                             "le": [["0", "x"], ["x", "1"]]})
        assert lat.is_chain() and lat.n == 3

    def test_errors_name_fields(self):
        cases = [
            ({"lattice": {"kind": "ring"}}, "lattice.kind"),
            ({"lattice": {"kind": "chain"}}, "lattice.size"),
            ({"lattice": {"kind": "chain", "size": 2}}, "instance.space"),
            ({"lattice": {"kind": "chain", "size": 2},
              "space": {"kind": "torus"}}, "space.kind"),
            (make_obj(kind="orbit"), "measure.kind"),
            (make_obj(kind="tail", exceptions={"x": "0"}, tail="0",
                      infinite_mass="0"), "measure.exceptions"),
            # an exception key is a decimal natural, written in digits
            *((make_obj(kind="tail", exceptions={key: "0"}, tail="0",
                        infinite_mass="0"), "measure.exceptions")
              for key in ("1_0", " 3", "+3", "-1")),
            # two spellings of one point with different values
            (make_obj(kind="tail", exceptions={"07": "0", "7": "1"},
                      tail="0", infinite_mass="0"), "measure.exceptions"),
            (make_obj(kind="tail", exceptions={"0": "2"}, tail="0",
                      infinite_mass="0"), "measure.exceptions.0"),
            (make_obj(kind="tail", exceptions={}, tail="7",
                      infinite_mass="0"), "measure.tail"),
            (make_obj(kind="tail", exceptions={}, tail="0",
                      infinite_mass=[1]), "measure.infinite_mass"),
            (make_obj(EXTREAL, kind="tail", exceptions={}, tail="1/0",
                      infinite_mass="0"), "measure.tail"),
            (density_obj({"a": "7"}), "measure.values.a"),
            (density_obj({"a": [1]}), "measure.values.a"),
            (density_obj({"a": "-1"}, EXTREAL), "measure.values.a"),
            (density_obj({"z": "1"}), "measure.values"),
        ]
        for obj, field in cases:
            with pytest.raises(InputError) as exc:
                parse_instance(obj)
            assert f"field {field!r}" in str(exc.value), (obj, str(exc.value))

    def test_exception_key_ten_is_point_ten(self):
        m = parse_instance(make_obj(kind="tail", exceptions={"10": "1"},
                                    tail="0", infinite_mass="0"))
        assert m.tail.points == (10,)

    @pytest.mark.parametrize("lattice, index, name", [
        (None, 1, "1"), (EXTREAL, 3, "3")])
    def test_integer_values_read_as_their_names(self, lattice, index, name):
        # both measure kinds take a finite lattice's element by name or
        # by index, and an extended rational as an integer or a string
        for build in (lambda v: density_obj({"b": v}, lattice),
                      lambda v: make_obj(lattice, kind="tail",
                                         exceptions={"0": v}, tail=v,
                                         infinite_mass=v)):
            assert parse_instance(build(index)) == parse_instance(build(name))

    @pytest.mark.parametrize("lattice, bad", [
        (None, True), (None, 2), (None, -1), (None, "7"), (None, 1.0),
        (EXTREAL, True), (EXTREAL, "-1"), (EXTREAL, -1), (EXTREAL, "1/0"),
        (EXTREAL, "one"), (EXTREAL, 0.5), (EXTREAL, "1e3")])
    def test_values_rejected_by_both_measure_kinds(self, lattice, bad):
        with pytest.raises(InputError, match="measure.values.b"):
            parse_instance(density_obj({"b": bad}, lattice))
        with pytest.raises(InputError, match="measure.tail"):
            parse_instance(make_obj(lattice, kind="tail", exceptions={},
                                    tail=bad, infinite_mass="0"))

    def test_tail_density_takes_element_names(self):
        chain = FinitePoset.chain(3)
        assert (TailDensity(chain, {0: "2"}, "1", "2")
                == TailDensity(chain, {0: 2}, 1, 2))

    def test_density_on_countable_rejected(self):
        with pytest.raises(InputError):
            parse_instance(make_obj(kind="density", values={}))

    def test_file_loading(self, tmp_path, mu1):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(serialize_instance(mu1)))
        assert load_instance(str(path)) == mu1

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(InputError) as exc:
            load_instance(str(path))
        assert "line" in str(exc.value)

    @pytest.mark.parametrize("data", [
        b"\xff{}", b"[" * 100000, b'{"lattice": ' + b"9" * 5000 + b"}"])
    def test_unreadable_json_is_an_input_error(self, tmp_path, data):
        # bytes that are not UTF-8, nesting past the recursion limit, a
        # number past the digit limit of int()
        path = tmp_path / "unreadable.json"
        path.write_bytes(data)
        with pytest.raises(InputError, match="not readable JSON"):
            load_instance(str(path))

    def test_exception_key_past_the_digit_limit_is_over_budget(self):
        with pytest.raises(BudgetError, match="5000 digits"):
            parse_instance(make_obj(kind="tail", exceptions={"9" * 5000: "1"},
                                    tail="0", infinite_mass="0"))


class TestRoundTrip:
    def test_fixtures(self, mu1, mu2, eta, theta, rho):
        for m in (mu1, mu2, eta, theta, rho):
            assert parse_instance(serialize_instance(m)) == m

    def test_serialized_form_is_sorted_json_stable(self, rho):
        a = json.dumps(serialize_instance(rho), sort_keys=True)
        b = json.dumps(serialize_instance(rho), sort_keys=True)
        assert a == b

    def test_nonchain_lattice_round_trips(self):
        d = FinitePoset.diamond()
        obj = serialize_lattice(d)
        assert obj["kind"] == "finite"
        assert parse_lattice(obj) == d

    def test_extreal_round_trips(self):
        assert parse_lattice(serialize_lattice(EXT_REALS)) is EXT_REALS

    def test_space_round_trips(self, sier):
        assert parse_space({"kind": "finite", "points": ["a", "b"],
                            "subbasis": [["b"]]}) == sier

