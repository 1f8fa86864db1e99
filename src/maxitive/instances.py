"""Instance files.

An instance couples a lattice, a space, and a measure.  On disk it is
a JSON object with those three keys.  Lattice elements travel as
element names for finite lattices and as fraction strings ("p/q",
"inf") for the extended rationals; sets of points travel as arrays of
point names.  Every measure value, in a density or a tail, goes
through the lattice's coerce, so a finite lattice also takes an
in-range integer index.  Parse errors always name the offending field.
"""

from __future__ import annotations

import json

from .countable import COUNTABLE, TailDensity
from .errors import BudgetError, InputError
from .measure import MaxitiveMeasure
from .order import EXT_REALS, FinitePoset
from .topology import FiniteSpace


def _need(obj, field, where):
    if not isinstance(obj, dict):
        raise InputError(f"field {where!r} must be an object")
    if field not in obj:
        raise InputError(f"missing field {where + '.' + field!r}")
    return obj[field]


def _at(where, build, *args):
    """build(*args), with an InputError it raises re-raised naming the
    field where."""
    try:
        return build(*args)
    except InputError as e:
        raise InputError(f"field {where!r}: {e}") from None


# pair tables take time cubic in the lattice size: analyze takes 0.4 s
# at 128 elements and over a minute at 1000 (2 cores, CPython 3.11)
_LATTICE_LIMIT = 128


# the flag witnesses of a tail density take time cubic in its exception
# count: analyze takes 0.15 s at 50 exceptions, 0.6 s at 100 and 3.5 s
# at 200 (2 cores, CPython 3.11)
_EXCEPTION_LIMIT = 100


def _check_lattice_size(n):
    if n > _LATTICE_LIMIT:
        raise BudgetError(f"lattices are built for at most {_LATTICE_LIMIT} "
                          f"elements, not {n}")


def parse_lattice(obj):
    kind = _need(obj, "kind", "lattice")
    if kind == "chain":
        size = _need(obj, "size", "lattice")
        # a bool is an int to Python, not a size here
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise InputError("field 'lattice.size' must be a positive integer")
        _check_lattice_size(size)
        return FinitePoset.chain(size)
    if kind == "finite":
        names = _need(obj, "names", "lattice")
        if (not isinstance(names, list)
                or not all(isinstance(s, str) for s in names)):
            raise InputError("field 'lattice.names' must be a list of strings")
        _check_lattice_size(len(names))
        pairs = _need(obj, "le", "lattice")
        try:
            return FinitePoset.from_pairs(names, [tuple(p) for p in pairs])
        except (TypeError, ValueError):
            raise InputError("field 'lattice.le' must be a list of name "
                             "pairs") from None
    if kind == "extreal":
        return EXT_REALS
    raise InputError(f"unknown lattice kind {kind!r} in field 'lattice.kind'")


def serialize_lattice(lat):
    if not lat.is_finite:
        return {"kind": "extreal"}
    if lat == FinitePoset.chain(lat.n):
        return {"kind": "chain", "size": lat.n}
    pairs = [[lat.name(a), lat.name(b)]
             for a in lat.values() for b in lat.values()
             if a != b and lat.le(a, b)]
    return {"kind": "finite", "names": list(lat.names), "le": pairs}


def parse_space(obj):
    kind = _need(obj, "kind", "space")
    if kind == "countable_discrete":
        return COUNTABLE
    if kind == "finite":
        points = _need(obj, "points", "space")
        if (not isinstance(points, list)
                or not all(isinstance(p, str) for p in points)):
            raise InputError("field 'space.points' must be a list of strings")
        index = {p: i for i, p in enumerate(points)}
        subbasis = _need(obj, "subbasis", "space")
        if (not isinstance(subbasis, list)
                or not all(isinstance(member, list)
                           and all(isinstance(p, str) for p in member)
                           for member in subbasis)):
            raise InputError("field 'space.subbasis' must be a list of "
                             "point-name arrays")
        masks = []
        for member in subbasis:
            m = 0
            for p in member:
                if p not in index:
                    raise InputError(f"unknown point {p!r} in field "
                                     f"'space.subbasis'")
                m |= 1 << index[p]
            masks.append(m)
        return FiniteSpace.from_subbasis(tuple(points), masks)
    raise InputError(f"unknown space kind {kind!r} in field 'space.kind'")


def serialize_space(space):
    if space is COUNTABLE or not space.is_finite:
        return {"kind": "countable_discrete"}
    return {"kind": "finite", "points": list(space.names),
            "subbasis": [list(space.point_names(u))
                         for u in space.opens_list]}


def parse_instance(obj):
    if not isinstance(obj, dict):
        raise InputError("an instance file must hold a JSON object")
    lattice = parse_lattice(_need(obj, "lattice", "instance"))
    space = parse_space(_need(obj, "space", "instance"))
    mobj = _need(obj, "measure", "instance")
    kind = _need(mobj, "kind", "measure")
    if kind == "density":
        if space is COUNTABLE:
            raise InputError("field 'measure.kind': density maps describe "
                             "finite spaces; use kind \"tail\" here")
        values = _need(mobj, "values", "measure")
        if not isinstance(values, dict):
            raise InputError("field 'measure.values' must map points or "
                             "atoms to lattice values")
        values = {key: _at(f"measure.values.{key}", lattice.coerce, v)
                  for key, v in values.items()}
        return _at("measure.values", MaxitiveMeasure.from_density,
                   space, lattice, values)
    if kind == "tail":
        if space is not COUNTABLE:
            raise InputError("field 'measure.kind': tail measures live on "
                             "the countable discrete space")
        exc_obj = _need(mobj, "exceptions", "measure")
        if not isinstance(exc_obj, dict):
            raise InputError("field 'measure.exceptions' must map naturals "
                             "to lattice values")
        if len(exc_obj) > _EXCEPTION_LIMIT:
            raise BudgetError(f"field 'measure.exceptions': tail measures "
                              f"take at most {_EXCEPTION_LIMIT} exceptions, "
                              f"not {len(exc_obj)}")
        exceptions = []
        for key, v in exc_obj.items():
            # decimal digits only: int() would also read "+3", " 3", "1_0"
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise InputError(f"field 'measure.exceptions': key {key!r} "
                                 f"is not a natural number")
            try:
                point = int(key)
            except ValueError:
                raise BudgetError(f"field 'measure.exceptions': a key of "
                                  f"{len(key)} digits is past int()'s "
                                  f"limit") from None
            exceptions.append((point, _at(f"measure.exceptions.{key}",
                                          lattice.coerce, v)))
        tail, mass = (_at(f"measure.{field}", lattice.coerce,
                          _need(mobj, field, "measure"))
                      for field in ("tail", "infinite_mass"))
        return MaxitiveMeasure.from_tail(
            _at("measure.exceptions", TailDensity,
                lattice, exceptions, tail, mass))
    raise InputError(f"unknown measure kind {kind!r} in field 'measure.kind'")


def serialize_instance(measure):
    return {"lattice": serialize_lattice(measure.lattice),
            "space": serialize_space(measure.space),
            "measure": measure.backend.serialize(measure)}


def instance_to_json(measure):
    return json.dumps(serialize_instance(measure), sort_keys=True, indent=2)


def load_instance(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read instance file: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"instance file is not valid JSON: "
                         f"line {e.lineno} column {e.colno}") from None
    except (ValueError, RecursionError) as e:
        # not UTF-8, a number past int()'s digit limit, or nested too deep
        raise InputError(f"instance file is not readable JSON: {e}") from None
    return parse_instance(obj)

