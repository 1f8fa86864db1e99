"""Rules that hold for the package source as a whole."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maxitive"


def test_no_assert_statements():
    # python -O strips assert statements, and with them any check
    # written as one; checks raise a MaxitiveError instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_top_level_definition_is_used():
    # code that nothing needs is deleted: each top-level function or
    # class of the package is named in src/, tests/ or bench/ outside
    # its own definition
    root = PACKAGE.parent.parent
    texts = {path: path.read_text()
             for folder in ("src", "tests", "bench")
             for path in sorted((root / folder).rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(texts[path], filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = texts[path].splitlines()
            start = min(d.lineno for d in [node, *node.decorator_list])
            del own[start - 1:node.end_lineno]
            if not (word.search("\n".join(own))
                    or any(word.search(text) for other, text in texts.items()
                           if other != path)):
                unused.append(f"{path.relative_to(PACKAGE)}:{node.name}")
    assert unused == []


def test_literal_oracles_stay_off_the_runtime_path():
    # a top-level *_literal function is a test oracle: each lives in
    # oracles.py, and no other module of the package imports that
    # module or names an oracle, by a name, an attribute or an import
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    oracles = {(path.name, node.name) for path, tree in trees.items()
               for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.endswith("_literal")}
    assert len(oracles) >= 8
    assert {module for module, _ in oracles} == {"oracles.py"}
    forbidden = {name for _, name in oracles} | {"oracles"}
    named = []
    for path, tree in trees.items():
        if path.name == "oracles.py":
            continue
        for node in ast.walk(tree):
            words = ([node.module or "", *(a.name for a in node.names)]
                     if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [])
            named.extend(f"{path.relative_to(PACKAGE)}:{node.lineno}:{w}"
                         for w in words if w.rpartition(".")[2] in forbidden)
    assert named == []


def test_no_dataclasses():
    # every cold process pays for a dataclass: the import of dataclasses
    # and inspect, and an exec of each class's generated methods.
    # Records subclass collections.namedtuple, and value classes
    # subclass order.Frozen
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Import)
             and any(a.name.partition(".")[0] == "dataclasses"
                     for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").partition(".")[0] == "dataclasses"]
    assert found == []


def test_at_most_nine_lru_caches():
    # an lru_cache at module or class level lives as long as the process;
    # a quantity is computed once per value through the keys of the nine
    # caches there are, not through new ones
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Name) and node.id == "lru_cache"
             or isinstance(node, ast.Attribute) and node.attr == "lru_cache"]
    assert 1 <= len(found) <= 9, found


def test_cli_import_loads_what_it_runs_and_nothing_else():
    # -S keeps site's own imports out of the count; bench/tracing looks
    # up harness among the modules the cli import loads
    script = ("import sys, maxitive.cli; print(sorted(name for name in "
              "('dataclasses', 'inspect', 'maxitive.oracles', "
              "'maxitive.harness') if name in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "['maxitive.harness']"


def test_lattice_kind_decided_in_order_only():
    # which kind of lattice a value belongs to is order.py's decision,
    # behind methods such as coerce: no other module tests a lattice or
    # a value for FinitePoset, ExtendedRationals or Ext, or for being
    # EXT_REALS
    kinds = {"FinitePoset", "ExtendedRationals", "Ext"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "order.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(),
                                       filename=str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                named = {n.id for n in ast.walk(node.args[1])
                         if isinstance(n, ast.Name)}
                hit = bool(named & kinds)
            elif isinstance(node, ast.Compare):
                hit = any(isinstance(op, (ast.Is, ast.IsNot))
                          and any(isinstance(n, ast.Name)
                                  and n.id == "EXT_REALS"
                                  for n in (left, right))
                          for op, left, right in zip(
                              node.ops, [node.left, *node.comparators],
                              node.comparators))
            else:
                continue
            if hit:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_countable_takes_only_space_predicates_from_topology():
    # the tail record is stated from two bits: no subfamily pool, mask
    # or filtered-family rule of topology.py runs on its hot path
    tree = ast.parse((PACKAGE / "countable.py").read_text())
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == "topology":
                taken += [a.name for a in node.names]
            taken += [a.name for a in node.names if a.name == "topology"]
        elif isinstance(node, ast.Import):
            taken += [a.name for a in node.names
                      if a.name.rpartition(".")[2] == "topology"]
    assert taken == ["SpacePredicates"]


def test_every_record_field_is_read():
    # a field of a namedtuple record that nothing reads is computed for
    # nothing: each is read as .field in src/, tests/ or bench/
    fields = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "namedtuple"):
                spec = node.args[1]
                names = (spec.value.replace(",", " ").split()
                         if isinstance(spec, ast.Constant)
                         else [e.value for e in spec.elts])
                fields += [(f"{path.name}:{node.args[0].value}", f)
                           for f in names]
    assert len(fields) >= 40
    root = PACKAGE.parent.parent
    read = {node.attr
            for folder in ("src", "tests", "bench")
            for path in sorted((root / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(),
                                           filename=str(path)))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert [f"{record}.{f}" for record, f in fields if f not in read] == []


def test_both_backends_answer_one_contract():
    # every method the package reads off a measure's backend exists on
    # both backends with the same parameters; value_table alone is
    # finite-only, read once, by MaxitiveMeasure._values
    from maxitive.countable import TAIL
    from maxitive.measure import FINITE
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute)
                    and ("backend" in (getattr(node.value, "id", None),
                                       getattr(node.value, "attr", None)))):
                reads.append((path.name, node.attr))
    names = {name for _, name in reads}
    assert len(names) >= 20

    def arity(backend, name):
        return len(inspect.signature(getattr(type(backend), name)).parameters)

    assert sorted(name for name in names for backend in (FINITE, TAIL)
                  if not hasattr(backend, name)) == ["value_table"]
    assert [path for path, name in reads if name == "value_table"] == \
        ["measure.py"]
    assert [name for name in sorted(names - {"value_table"})
            if arity(FINITE, name) != arity(TAIL, name)] == []
