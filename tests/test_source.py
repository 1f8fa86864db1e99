"""Rules that hold for the package source as a whole."""

import ast
import re
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
    # a top-level *_literal function is a test oracle: in src/ only
    # another top-level *_literal function may name it, by a name, an
    # attribute or an import
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    oracles = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.endswith("_literal")}
    assert len(oracles) >= 8
    named = []
    for path, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name in oracles:
                continue
            for node in ast.walk(top):
                word = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if word in oracles:
                    named.append(f"{path.relative_to(PACKAGE)}:"
                                 f"{node.lineno}:{word}")
    assert named == []


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
