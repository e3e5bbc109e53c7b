"""Every function, method and class in src/liebend is referenced somewhere in
src outside its own body.

A reference is a name or an attribute with the definition's name, matched by
name alone.  Exempt are dunder methods (`__post_init__` among them), the
names `liebend/__init__.py` binds, `cli.main`, and every identifier that
appears in `perfbench/*.py`, the benchmark that drives the package from
outside (its tracer wraps functions by name).  The exemptions are computed
here from those files, not listed by hand.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liebend"


def _definitions(tree):
    """(name, node) for every function, method and class, nested ones too."""
    return [(node.name, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(trees):
    """name -> [(module, line)] of every Name and Attribute in the modules."""
    out = collections.defaultdict(list)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out[node.id].append((mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                out[node.attr].append((mod, node.lineno))
    return out


def _exempt_names():
    names = {"main"}  # cli.main, the console entry point
    init = ast.parse((SRC / "__init__.py").read_text())
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    return names


def unreferenced(sources):
    """Names of the definitions in sources ({module name: source text}) that
    no reference outside their own body reaches, as "module:line name"."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = _references(trees)
    exempt = _exempt_names()
    missing = []
    for mod, tree in trees.items():
        for name, node in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or name in exempt:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(other != mod or line not in inside for other, line in refs[name]):
                missing.append(f"{mod}:{node.lineno} {name}")
    return missing


def _package_sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_definition_has_a_caller_in_src():
    assert unreferenced(_package_sources()) == []


def test_an_uncalled_function_is_reported():
    sources = _package_sources()
    sources["sl2"] += "\n\ndef _nothing_calls_this(x):\n    return _nothing_calls_this(x)\n"
    assert [m.split()[1] for m in unreferenced(sources)] == ["_nothing_calls_this"]
