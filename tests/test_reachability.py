"""Every function, method, class and module-level constant in src/liebend is
referenced somewhere in src outside its own body, and every Config field is
read somewhere in src.

References to a module-level function or class are resolved through the
imports: it is reached by a Name in its own module, by `from .mod import
name` in another module, or by `mod.name` where `from . import mod` (or
`from . import mod as alias`) binds the module.  `liebend/__init__.py` is
not a caller: what it re-exports must still be reached from elsewhere.

Methods and functions nested in other functions are matched by name alone:
a method by any attribute of its name (so every `coordinates` method counts
as reached by `alg.coordinates(...)`), a nested function by any Name of its
name in its module.  A method that only tests call can pass this way.

Exempt are dunder methods (`__post_init__` among them), `cli.main`, every
identifier in `perfbench/*.py`, the benchmark that drives the package from
outside (its tracer wraps functions by name), and every identifier in
`tests/test_acceptance.py`, the acceptance gate (its property suites call
`mu`, `lyapunov`, `in_b_plus`, `cartan_involution` and `contains_vector`).  The exemptions are computed here from
those files, not listed by hand.
"""

import ast
import collections
import dataclasses
import re
from pathlib import Path

from liebend.config import Config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liebend"
INIT = "__init__"


def _definitions(tree):
    """(name, node, kind) for every function, method and class, nested ones
    too, and every module-level constant (a Name bound by a module-level
    assignment, the assignment its node); kind is "module", "method" or
    "nested"."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = [(target.id, node, "module") for node in tree.body
           if isinstance(node, (ast.Assign, ast.AnnAssign))
           for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
           if isinstance(target, ast.Name)]

    def visit(node, kind):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, defs):
                out.append((child.name, child, kind))
                visit(child, "method" if isinstance(child, ast.ClassDef) else "nested")
            else:
                visit(child, kind)
    visit(tree, "module")
    return out


def _references(trees):
    """Where each definition may be referenced, as two maps to [(module,
    line)]: (module, name) for module-level names, resolved through the
    imports, and name for attributes (methods) and Names (nested
    functions)."""
    qualified = collections.defaultdict(list)
    bare = collections.defaultdict(list)
    for mod, tree in trees.items():
        if mod == INIT:
            continue
        aliases = {}  # local name -> module, from `from . import mod [as alias]`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        qualified[(node.module, alias.name)].append((mod, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                qualified[(mod, node.id)].append((mod, node.lineno))
                bare[("name", node.id)].append((mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                bare[("attr", node.attr)].append((mod, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    qualified[(aliases[node.value.id], node.attr)].append((mod, node.lineno))
    return qualified, bare


def _identifiers(paths):
    names = set()
    for path in paths:
        names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    return names


def _exempt_names():
    return {"main"} | _identifiers(  # cli.main, the console entry point
        sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])


def unreferenced(sources, exempt=None):
    """Names of the definitions in sources ({module name: source text}) that
    no reference outside their own body reaches, as "module:line name"."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    qualified, bare = _references(trees)
    exempt = _exempt_names() if exempt is None else exempt
    missing = []
    for mod, tree in trees.items():
        for name, node, kind in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or name in exempt:
                continue
            refs = {"module": qualified[(mod, name)],
                    "method": bare[("attr", name)],
                    "nested": [r for r in bare[("name", name)] if r[0] == mod]}[kind]
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(other != mod or line not in inside for other, line in refs):
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


def test_references_resolve_through_imports():
    """A same-named local or re-export elsewhere is not a caller; an import
    or a module attribute outside `__init__` is."""
    sources = _package_sources()
    sources["properness"] += "\n\ndef _shadowed():\n    pass\n"
    sources["highprec"] += "\n\ndef _local():\n    _shadowed = 1\n    return _shadowed\n"
    sources["sl2"] += "\n\ndef _exported():\n    pass\n"
    sources[INIT] += "from .sl2 import _exported\n"
    sources["weyl"] += "\n\ndef _imported():\n    pass\n\n\ndef _by_attribute():\n    pass\n"
    sources["bending"] += ("\n\ndef _use():\n    from .weyl import _imported\n"
                           "    from . import weyl as _w\n    return _imported, _w._by_attribute\n")
    found = {m.split()[1] for m in unreferenced(sources)}
    assert found == {"_use", "_local", "_shadowed", "_exported"}


def test_the_acceptance_gate_keeps_mu_lyapunov_and_in_b_plus():
    """Without the acceptance-gate exemption, exactly the names that only
    its property suites call are reported."""
    exempt = {"main"} | _identifiers(sorted((ROOT / "perfbench").glob("*.py")))
    found = {m.split()[1] for m in unreferenced(_package_sources(), exempt)}
    assert found == {"mu", "lyapunov", "in_b_plus", "cartan_involution", "contains_vector"}


def test_an_unread_constant_is_reported():
    """A module-level constant that nothing in src reads is reported, as
    a tolerance left behind by deleted code would be; one read by another
    module through an import is not."""
    sources = _package_sources()
    sources["sl2"] += "\n\nLEFT_BEHIND_TOL = 1e-7\nREAD_ELSEWHERE = 2\n"
    sources["bending"] += "\n\ndef _reader():\n    from .sl2 import READ_ELSEWHERE\n    return READ_ELSEWHERE\n"
    assert {m.split()[1] for m in unreferenced(sources)} == {"LEFT_BEHIND_TOL", "_reader"}


def test_every_config_field_is_read_in_src():
    """A Config field that no module but config.py reads is a knob that
    changes nothing."""
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "config.py":
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert [f.name for f in dataclasses.fields(Config) if f.name not in read] == []
