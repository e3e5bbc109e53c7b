"""Every function, method, class and module-level constant in src/liebend is
referenced somewhere in src outside its own body, and every Config field is
read somewhere in src.

References to a module-level function or class are resolved through the
imports: it is reached by a Name in its own module, by `from .mod import
name` in another module, or by `mod.name` where `from . import mod` (or
`from . import mod as alias`) binds the module.  `liebend/__init__.py` is
not a caller: what it re-exports must still be reached from elsewhere.

A Name that a function, lambda or comprehension binds (a parameter, an
assignment or loop target, an import, a nested def) is local there, so it
does not reach the module-level definition of the same name.

Methods and functions nested in other functions are matched by name alone:
a method by any attribute of its name (so every `coordinates` method counts
as reached by `alg.coordinates(...)`), a nested function by any Name of its
name in its module.  A method that only tests call can pass this way.

Exempt are dunder methods (`__post_init__` among them) and `cli.main`, the
console entry point.  Two callers outside src count as well: the benchmark,
`perfbench/*.py`, which drives the package from outside, and the acceptance
gate, `tests/test_acceptance.py` (its property suites call `mu`,
`lyapunov`, `in_b_plus`, `cartan_involution` and `contains_vector`).  A
module-level definition is exempt when one of them imports it from
`liebend` by name, or when the tracer's `LAYERS` lists it; a method when one
of them holds its name.  The exemptions are computed here from those files,
not listed by hand.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
           ast.DictComp, ast.GeneratorExp)


def _binds(scope):
    """The names a function, lambda or comprehension binds, outside the
    functions nested in it."""
    names = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                 + [a for a in (args.vararg, args.kwarg) if a]}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _free_names(node, bound=frozenset()):
    """The Name nodes under node that no enclosing function, lambda or
    comprehension binds: only those can reach a module-level definition."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            if child.id not in bound:
                yield child
        else:
            yield from _free_names(child, bound | _binds(child)
                                   if isinstance(child, _SCOPES) else bound)


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
        for node in _free_names(tree):
            qualified[(mod, node.id)].append((mod, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare[("name", node.id)].append((mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                bare[("attr", node.attr)].append((mod, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    qualified[(aliases[node.value.id], node.attr)].append((mod, node.lineno))
    return qualified, bare


def _exemptions(callers):
    """(definitions, names): the (module, name) pairs of the module-level
    definitions that the caller files import from `liebend` by name or that
    the tracer's LAYERS lists, with `cli.main`; and every identifier in the
    caller files, which exempts a method of that name."""
    definitions, names = {("cli", "main")}, set()
    for path in callers:
        text = path.read_text()
        names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("liebend."):
                definitions.update((node.module.split(".")[1], a.name) for a in node.names)
            elif (isinstance(node, ast.Assign) and path.name == "tracer.py"
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]):
                definitions.update((mod, fn.split(".")[0])
                                   for mod, fns in ast.literal_eval(node.value).items()
                                   for fn in fns)
    return definitions, names


def _callers(acceptance=True):
    return sorted((ROOT / "perfbench").glob("*.py")) + (
        [ROOT / "tests" / "test_acceptance.py"] if acceptance else [])


def unreferenced(sources, exempt=None):
    """Names of the definitions in sources ({module name: source text}) that
    no reference outside their own body reaches, as "module:line name"."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    qualified, bare = _references(trees)
    definitions, names = _exemptions(_callers()) if exempt is None else exempt
    missing = []
    for mod, tree in trees.items():
        for name, node, kind in _definitions(tree):
            exempt = ((mod, name) in definitions if kind == "module"
                      else kind == "method" and name in names)
            if exempt or (name.startswith("__") and name.endswith("__")):
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


def test_a_local_of_the_same_name_is_not_a_caller():
    """A parameter or an assignment target named like a module-level def is
    local to its function and does not reach the def; a free Name does."""
    sources = _package_sources()
    sources["sl2"] += ("\n\ndef _counted(rows):\n    return len(rows)\n"
                       "\n\ndef _assigns(rows):\n    _counted = len(rows)\n    return _counted\n"
                       "\n\ndef _takes(_counted):\n    return [_counted for _counted in _counted]\n"
                       "\n\ndef _reached():\n    pass\n"
                       "\n\ndef _reads(rows):\n    return [_reached for _ in rows]\n")
    found = {m.split()[1] for m in unreferenced(sources)}
    assert found == {"_counted", "_assigns", "_takes", "_reads"}


def test_the_acceptance_gate_keeps_mu_lyapunov_and_in_b_plus():
    """Without the acceptance-gate exemption, exactly the names that only
    its property suites call are reported."""
    found = {m.split()[1] for m in unreferenced(_package_sources(),
                                                _exemptions(_callers(acceptance=False)))}
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
