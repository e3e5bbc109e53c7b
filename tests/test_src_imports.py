"""No module in src/liebend imports mpmath or scipy: the high-precision lane
computes on the integer kernel and the float lane's matrix exponential is
`algebra.expm`, so both are only the tests' oracles (the `test` extra in
pyproject.toml).  The scan reads the source, so an import inside a function
body counts too."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liebend"


def _imported_modules(node):
    """The absolute module names an AST node imports, if it imports any:
    import statements, and import_module / __import__ calls on a string."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    if (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")):
        return [node.args[0].value]
    return []


def imports_of(package, sources):
    """"module:line" of every import of package or a submodule of it in
    sources ({module name: source text})."""
    return [f"{mod}:{node.lineno}" for mod, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if any(name == package or name.startswith(package + ".")
                   for name in _imported_modules(node))]


def _package_sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_no_module_imports_mpmath():
    assert imports_of("mpmath", _package_sources()) == []


def test_no_module_imports_scipy():
    assert imports_of("scipy", _package_sources()) == []


def test_an_mpmath_import_is_reported():
    sources = _package_sources()
    sources["bending"] += "\n\ndef _late():\n    import mpmath.libmp as lm\n    return lm\n"
    sources["sl2"] += "\nfrom mpmath import mp\n"
    sources["weyl"] += "\nimport importlib\nmp = importlib.import_module('mpmath')\n"
    sources["report"] += "\nimport mpmathx\nfrom .mpmath import mp\n"  # neither is mpmath
    assert [m.split(":")[0] for m in imports_of("mpmath", sources)] == ["bending", "sl2", "weyl"]


def test_runtime_dependency_is_numpy():
    """mpmath and scipy are test dependencies only."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    test_deps = project["optional-dependencies"]["test"]
    assert [pkg for pkg in ("mpmath", "scipy")
            if not any(dep.startswith(pkg) for dep in test_deps)] == []
