"""No module in src/liebend imports mpmath: the high-precision lane computes
on the integer kernel, and mpmath is only the tests' oracle (the `test`
extra in pyproject.toml).  The scan reads the source, so an import inside a
function body counts too."""

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


def mpmath_imports(sources):
    """"module:line" of every import of mpmath or a submodule of it in
    sources ({module name: source text})."""
    return [f"{mod}:{node.lineno}" for mod, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if any(name == "mpmath" or name.startswith("mpmath.")
                   for name in _imported_modules(node))]


def _package_sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_no_module_imports_mpmath():
    assert mpmath_imports(_package_sources()) == []


def test_an_mpmath_import_is_reported():
    sources = _package_sources()
    sources["bending"] += "\n\ndef _late():\n    import mpmath.libmp as lm\n    return lm\n"
    sources["sl2"] += "\nfrom mpmath import mp\n"
    sources["weyl"] += "\nimport importlib\nmp = importlib.import_module('mpmath')\n"
    sources["report"] += "\nimport mpmathx\nfrom .mpmath import mp\n"  # neither is mpmath
    assert [m.split(":")[0] for m in mpmath_imports(sources)] == ["bending", "sl2", "weyl"]


def test_runtime_dependencies_are_numpy_and_scipy():
    """mpmath is a test dependency only."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy", "scipy"]
    assert any(dep.startswith("mpmath") for dep in project["optional-dependencies"]["test"])
