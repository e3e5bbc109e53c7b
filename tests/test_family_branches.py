"""The family is decided where each family is built: every other step reads
data.  The algebra carries its hermitian form (`form`, None for sl) and
a's place on the diagonal (`a_diagonal`); the torus carries its sign
vectors, trace rows and staircase, the basis its dtype.
The scan reads the source and lists each branch on the family: an `if`,
`while`, conditional-expression or comprehension test, or a flag assigned
from a comparison, that reads `.family`, `.is_complex`, `SL` or `SU`.  The
(module, function) set must be the allowlist below."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liebend"

ALLOWED = {
    ("algebra", "make_algebra"): "input validation: each family's parameter ranges",
    ("algebra", "_shared_algebra"): "the family's construction: its form, a_diagonal and basis",
    ("report", "cmd_check"): "sec53's even-witness search runs over sl's partitions",
    ("sl2", "sl2_from_partition"): "input validation: partition triples live in sl",
    ("sl2", "rho1_su"): "input validation: rho1 lives in su",
    ("sl2", "rho2_su"): "input validation: rho2 lives in su",
    ("sl2", "property_star_basis"): "gl(m,R) classes in sl, u(V+, V-) classes in su",
    ("weyl", "split_torus"): "the family's construction: roots, signs, staircase",
}
FAMILY_NAMES = {"SL", "SU"}
FAMILY_ATTRS = {"family", "is_complex"}


def _reads_family(node):
    return any(isinstance(n, ast.Attribute) and n.attr in FAMILY_ATTRS
               or isinstance(n, ast.Name) and n.id in FAMILY_NAMES for n in ast.walk(node))


def _tests(node):
    """The expressions a node branches on: its test, a comprehension's
    conditions, or the value of a comparison bound to a name."""
    if isinstance(node, (ast.If, ast.IfExp, ast.While)):
        return [node.test]
    if isinstance(node, ast.comprehension):
        return node.ifs
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Compare):
        return [node.value]
    return []


def family_branches(tree, module):
    """(module, function, line) of every branch on the family; function is
    the dotted name of the enclosing class and function ("" at module
    level), nested functions folded into the one that holds them."""
    found = []

    def visit(node, where, in_class):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, ast.ClassDef):
                inner = child.name
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}" if in_class else where or child.name
            found.extend((module, inner, test.lineno) for test in _tests(child)
                         if _reads_family(test))
            visit(child, inner, isinstance(child, ast.ClassDef))
    visit(tree, "", False)
    return found


def _src_branches():
    return [site for path in sorted(SRC.glob("*.py"))
            for site in family_branches(ast.parse(path.read_text()), path.stem)]


def test_family_branches_are_the_allowlist():
    assert {(module, function) for module, function, _ in _src_branches()} == set(ALLOWED)


def test_at_most_eight_branches_and_none_in_the_torus_methods():
    sites = _src_branches()
    assert len(sites) <= 8
    assert not [s for s in sites if s[1].startswith("SplitTorusData.")]


def test_a_branch_on_the_family_is_reported():
    source = ("class T:\n"
              "    def order(self):\n"
              "        return 2 if self.algebra.family == SU else 1\n"
              "\n"
              "def f(alg):\n"
              "    su = alg.family == 'su'\n"
              "    def g():\n"
              "        while alg.is_complex:\n"
              "            pass\n"
              "    return [x for x in alg.params if SL]\n"
              "\n"
              "if SU:\n"
              "    pass\n")
    assert family_branches(ast.parse(source), "m") == [
        ("m", "T.order", 3), ("m", "f", 6), ("m", "f", 8), ("m", "f", 10), ("m", "", 12)]
