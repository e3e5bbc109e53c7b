"""serialize.dumps against its oracle, json.dumps(x, indent=2, sort_keys=True):
the same text for every input json accepts, and TypeError where json raises
it.  The golden files and the CLI reports are checked in tests/test_golden.py
and tests/test_report.py."""

import ast
import enum
import json
import math
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from liebend import serialize

SRC = Path(__file__).resolve().parent.parent / "src" / "liebend"

# characters a string draws from: ASCII, quotes and backslashes, control
# characters, and non-ASCII up to the astral planes (surrogate pairs)
CHARS = list("abcXYZ09 _-/") + ['"', "\\", "\n", "\t", "\r", "\x00", "\x1f", "\x7f",
                                  "é", "Λ", "ρ", " ", "中", "\U0001d4b3"]


def oracle(x):
    return json.dumps(x, indent=2, sort_keys=True)


class Level(enum.IntEnum):
    LOW = 1


class Text(str):
    pass


class Real(float):
    pass


def random_float(rng):
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return float(rng.normal() * 10.0 ** int(rng.integers(-30, 30)))
    if kind == 1:
        return float(rng.integers(-5, 6))  # integral floats such as 3.0
    if kind == 2:
        return [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 1.7976931348623157e308][
            int(rng.integers(0, 7))]
    return float(rng.uniform(-300.0, 300.0))


def random_string(rng):
    return "".join(CHARS[int(i)] for i in rng.integers(0, len(CHARS), int(rng.integers(0, 8))))


def random_scalar(rng):
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return None
    if kind == 2:
        return bool(rng.integers(0, 2))
    if kind == 3:
        return int(rng.integers(-10 ** 6, 10 ** 6)) * 10 ** int(rng.integers(0, 30))
    return random_float(rng)


def random_block(rng):
    """A rectangular nested list of floats, sometimes spoilt by one leaf."""
    def nested(shape):
        if len(shape) == 1:
            return [random_float(rng) for _ in range(shape[0])]
        return [nested(shape[1:]) for _ in range(shape[0])]

    block = nested([int(n) for n in rng.integers(1, 5, int(rng.integers(1, 4)))])
    if rng.random() < 0.3:
        row = block
        while isinstance(row[0], list):
            row = row[int(rng.integers(0, len(row)))]
        row[int(rng.integers(0, len(row)))] = [1, True, None, "x", [], np.float64(2.5)][
            int(rng.integers(0, 6))]
    return block


def random_key(rng, kind):
    if kind == "str":
        return random_string(rng)
    if kind == "int":
        return int(rng.integers(-50, 50))
    return random_float(rng)


def random_tree(rng, depth):
    kind = int(rng.integers(0, 6)) if depth > 0 else 0
    if kind <= 1:
        return random_scalar(rng)
    if kind == 2:
        return random_block(rng)
    children = [random_tree(rng, depth - 1) for _ in range(int(rng.integers(0, 5)))]
    if kind == 3:
        return children if rng.random() < 0.8 else tuple(children)
    key_kind = ("str", "str", "int", "float")[int(rng.integers(0, 4))]
    return {random_key(rng, key_kind): child for child in children}


def test_random_trees_match_json():
    rng = np.random.default_rng(20)
    for _ in range(400):
        tree = random_tree(rng, 4)
        assert serialize.dumps(tree) == oracle(tree)


EDGE_CASES = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 1e16, 0.1, 2.0 ** 70,
    [math.nan, 1.0], [[1.0, math.inf], [-math.inf, 0.0]], [-0.0, 5e-324, 1e22],
    [], {}, [[]], [{}], [[], []], {"a": []}, {"a": {}}, [[[]]], [[1.0], []],
    (), (1.0, 2.0), [(1.0, 2.0), (3.0, 4.0)], ((),), {"t": (1, "x", None)},
    [[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]], [[[1.0, 2.0]], [[3.0]]], [[1.0, 2.0], 3.0],
    [1.0, 2], [1.0, True], [1.0, None], [[1.0, 2.0], [3.0, False]], [1e308, 1e308],
    np.float64(1.5), [np.float64(0.1), 2.0], {"x": np.float64(-0.0)}, [np.float64("nan")],
    Real(0.25), [Real(1.0)], Text("é"), {Text("k"): 1}, Level.LOW, {"e": Level.LOW},
    OrderedDict([("b", 1), ("a", [2.0])]),
    "plain", "quote \" back \\ slash", "tab\tnew\nline\r\x00\x1f\x7f", "é Λ ρ 中 \U0001d4b3",
    {"é": "Λ", "\n": 0, '"': 1}, 0, -1, 2 ** 100, True, False, None,
    {1: "a", 2: "b", -3: "c"}, {1.5: 0, math.nan: 1, -math.inf: 2}, {True: 0, False: 1},
    {None: 0}, {True: 1, 2: 2},
]


@pytest.mark.parametrize("value", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases_match_json(value):
    assert serialize.dumps(value) == oracle(value)


UNSUPPORTED = [object(), {1, 2}, Fraction(1, 2), 1j, b"bytes", np.int64(3), np.bool_(True),
               np.array([1.0]), [1.0, object()], {"k": {2}}, {(1, 2): 0}, {"a": 1, 2: 0}]


@pytest.mark.parametrize("value", UNSUPPORTED, ids=range(len(UNSUPPORTED)))
def test_unsupported_types_raise_type_error(value):
    with pytest.raises(TypeError) as expected:
        oracle(value)
    with pytest.raises(TypeError) as got:
        serialize.dumps(value)
    assert str(got.value) == str(expected.value)


def _indented_dumps(tree):
    """Lines of json.dump/json.dumps calls that pass indent."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and any(kw.arg == "indent" for kw in node.keywords)]


def test_src_has_one_indented_writer():
    found = {path.name: _indented_dumps(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_an_indented_json_dumps_is_reported():
    source = "import json\ntext = json.dumps({}, sort_keys=True, indent=2)\n"
    assert _indented_dumps(ast.parse(source)) == [2]
