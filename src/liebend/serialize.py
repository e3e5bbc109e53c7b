"""JSON formats: matrices as row arrays, complex entries as [re, im], rationals as strings.

Floats are written as the shortest repr that reads back to the same float64,
so reports are byte-stable and round-trip exactly.  `dumps` is the one
writer of report text.
"""

import functools
import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

_INDENT = "  "


def matrix_to_json(m):
    """Rows of floats, or of [re, im] pairs for a complex matrix."""
    m = np.asarray(m)
    if np.iscomplexobj(m):
        return np.stack([m.real, m.imag], axis=-1).astype(float).tolist()
    return m.astype(float).tolist()


def rational_to_str(x):
    return str(Fraction(x))


def rationals_to_json(vec):
    return [rational_to_str(x) for x in vec]


def dumps(doc):
    """The text of json.dumps(doc, indent=2, sort_keys=True), without its
    pure-Python encoder: the same type order and the same TypeError for
    anything else.  A circular container is not detected (RecursionError,
    where json raises ValueError)."""
    out = []
    _write(doc, 0, out)
    return "".join(out)


def _float_str(x):
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_str(key):
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_str(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _float_block(value):
    """(shape, leaves) of a non-empty rectangular nested list whose leaves are
    all finite floats of exact type float, else None."""
    shape = []
    items = [value]
    while type(items[0]) is list:
        n = len(items[0])
        if not n or set(map(type, items)) != {list} or set(map(len, items)) != {n}:
            return None
        shape.append(n)
        items = list(chain.from_iterable(items))
    # a finite sum of floats has no inf or nan among its terms
    if set(map(type, items)) != {float} or not math.isfinite(sum(items)):
        return None
    return tuple(shape), items


@functools.lru_cache(maxsize=32)
def _block_template(shape, level):
    """The str.format template of a float block of this shape, opened at this
    indent level."""
    inner = "{}" if len(shape) == 1 else _block_template(shape[1:], level + 1)
    newline = "\n" + _INDENT * (level + 1)
    return "[" + newline + ("," + newline).join([inner] * shape[0]) + "\n" + _INDENT * level + "]"


# the text of a value whose type is exactly one of these
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write(value, level, out):
    """Append the pieces of value's text, opened at this indent level."""
    t = type(value)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        out.append(scalar(value))
    elif t is dict:
        _write_dict(value, level, out)
    elif t is list:
        _write_list(value, level, out)
    # subclasses and tuples, in json's order
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_str(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, level, out)
    elif isinstance(value, dict):
        _write_dict(value, level, out)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write_list(value, level, out):
    if not value:
        out.append("[]")
        return
    if type(value) is list and type(value[0]) in (list, float):
        block = _float_block(value)
        if block is not None:
            shape, leaves = block
            out.append(_block_template(shape, level).format(*map(float.__repr__, leaves)))
            return
    newline = "\n" + _INDENT * (level + 1)
    sep = "[" + newline
    for item in value:
        scalar = _SCALARS.get(type(item))
        if scalar is not None:
            out.append(sep + scalar(item))
        else:
            out.append(sep)
            _write(item, level + 1, out)
        sep = "," + newline
    out.append("\n" + _INDENT * level + "]")


def _write_dict(value, level, out):
    if not value:
        out.append("{}")
        return
    newline = "\n" + _INDENT * (level + 1)
    sep = "{" + newline
    for key, item in sorted(value.items()):
        head = sep + encode_basestring_ascii(key if type(key) is str else _key_str(key)) + ": "
        scalar = _SCALARS.get(type(item))
        if scalar is not None:
            out.append(head + scalar(item))
        else:
            out.append(head)
            _write(item, level + 1, out)
        sep = "," + newline
    out.append("\n" + _INDENT * level + "}")
