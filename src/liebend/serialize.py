"""JSON formats: matrices as row arrays, complex entries as [re, im], rationals as strings.

Floats are rounded to 17 significant digits before encoding so that reports are
byte-stable and round-trip exactly.
"""

from fractions import Fraction

import numpy as np


def f17(x):
    return float(format(float(x), ".17g"))


def matrix_to_json(m):
    m = np.asarray(m)
    if np.iscomplexobj(m):
        return [[[f17(z.real), f17(z.imag)] for z in row] for row in m]
    return [[f17(x) for x in row] for row in m]


def matrix_from_json(rows):
    if rows and rows[0] and isinstance(rows[0][0], (list, tuple)):
        return np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    return np.array(rows, dtype=float)


def rational_to_str(x):
    return str(Fraction(x))


def rationals_to_json(vec):
    return [rational_to_str(x) for x in vec]


def rationals_from_json(items):
    return tuple(Fraction(s) for s in items)
