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


def rational_to_str(x):
    return str(Fraction(x))


def rationals_to_json(vec):
    return [rational_to_str(x) for x in vec]
