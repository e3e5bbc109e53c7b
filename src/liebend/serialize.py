"""JSON formats: matrices as row arrays, complex entries as [re, im], rationals as strings.

Floats are written as the shortest repr that reads back to the same float64,
so reports are byte-stable and round-trip exactly.
"""

from fractions import Fraction

import numpy as np


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
