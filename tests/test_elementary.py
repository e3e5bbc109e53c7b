"""The elementary functions of `elementary`, pi and cos_sin, are correctly
rounded: each value is the one mpmath gives at 120 bits more, rounded once
to the precision (a double rounding that differs would need a value within
2**-120 ulp of a rounding boundary).  Seeded arguments, 3,400 per
precision, at the precisions the verification lane uses (136 bits for dps
40, 156 for its twists) and at 253 bits."""

import random

import pytest

from liebend import elementary as el

from conftest import from_pair, mp_pair

PRECS = [136, 156, 253]
COUNT = 3400


def _rounded(f, args, prec):
    """f(*args) at prec + 120 bits rounded to prec bits, as a normal pair."""
    import mpmath as mp
    with mp.workprec(prec + 120):
        v = f(*args)
    with mp.workprec(prec):
        return el._normal(*mp_pair(+v))


def _dyadic(rng, prec, lo, hi, sign=True):
    """A prec-bit odd mantissa times a power of two, of size 2**lo to 2**hi."""
    m = rng.getrandbits(prec) | 1 << (prec - 1) | 1
    m = -m if sign and rng.random() < 0.5 else m
    return m, rng.randint(lo, hi) - prec


def _near(rng, prec, target):
    """The prec-bit dyadic nearest target (an mpf), nudged by a few ulps:
    arguments where cos or sin nearly vanish."""
    import mpmath as mp
    with mp.workprec(prec):
        m, e = mp_pair(+target)
    shift = prec - abs(m).bit_length()  # a mantissa of prec bits, then the nudge
    return (m << shift) + rng.randint(-3, 3), e - shift


def _reals(rng, prec):
    """Seeded arguments, near multiples of pi / 2 every fourth one."""
    import mpmath as mp
    with mp.workprec(prec + 40):
        return [_dyadic(rng, prec, -30, 12) if i % 4 else
                _near(rng, prec, (rng.randint(-200, 200) or 1) * mp.pi / 2)
                for i in range(COUNT)]


@pytest.mark.parametrize("prec", PRECS)
def test_pi_is_correctly_rounded(prec):
    import mpmath as mp
    for p in list(range(2, 80)) + [prec, prec + 1, 1000]:
        assert el.pi(p) == _rounded(lambda: +mp.pi, (), p)


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("name", ["cos_sin"])
def test_real_functions_are_correctly_rounded(name, prec):
    import mpmath as mp
    rng = random.Random(f"{name}-{prec}")
    for x in _reals(rng, prec):
        assert el.cos_sin(x, prec) == (_rounded(mp.cos, [from_pair(x)], prec),
                                       _rounded(mp.sin, [from_pair(x)], prec)), x


def test_zero_arguments_are_exact():
    assert el.cos_sin((0, 0), 53) == ((1, 0), (0, 0))


def test_rounding_at_a_power_of_two_is_decided():
    """Both ends of a bracket that round to the same power of two, one from
    below, compare equal as normal pairs: cos of an argument near pi / 3,
    where cos is 1/2, ends its loop."""
    import mpmath as mp
    for prec in (20, 53, 136):
        with mp.workprec(prec + 200):
            x = _near(random.Random(prec), prec + 100, mp.pi / 3)
        x = el._normal(*el._fit(*x, prec + 100))
        cos = el.cos_sin(x, prec)[0]
        assert cos == (1, -1)
        assert cos == _rounded(mp.cos, [from_pair(x)], prec)


@pytest.mark.parametrize("w", [30, 100, 200])
def test_brackets_contain_the_value(w):
    """Each fixed-point evaluation's stated bound holds: the exact value lies
    within err units of v.  This is what makes the rounding correct, and the
    bound is the radius a ball arithmetic would carry."""
    import mpmath as mp
    rng = random.Random(w)

    def within(v, err, exp, want):
        with mp.workprec(2 * w + 400):
            return abs(mp.mpf(v) * mp.mpf(2) ** exp - want) <= err * mp.mpf(2) ** exp

    for i in range(300):
        x = _dyadic(rng, 60, -30, 8)
        with mp.workprec(2 * w + 400):
            ax = from_pair(x)
            cos, sin = mp.cos(ax), mp.sin(ax)
        c, s, err, cw = el._cos_sin_fixed(x, w)
        assert within(c, err, -cw, cos) and within(s, err, -cw, sin), x
    with mp.workprec(2 * w + 400):
        assert within(el._pi_fixed(w), 2, -w, +mp.pi)
