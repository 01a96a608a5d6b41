"""Test helper: the value of an oracle polynomial at an exact point."""

import math
from fractions import Fraction


def poly_value(poly, xs):
    """Sum of coeff * x^mono over `poly.terms`; each coordinate is read by
    `Fraction`, so "p/q" strings are accepted."""
    xs = [Fraction(x) for x in xs]
    assert len(xs) == poly.arity
    return sum(
        (c * math.prod(x**e for x, e in zip(xs, mono)) for mono, c in poly.terms.items()),
        Fraction(0),
    )
