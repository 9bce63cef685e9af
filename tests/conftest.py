from fractions import Fraction

import pytest

from mixwidth import (
    BallSpec,
    Dimensions,
    Exponent,
    Instance,
    TargetSpace,
    parse_exponent,
    validate_instance,
)


def make_instance(m, k, n, q, sigma, balls):
    """Instance from text exponents: balls = [(p, theta, nu), ...]."""
    return validate_instance(
        Instance(
            Dimensions(m, k, n),
            TargetSpace(parse_exponent(q), parse_exponent(sigma)),
            tuple(
                BallSpec(parse_exponent(p), parse_exponent(t), float(nu))
                for p, t, nu in balls
            ),
        )
    )


def build(m, k, n, uq, vs, balls):
    """Instance from reciprocal exponents: balls = [(u, v, nu), ...]."""
    return validate_instance(
        Instance(
            Dimensions(m, k, n),
            TargetSpace(Exponent(Fraction(uq)), Exponent(Fraction(vs))),
            tuple(
                BallSpec(Exponent(Fraction(u)), Exponent(Fraction(v)), nu)
                for u, v, nu in balls
            ),
        )
    )


@pytest.fixture
def two_ball_instance():
    """The hand-derived instance: psi = 2 with tie set {0, 1, 3}."""
    return make_instance(4, 4, 4, "2", "2", [("inf", "2", 1.0), ("1", "2", 4.0)])


def frac(a, b=1):
    return Fraction(a, b)
