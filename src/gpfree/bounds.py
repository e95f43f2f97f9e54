"""Closed-form envelopes and constants used to compare against experiments.

Everything involving log log x is restricted to x >= 16 ( > e**e ), which
keeps the double log comfortably away from its singularity.
"""

from __future__ import annotations

import math

from .errors import DomainError

MIN_X = 16.0


def _check_x(x: float) -> None:
    if not MIN_X <= x < math.inf:
        raise DomainError(f"x must be finite and >= {MIN_X:g}, got {x}")


def _check_positive(name: str, v: float) -> None:
    # written so that NaN fails too
    if not 0 < v < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {v}")


def _growth(x: float, c: float) -> float:
    """exp(c * log x / log log x), with a float overflow reported as a DomainError."""
    lx = math.log(x)
    v = c * lx / math.log(lx)
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError(f"exp({v:g}) overflows a float") from None


def C_ij(i: int, j: int) -> float:
    """log(2) * (1/i + 1/j); C_ij(2, 3) is exactly (5/6) log 2.

    (i + j) / (i * j) is one correctly rounded int division, the same float
    as float(Fraction(1, i) + Fraction(1, j)).
    """
    if i < 1 or j < 1:
        raise DomainError(f"exponents must be >= 1, got ({i}, {j})")
    return math.log(2) * ((i + j) / (i * j))


C_2_3 = C_ij(2, 3)  # the paper's C = (5/6) log 2, computed once


def h_short(x: float, i: int, j: int, epsilon: float) -> float:
    """Short-interval length exp((C_{i,j} + 2*eps) * log x / log log x)."""
    _check_x(x)
    _check_positive("epsilon", epsilon)
    return _growth(x, C_ij(i, j) + 2 * epsilon)


def gap_envelope(x: float, epsilon: float, c_eps: float) -> float:
    """C_eps * exp((C_{2,3} + eps) * log x / log log x), the headline gap bound."""
    _check_x(x)
    _check_positive("epsilon", epsilon)
    _check_positive("C_eps", c_eps)
    v = c_eps * _growth(x, C_2_3 + epsilon)
    if v == math.inf:
        raise DomainError(f"C_eps * exp(...) overflows a float at x = {x:g}")
    return v


def survival_bound(x: float, C: float, E: float, epsilon: float) -> float:
    """exp(-C*E*exp((C_{2,3}+eps) log x / log log x)); C and E are fit parameters."""
    _check_x(x)
    if not (0 <= C < math.inf and 0 <= E < math.inf):  # NaN fails too
        raise DomainError(f"C and E must be nonnegative and finite, got {C} and {E}")
    _check_positive("epsilon", epsilon)
    return math.exp(-C * E * _growth(x, C_2_3 + epsilon))


def p_default(x: int) -> float:
    """The nondecreasing removal bias 1 - 1/log(x + 2), defined for x >= 2."""
    if x <= 1:
        raise DomainError(f"p_default needs x >= 2, got {x}")
    return 1.0 - 1.0 / math.log(x + 2)
