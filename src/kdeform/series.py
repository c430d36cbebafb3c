"""Series functions on algebra elements under a finite truncation.

Under a finite truncation (N_h, N_xi), any element all of whose coefficients
carry positive total bigrade deg_h + deg_xi is nilpotent: its k-th power dies
once k > N_h + N_xi.  That makes Maclaurin series of 1/(1+t), sqrt(1+t),
log(1+t) and exp(t) finite sums, evaluated here with exact rational
coefficients.

The inputs are ``ncalg.TensorElement`` values of any rank (algebra elements
are the rank-1 case); each series unit takes the input's rank.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import KdeformError
from .ncalg import TensorElement


def _nilpotency_bound(x):
    if x.trunc is None:
        raise KdeformError("series expansion needs a finite truncation")
    return x.trunc[0] + x.trunc[1]


def _check_positive_bigrade(x, what):
    for key, coeff in x.by_legs().items():
        for (a, b) in coeff.terms:
            if a + b < 1:
                raise KdeformError(
                    "%s needs positive total bigrade in every term; "
                    "found h^%d xi^%d on %r" % (what, a, b, key)
                )


def perturbation_part(u):
    """n = u - 1, checked to be nilpotent (positive total bigrade terms)."""
    n = u - TensorElement.one(u.pres, u.rank, u.trunc)
    _check_positive_bigrade(n, "unital series")
    return n


def _maclaurin(n, coeff_fn):
    """sum_k coeff_fn(k) * n^k, k = 0 .. nilpotency bound, for a nilpotent
    n (positive total bigrade in every term)."""
    one = TensorElement.one(n.pres, n.rank, n.trunc)
    total = one * Fraction(coeff_fn(0))
    power = one
    for k in range(1, _nilpotency_bound(n) + 1):
        power = power * n
        if power.is_zero():
            break
        c = coeff_fn(k)
        if c:
            total = total + power * Fraction(c)
    return total


def unital_inverse(u):
    """(1 + n)^(-1) as a terminating geometric series."""
    return _maclaurin(perturbation_part(u), lambda k: (-1) ** k)


def unital_sqrt(u):
    """(1 + n)^(1/2) via the binomial series."""

    def binom_half(k):
        num = Fraction(1)
        x = Fraction(1, 2)
        for j in range(k):
            num *= (x - j) / (j + 1)
        return num

    return _maclaurin(perturbation_part(u), binom_half)


def unital_log(u):
    """log(1 + n) as a terminating series."""
    return _maclaurin(
        perturbation_part(u), lambda k: Fraction((-1) ** (k + 1), k) if k else 0
    )


def unital_power(u, k):
    """Integer power of a unital perturbation; negative k goes through the
    inverse."""
    if k < 0:
        u = unital_inverse(u)
        k = -k
    out = TensorElement.one(u.pres, u.rank, u.trunc)
    for _ in range(k):
        out = out * u
    return out


def exp_nilpotent(x):
    """exp(x) for x with positive total bigrade in every coefficient."""
    _check_positive_bigrade(x, "exp")
    return _maclaurin(x, lambda k: Fraction(1, factorial(k)))
