"""Tests for terminating Maclaurin series on truncated algebra elements."""

from fractions import Fraction

import pytest

from kdeform.errors import KdeformError
from kdeform.ncalg import Presentation, TensorElement
from kdeform.scalar import Scalar
from kdeform.series import (
    exp_nilpotent,
    unital_inverse,
    unital_log,
    unital_power,
    unital_sqrt,
)


def abelian(labels="cd"):
    pres = Presentation("abelian-series")
    idx = [pres.add_generator(lab) for lab in labels]
    return pres, idx


def test_inverse_multiplies_to_one():
    pres, (c, _) = abelian()
    t = (4, 2)
    one = TensorElement.one(pres, 1, t)
    u = one + TensorElement.gen(pres, c, t) * Scalar.h(1, t)
    inv = unital_inverse(u)
    assert (u * inv - one).is_zero()
    assert (inv * u - one).is_zero()
    # classic alternating signs
    assert inv.coeff(((c, c, c),)) == Scalar.h(3, t) * (-1)


def test_sqrt_squares_back():
    pres, (c, _) = abelian()
    t = (6, 0)
    one = TensorElement.one(pres, 1, t)
    u = one + TensorElement.gen(pres, c, t) * Scalar.h(2, t)
    r = unital_sqrt(u)
    assert (r * r - u).is_zero()
    assert r.coeff(((c,),)) == Scalar.h(2, t) * Fraction(1, 2)
    assert r.coeff(((c, c),)) == Scalar.h(4, t) * Fraction(-1, 8)


def test_log_exp_roundtrip():
    pres, (c, d) = abelian()
    t = (3, 3)
    x = TensorElement.gen(pres, c, t) * Scalar.h(1, t) + TensorElement.gen(
        pres, d, t
    ) * (Scalar.xi(1, t) * Scalar.h(1, t))
    u = exp_nilpotent(x)
    assert (unital_log(u) - x).is_zero()
    v = TensorElement.one(pres, 1, t) + TensorElement.gen(pres, c, t) * Scalar.h(1, t)
    assert (exp_nilpotent(unital_log(v)) - v).is_zero()


def test_exp_additive_for_commuting():
    pres, (c, d) = abelian()
    t = (3, 1)
    x = TensorElement.gen(pres, c, t) * Scalar.h(1, t)
    y = TensorElement.gen(pres, d, t) * Scalar.h(1, t)
    assert (exp_nilpotent(x) * exp_nilpotent(y) - exp_nilpotent(x + y)).is_zero()


def test_exp_bch_defect_for_weyl_pair():
    pres = Presentation("weyl-series")
    a = pres.add_generator("a")
    b = pres.add_generator("b")
    pres.set_commutator(b, a, {(): Scalar.one()})
    t = (2, 0)
    x = TensorElement.gen(pres, a, t) * Scalar.h(1, t)
    y = TensorElement.gen(pres, b, t) * Scalar.h(1, t)
    defect = exp_nilpotent(x) * exp_nilpotent(y) - exp_nilpotent(x + y)
    # leading BCH correction: [x, y]/2 = -h^2/2 here
    assert defect.coeff(((),)) == Scalar.h(2, t) * Fraction(-1, 2)
    assert (defect - TensorElement.one(pres, 1, t) * (Scalar.h(2, t) * Fraction(-1, 2))).is_zero()


def test_integer_powers():
    pres, (c, _) = abelian()
    t = (5, 0)
    one = TensorElement.one(pres, 1, t)
    u = one + TensorElement.gen(pres, c, t) * Scalar.h(1, t)
    assert (unital_power(u, 3) - u * u * u).is_zero()
    assert (unital_power(u, -2) * u * u - one).is_zero()
    assert (unital_power(u, 0) - one).is_zero()


def test_rejects_exact_mode_and_constant_terms():
    pres, (c, _) = abelian()
    exact = TensorElement.gen(pres, c) * Scalar.h()
    with pytest.raises(KdeformError):
        exp_nilpotent(exact)
    t = (3, 3)
    not_nilpotent = TensorElement.gen(pres, c, t)  # bigrade (0, 0) coefficient
    with pytest.raises(KdeformError):
        exp_nilpotent(not_nilpotent)
    with pytest.raises(KdeformError):
        unital_inverse(TensorElement.one(pres, 1, t) * 2)
