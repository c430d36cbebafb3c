"""Tests for tensor calculus and Hopf-axiom verification on toy algebras,
and for the R-matrix intertwiner check on a small model."""

import pytest

from kdeform import twist
from kdeform.errors import KdeformError
from kdeform.hopf import (
    HopfData,
    TensorElement,
    check_rmatrix_intertwiner,
    promote,
    verify_axioms,
    verify_reality,
)
from kdeform.model import Model, ModelConfig
from kdeform.ncalg import AlgElement, Presentation
from kdeform.scalar import Scalar


def heisenberg():
    pres = Presentation("heis")
    x = pres.add_generator("x")
    y = pres.add_generator("y")
    z = pres.add_generator("z")
    pres.set_commutator(y, x, {(z,): Scalar.rational(-1)})
    return pres, (x, y, z)


def primitive_hopf(pres, gens):
    one = AlgElement.one(pres)
    cop = {}
    antipode = {}
    counit = {}
    for g in gens:
        e = AlgElement.gen(pres, g)
        cop[g] = TensorElement.from_legs(e, one) + TensorElement.from_legs(one, e)
        antipode[g] = -e
        counit[g] = Scalar.zero()
    return HopfData(pres, cop, antipode, counit)


def jordanian_toy(break_antipode=False):
    """Commutative algebra with a group-like Pi and Delta(P) = P x Pi + 1 x P."""
    pres = Presentation("toy")
    pi = pres.add_generator("Pi")
    pinv = pres.add_generator("PiInv")
    p = pres.add_generator("P")
    pres.set_product(pi, pinv, {(): Scalar.one()})
    pres.set_product(pinv, pi, {(): Scalar.one()})
    one = AlgElement.one(pres)
    e_pi = AlgElement.gen(pres, pi)
    e_pinv = AlgElement.gen(pres, pinv)
    e_p = AlgElement.gen(pres, p)
    cop = {
        pi: TensorElement.from_legs(e_pi, e_pi),
        pinv: TensorElement.from_legs(e_pinv, e_pinv),
        p: TensorElement.from_legs(e_p, e_pi) + TensorElement.from_legs(one, e_p),
    }
    antipode = {
        pi: e_pinv,
        pinv: e_pi,
        p: -e_p if break_antipode else -(e_p * e_pinv),
    }
    counit = {pi: Scalar.one(), pinv: Scalar.one(), p: Scalar.zero()}
    return pres, HopfData(pres, cop, antipode, counit), (pi, pinv, p)


def test_tensor_product_legwise():
    pres, (x, y, z) = heisenberg()
    ex, ey = AlgElement.gen(pres, x), AlgElement.gen(pres, y)
    t1 = TensorElement.from_legs(ey, ex)
    t2 = TensorElement.from_legs(ex, ey)
    prod = t1 * t2
    # first leg y*x = x*y - z, second leg x*y
    assert prod.coeff(((x, y), (x, y))) == Scalar.one()
    assert prod.coeff(((z,), (x, y))) == Scalar.rational(-1)


def test_tensor_swap_and_merge():
    pres, (x, y, _) = heisenberg()
    ex, ey = AlgElement.gen(pres, x), AlgElement.gen(pres, y)
    t = TensorElement.from_legs(ex, ey)
    assert t.swap() == TensorElement.from_legs(ey, ex)
    assert t.merge_legs() == ex * ey
    assert t.swap().merge_legs() == ey * ex


def test_promote_units():
    pres, (x, _, _) = heisenberg()
    ex = AlgElement.gen(pres, x)
    t = promote(ex, rank=3, leg=1)
    assert t.coeff(((), (x,), ())) == Scalar.one()


def test_primitive_hopf_on_heisenberg_passes():
    pres, gens = heisenberg()
    hopf = primitive_hopf(pres, gens)
    checks = verify_axioms(hopf, degree2=True, coassoc_pairs=True)
    bad = [c for c in checks if not c.passed]
    assert bad == []


def test_primitive_coproduct_rejected_on_weyl():
    # [b, a] = 1 admits no primitive bialgebra structure; the rule-respect
    # check must catch it
    pres = Presentation("weyl")
    a = pres.add_generator("a")
    b = pres.add_generator("b")
    pres.set_commutator(b, a, {(): Scalar.one()})
    hopf = primitive_hopf(pres, (a, b))
    checks = {c.name: c for c in verify_axioms(hopf, degree2=False)}
    assert not checks["cop_respects_[b,a]"].passed


def test_grouplike_jordanian_toy_passes():
    _, hopf, _ = jordanian_toy()
    checks = verify_axioms(hopf, degree2=True, coassoc_pairs=True)
    bad = [c for c in checks if not c.passed]
    assert bad == []


def test_broken_antipode_detected():
    _, hopf, _ = jordanian_toy(break_antipode=True)
    checks = {c.name: c for c in verify_axioms(hopf, degree2=False)}
    assert not checks["antipode_left[P]"].passed


def test_reality_checks_on_toy():
    _, hopf, _ = jordanian_toy()
    pres = hopf.pres
    one = AlgElement.one(pres)
    checks = verify_reality(hopf, conjugator=(one, one))
    bad = [c for c in checks if not c.passed]
    assert bad == []


def test_counit_leg_contraction():
    _, hopf, (pi, pinv, p) = jordanian_toy()
    pres = hopf.pres
    e_p = AlgElement.gen(pres, p)
    cop = hopf.cop(e_p)
    assert hopf.apply_counit_leg(cop, 0) == e_p
    assert hopf.apply_counit_leg(cop, 1) == e_p
    rank3 = hopf.apply_cop_leg(cop, 0)
    assert rank3.rank == 3
    back = hopf.apply_counit_leg(rank3, 2)
    assert back.rank == 2


def test_tensor_star_legwise():
    pres, (x, y, _) = heisenberg()
    ex, ey = AlgElement.gen(pres, x), AlgElement.gen(pres, y)
    t = TensorElement.from_legs(ex, ey) * Scalar.i()
    st = t.star()
    assert st == TensorElement.from_legs(ex, ey) * (-Scalar.i())


def test_rmatrix_intertwiner_on_covariant_d2():
    m = Model(ModelConfig([[1, 0], [0, -1]], (1, 0), "covariant_hadic", (2, 0)))
    one2 = TensorElement.one(m.pres, m.trunc)
    # the unit intertwines a coproduct with itself
    assert check_rmatrix_intertwiner(m.hopf, m.hopf, one2).ok
    # but not the primitive coproduct with the deformed one
    rep = check_rmatrix_intertwiner(twist.primitive_hopf(m.pres, m.trunc), m.hopf, one2)
    assert [c.name for c in rep.checks if not c.passed] == [
        "intertwines[P_0]", "intertwines[P_1]", "intertwines[M_01]"
    ]
    assert [c.name for c in rep.checks if c.passed] == [
        "invertible", "triangular", "counit_left", "counit_right"
    ]
    with pytest.raises(KdeformError):
        check_rmatrix_intertwiner(m.hopf, m.hopf, one2 * 2)
