"""Tests for the PBW rewriting engine and the element algebra."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdeform
from kdeform.errors import PresentationError, RewriteError
from kdeform.ncalg import Presentation, TensorElement
from kdeform.scalar import GR_ONE, Scalar, gr


def weyl_pair():
    """[b, a] = 1 with a < b in the normal order."""
    pres = Presentation("weyl")
    a = pres.add_generator("a")
    b = pres.add_generator("b")
    pres.set_commutator(b, a, {(): Scalar.one()})
    return pres, a, b


def heisenberg():
    pres = Presentation("heis")
    x = pres.add_generator("x")
    y = pres.add_generator("y")
    z = pres.add_generator("z")
    pres.set_commutator(y, x, {(z,): Scalar.rational(-1)})
    # z central: unlisted pairs commute
    return pres, x, y, z


def test_abelian_sorting():
    pres = Presentation("abelian")
    for lab in "pqr":
        pres.add_generator(lab)
    assert pres.normalize_word((2, 1, 0)) == {(0, 1, 2): Scalar.one()}
    assert pres.is_normal_word((0, 1, 2))
    assert not pres.is_normal_word((1, 0))


def test_weyl_straightening():
    pres, a, b = weyl_pair()
    # b a a = a a b + 2 a
    got = pres.normalize_word((b, a, a))
    assert got == {(a, a, b): Scalar.one(), (a,): Scalar.rational(2)}
    # b b a = a b b + 2 b
    got = pres.normalize_word((b, b, a))
    assert got == {(a, b, b): Scalar.one(), (b,): Scalar.rational(2)}


def test_associativity_check_consistent():
    pres, _, _, _ = heisenberg()
    assert pres.associativity_check() == []
    wp, _, _ = weyl_pair()
    assert wp.associativity_check() == []


def test_associativity_check_catches_jacobi_failure():
    pres = Presentation("broken")
    x = pres.add_generator("x")
    y = pres.add_generator("y")
    z = pres.add_generator("z")
    # [x,y]=z, [y,z]=x, [z,x]=x violates Jacobi: J(x,y,z) = -z != 0
    pres.set_commutator(y, x, {(z,): Scalar.rational(-1)})
    pres.set_commutator(z, y, {(x,): Scalar.rational(-1)})
    pres.set_commutator(z, x, {(x,): Scalar.one()})
    assert pres.associativity_check() != []


def test_product_rules_inverse_pair():
    pres = Presentation("grouplike")
    p = pres.add_generator("Pi")
    q = pres.add_generator("PiInv")
    m = pres.add_generator("m")
    pres.set_product(p, q, {(): Scalar.one()})
    pres.set_product(q, p, {(): Scalar.one()})
    assert pres.normalize_word((p, q)) == {(): Scalar.one()}
    assert pres.normalize_word((q, p, p, q)) == {(): Scalar.one()}
    assert pres.normalize_word((p, p, q)) == {(p,): Scalar.one()}
    assert pres.normalize_word((m, p)) == {(p, m): Scalar.one()}
    assert pres.associativity_check() == []


def test_set_product_refuses_a_second_rule_for_the_pair():
    pres, a, b = weyl_pair()
    # a product rule on (b, a) would shadow the commutator [b, a]
    with pytest.raises(PresentationError):
        pres.set_product(b, a, {(): Scalar.one()})
    one = Scalar.one()
    assert pres.normalize_word((b, a)) == {(a, b): one, (): one}
    pres.set_product(a, b, {(): Scalar.one()})
    with pytest.raises(PresentationError):
        pres.set_product(a, b, {(): Scalar.rational(2)})
    assert pres.product_rules[(a, b)] == {(): Scalar.one()}


def test_import_leaves_the_recursion_limit_alone():
    # a fresh interpreter: this one has imported the package already
    code = (
        "import sys; before = sys.getrecursionlimit(); "
        "import kdeform.model, kdeform.twist, kdeform.rmatrix; "
        "print(before, sys.getrecursionlimit())"
    )
    src = str(Path(kdeform.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


def test_rule_rhs_must_be_normal():
    pres = Presentation("bad")
    a = pres.add_generator("a")
    b = pres.add_generator("b")
    with pytest.raises(PresentationError):
        pres.set_commutator(b, a, {(b, a): Scalar.one()})


def test_cycle_detection():
    pres = Presentation("cyclic")
    a = pres.add_generator("a")
    b = pres.add_generator("b")
    pres.set_product(a, b, {(a, b): Scalar.rational(2)})
    with pytest.raises(RewriteError):
        pres.normalize_word((a, b))


def test_word_length_cap():
    pres = Presentation("cap", max_word_len=4)
    a = pres.add_generator("a")
    b = pres.add_generator("b")
    pres.set_commutator(b, a, {(): Scalar.one()})
    with pytest.raises(RewriteError):
        pres.normalize_word((b,) * 5)


def test_element_arithmetic():
    pres, a, b = weyl_pair()
    ea = TensorElement.gen(pres, a)
    eb = TensorElement.gen(pres, b)
    one = TensorElement.one(pres, 1)
    assert eb * ea == ea * eb + one
    assert eb.commutator(ea) == one
    # (a + b)^2 = a^2 + 2 a b + b^2 + 1
    sq = (ea + eb) * (ea + eb)
    expect = ea * ea + 2 * (ea * eb) + eb * eb + one
    assert sq == expect
    assert (sq - expect).is_zero()


def test_element_scalar_coefficients_and_trunc():
    pres, a, b = weyl_pair()
    t = (3, 3)
    h2a = TensorElement.gen(pres, a, t) * Scalar.h(2, t)
    h2b = TensorElement.gen(pres, b, t) * Scalar.h(2, t)
    assert (h2a * h2b).is_zero()  # h^4 falls outside the truncation
    hb = TensorElement.gen(pres, b, t) * Scalar.h(1, t)
    prod = h2a * hb
    assert prod.coeff(((a, b),)) == Scalar.h(3, t)


def test_exact_rule_with_truncated_elements():
    # rule coefficient stays exact, elements carry the working truncation
    pres = Presentation("hrule")
    a = pres.add_generator("a")
    b = pres.add_generator("b")
    pres.set_commutator(b, a, {(): Scalar.h(1)})
    t = (2, 2)
    ea = TensorElement.gen(pres, a, t)
    eb = TensorElement.gen(pres, b, t)
    comm = eb.commutator(ea)
    assert comm.coeff(((),)) == Scalar.h(1, t)
    assert comm.trunc == t


def test_star_antihomomorphism():
    pres, a, b = weyl_pair()
    ea = TensorElement.gen(pres, a)
    eb = TensorElement.gen(pres, b)
    # (i a b)* = -i b* a* = -i (a b + 1) for self-adjoint letters
    elt = ea * eb * Scalar.i()
    expect = -(ea * eb + TensorElement.one(pres, 1)) * Scalar.i()
    assert elt.star() == expect
    # star table: b* = -b
    pres2 = Presentation("w2")
    a2 = pres2.add_generator("a")
    b2 = pres2.add_generator("b")
    pres2.set_commutator(b2, a2, {(): Scalar.one()})
    pres2.set_star(b2, {(b2,): Scalar.rational(-1)})
    e2 = TensorElement.gen(pres2, b2)
    assert e2.star() == -e2


def test_star_h_sign_flip():
    pres, a, _ = weyl_pair()
    ea = TensorElement.gen(pres, a)
    elt = ea * (Scalar.i() * Scalar.h())
    assert elt.star() == -elt
    assert elt.star(h_sign=-1) == elt


def test_rank_one_keys_are_one_tuples_of_words():
    pres, a, b = weyl_pair()
    elt = TensorElement(pres, 1, {((a, b),): Scalar.one()})
    assert elt == TensorElement.gen(pres, a) * TensorElement.gen(pres, b)
    assert elt.coeff(((a, b),)) == Scalar.one()
    # a bare word, or a key of another length, is refused
    for key in ((a,), (a, b), (), ((a,), (b,))):
        with pytest.raises(PresentationError):
            TensorElement(pres, 1, {key: Scalar.one()})
        with pytest.raises(PresentationError):
            elt.coeff(key)


def test_mixed_presentations_rejected():
    p1, a1, _ = weyl_pair()
    p2, a2, _ = weyl_pair()
    with pytest.raises(PresentationError):
        TensorElement.gen(p1, a1) * TensorElement.gen(p2, a2)
