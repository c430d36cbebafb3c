"""Tests for the PBW rewriting engine and the element algebra."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdeform
from kdeform.errors import (
    PresentationError,
    RewriteError,
    ScalarDomainError,
    TruncationMismatch,
)
from kdeform.ncalg import MAX_WORD_LEN, Presentation, TensorElement
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


def test_structure_constants_follow_the_installed_rules():
    pres, x, y, z = heisenberg()
    one, i = Scalar.one(), Scalar.i()
    table = pres.structure_constants()
    assert table == {(y, x): [(z, -one)], (x, y): [(z, one)]}
    assert pres.structure_constants() is table
    # installing a rule drops the table, as it drops the normalize cache
    pres.set_commutator(z, x, {(x,): i})
    assert pres.structure_constants() == {
        **table, (z, x): [(x, i)], (x, z): [(x, -i)],
    }
    pres.set_product(x, z, {(): one})
    with pytest.raises(PresentationError, match="not a Lie algebra"):
        pres.structure_constants()
    # [b, a] = 1 is not linear
    weyl, _, _ = weyl_pair()
    with pytest.raises(PresentationError, match="not a Lie algebra"):
        weyl.structure_constants()


def test_rule_tables_are_read_only():
    # a rule written past set_commutator would leave the normalize cache
    # and the bracket table stale, so the tables and each rhs refuse writes
    pres, x, y, z = heisenberg()
    key = next(iter(pres.comm_rules))
    word = next(iter(pres.comm_rules[key]))
    with pytest.raises(TypeError):
        pres.comm_rules[key] = {word: Scalar.one()}
    with pytest.raises(TypeError):
        pres.comm_rules[key][word] = Scalar.one()
    with pytest.raises(TypeError):
        pres.product_rules[(x, z)] = {(): Scalar.one()}
    assert pres.comm_rules == {(y, x): {(z,): -Scalar.one()}}
    # the views follow the rules installed later
    pres.set_product(x, z, {(): Scalar.one()})
    assert pres.product_rules == {(x, z): {(): Scalar.one()}}


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
    pres = Presentation("cap")
    a = pres.add_generator("a")
    b = pres.add_generator("b")
    pres.set_commutator(b, a, {(): Scalar.one()})
    assert MAX_WORD_LEN == 12
    assert pres.normalize_word((b,) * 12) == {(b,) * 12: Scalar.one()}
    with pytest.raises(RewriteError):
        pres.normalize_word((b,) * 13)


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


def test_truncated_tensor_cuts_exact_coefficients():
    pres, a, b = weyl_pair()
    t = (2, 1)
    one = TensorElement.one(pres, 1, t)
    # h^5 lies beyond the truncation: the element is zero, as its product
    # with the truncated unit is
    x = TensorElement(pres, 1, {((a,),): Scalar.h(5)}, t)
    assert x == x * one and x.is_zero()
    y = TensorElement(pres, 1, {((a,),): Scalar.h(2) + Scalar.h(3)}, t)
    assert y.coeff(((a,),)) == Scalar.h(2, t) and y == y * one
    with pytest.raises(ScalarDomainError):
        TensorElement(pres, 1, {((a,),): Scalar.h(-1)}, t)
    # a sum with a truncated element cuts the exact one's coefficients too
    zero = TensorElement.zero(pres, 1, t)
    exact = TensorElement(pres, 1, {((a,),): Scalar.h(5), ((b,),): Scalar.h()})
    cut = TensorElement.gen(pres, b, t) * Scalar.h(1, t)
    assert exact + zero == cut and zero + exact == cut
    laurent = TensorElement(pres, 1, {((a,),): Scalar.h(-1)})
    for pair in ((laurent, zero), (zero, laurent)):
        with pytest.raises(ScalarDomainError):
            pair[0] + pair[1]
    # an exact element refuses a truncated coefficient
    with pytest.raises(TruncationMismatch):
        TensorElement(pres, 1, {((a,),): Scalar.h(1, t)})
    # a truncated one refuses a coefficient of another finite truncation
    with pytest.raises(TruncationMismatch):
        TensorElement(pres, 1, {((a,),): Scalar.h(1, (3, 0))}, (2, 0))


def test_star_antihomomorphism():
    pres, a, b = weyl_pair()
    ea = TensorElement.gen(pres, a)
    eb = TensorElement.gen(pres, b)
    # (i a b)* = -i b* a* = -i (a b + 1) for self-adjoint letters
    elt = ea * eb * Scalar.i()
    expect = -(ea * eb + TensorElement.one(pres, 1)) * Scalar.i()
    assert elt.star() == expect


def test_star_h_sign_flip():
    pres, a, _ = weyl_pair()
    ea = TensorElement.gen(pres, a)
    elt = ea * (Scalar.i() * Scalar.h())
    assert elt.star() == -elt


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
