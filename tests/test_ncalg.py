"""Tests for the PBW rewriting engine and the element algebra."""

import os
import random
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
from kdeform.model import Model, ModelConfig, build_iso
from kdeform.ncalg import (
    MAX_WORD_LEN,
    Presentation,
    TensorElement,
    scalar_view,
)
from kdeform.scalar import GR_ONE, Scalar, gr


def normal_form(pres, word):
    """``normalize_word``'s rows read back as a dict from words to exact
    Scalars."""
    return scalar_view({r[:3]: r[3] for r in pres.normalize_word(word)}, None)


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
    assert normal_form(pres, (2, 1, 0)) == {(0, 1, 2): Scalar.one()}
    assert pres.is_normal_word((0, 1, 2))
    assert not pres.is_normal_word((1, 0))


def test_weyl_straightening():
    pres, a, b = weyl_pair()
    # b a a = a a b + 2 a
    got = normal_form(pres, (b, a, a))
    assert got == {(a, a, b): Scalar.one(), (a,): Scalar.rational(2)}
    # b b a = a b b + 2 b
    got = normal_form(pres, (b, b, a))
    assert got == {(a, b, b): Scalar.one(), (b,): Scalar.rational(2)}


# --- the rewriting against the old dict-of-Scalars rewriter ------------------


def add_scalar(out, word, c):
    c = out[word] + c if word in out else c
    if c:
        out[word] = c
    else:
        out.pop(word, None)


def reference_normal_form(pres, word):
    """A word's normal form as a dict from words to exact Scalars, by the
    old rewriter: the leftmost violation of a word is rewritten through the
    Scalar rule tables and the Scalars are summed by word, until every word
    is normal."""
    todo, done = {tuple(word): Scalar.one()}, {}
    while todo:
        w, c = todo.popitem()
        k = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]
                  or (w[k], w[k + 1]) in pres.product_rules), None)
        if k is None:
            add_scalar(done, w, c)
            continue
        pair, pre, post = w[k:k + 2], w[:k], w[k + 2:]
        if pair in pres.product_rules:
            rhs = pres.product_rules[pair]
        else:
            add_scalar(todo, pre + pair[::-1] + post, c)
            rhs = pres.comm_rules.get(pair, {})
        for u, cu in rhs.items():
            add_scalar(todo, pre + u + post, c * cu)
    return done


def deformed_heisenberg():
    """[y, x] = h*x - z with z central."""
    pres = Presentation("heis_h")
    x, y, z = (pres.add_generator(lab) for lab in "xyz")
    pres.set_commutator(y, x, {(x,): Scalar.h(1), (z,): Scalar.rational(-1)})
    return pres


@pytest.mark.parametrize("build,laurent", [
    (lambda: build_iso([[1, 0, 0], [0, -1, 0], [0, 0, -1]]), False),
    (deformed_heisenberg, False),
    (lambda: Model(ModelConfig([[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                               (1, 0, 0), "qanalog_timelike", None)).pres,
     True),
], ids=["iso3", "heisenberg_h", "q_timelike3"])
def test_normalize_word_matches_the_scalar_rewriter(build, laurent):
    pres = build()
    coeffs = [c for rhs in pres.comm_rules.values() for c in rhs.values()]
    assert coeffs
    # the q-analog's rules carry kappa = h^-1, and it has product rules
    assert any(c.has_negative_h() for c in coeffs) == laurent
    rng = random.Random(len(pres.generators))
    n = len(pres.generators)
    for _ in range(40):
        word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
        assert normal_form(pres, word) == reference_normal_form(pres, word)


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
    assert normal_form(pres, (p, q)) == {(): Scalar.one()}
    assert normal_form(pres, (q, p, p, q)) == {(): Scalar.one()}
    assert normal_form(pres, (p, p, q)) == {(p,): Scalar.one()}
    assert normal_form(pres, (m, p)) == {(p, m): Scalar.one()}
    assert pres.associativity_check() == []


def test_set_product_refuses_a_second_rule_for_the_pair():
    pres, a, b = weyl_pair()
    # a product rule on (b, a) would shadow the commutator [b, a]
    with pytest.raises(PresentationError):
        pres.set_product(b, a, {(): Scalar.one()})
    one = Scalar.one()
    assert normal_form(pres, (b, a)) == {(a, b): one, (): one}
    pres.set_product(a, b, {(): Scalar.one()})
    with pytest.raises(PresentationError):
        pres.set_product(a, b, {(): Scalar.rational(2)})
    assert pres.product_rules[(a, b)] == {(): Scalar.one()}


def test_structure_constants_follow_the_installed_rules():
    # rows (k, deg_h, deg_xi, f) of the real brackets: a stored
    # coefficient c is i f
    pres, x, y, z = heisenberg()
    one, i = Scalar.one(), Scalar.i()
    table = pres.structure_constants()
    assert table == {
        (y, x): [(z, 0, 0, gr(0, 1))], (x, y): [(z, 0, 0, gr(0, -1))],
    }
    assert pres.structure_constants() is table
    # installing a rule drops the table, as it drops the normalize cache
    pres.set_commutator(z, x, {(x,): i + Scalar.h(2) * 3})
    assert pres.structure_constants() == {
        **table,
        (z, x): [(x, 0, 0, gr(1)), (x, 2, 0, gr(0, -3))],
        (x, z): [(x, 0, 0, gr(-1)), (x, 2, 0, gr(0, 3))],
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
    assert normal_form(pres, (b,) * 12) == {(b,) * 12: Scalar.one()}
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
