"""Tests for the exact coefficient ring (Gaussian rationals, bigraded scalars)."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest

from kdeform.errors import KdeformError, ScalarDomainError, TruncationMismatch
from kdeform.model import Model, ModelConfig, hopf_axiom_check
from kdeform.scalar import GR_I, GR_ONE, GaussianRational, Scalar, gr


def rand_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    )


def rand_scalar(rng, trunc=None, min_h=-1, max_h=3, max_xi=3, nterms=4):
    if trunc is not None:
        min_h = max(min_h, 0)
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        key = (rng.randint(min_h, max_h), rng.randint(0, max_xi))
        terms[key] = rand_gr(rng)
    return Scalar(terms, trunc)


def test_gaussian_rational_basics():
    assert GR_I * GR_I == GaussianRational(-1)
    assert gr("1/3") + gr("1/6") == gr("1/2")
    z = gr(2, 3)
    assert z * z.conjugate() == gr(13)
    assert (GR_ONE / z) * z == GR_ONE
    assert gr(0, 2) / GR_I == gr(2)
    assert repr(gr(-1, 1)) == "(-1 + 1*i)"


def test_gaussian_rational_mixed_ops_with_ints():
    assert 2 * GR_I - 1 == gr(-1, 2)
    assert (GR_I + 1) * (GR_I - 1) == gr(-2)
    assert Fraction(1, 2) * gr(4) == gr(2)


@pytest.mark.parametrize("call,message", [
    (lambda: gr(0.1), "not 0.1"),
    (lambda: gr(1, 0.5), "not 0.5"),
    (lambda: gr("one"), "not 'one'"),
    (lambda: Scalar.rational(0.1), "not 0.1"),
    (lambda: Scalar.rational("1/0"), "not '1/0'"),
    (lambda: Scalar({(0, 0): 0.1}), "not 0.1"),
    (lambda: Scalar({(0, 0): None}), "not None"),
    (lambda: Scalar.monomial(0.5), "coefficient 0.5 is not an int"),
    (lambda: Scalar.monomial("1/2"), "coefficient '1/2' is not an int"),
], ids=["gr_float", "gr_imaginary_float", "gr_str", "rational_float",
        "rational_zero_denominator", "scalar_terms_float", "scalar_terms_none",
        "monomial_float", "monomial_str"])
def test_inexact_or_unknown_coefficients_are_refused(call, message):
    with pytest.raises(ScalarDomainError, match=re.escape(message)):
        call()


def test_exact_coefficient_input_is_kept():
    assert gr("1/10") == gr(Fraction(1, 10))
    assert Scalar.rational("1/10") == Scalar.monomial(Fraction(1, 10))
    assert Scalar.rational(3) == Scalar({(0, 0): 3})


@pytest.mark.parametrize("call,message", [
    (lambda: Scalar.h(1).specialize(0.1), "not 0.1"),
    (lambda: Scalar.h(1).specialize("x"), "not 'x'"),
    (lambda: Scalar.xi().specialize(1, 0.5), "not 0.5"),
    (lambda: Scalar.h(-1).specialize(0), "h = 0 in a negative power of h"),
], ids=["h_float", "h_str", "xi_float", "h_zero_in_negative_power"])
def test_specialize_refuses_inexact_values_and_a_pole(call, message):
    with pytest.raises(ScalarDomainError, match=re.escape(message)):
        call()


def test_specialize_keeps_exact_values():
    assert Scalar.h(1).specialize("1/10") == gr("1/10")
    assert (Scalar.h(2) + Scalar.one()).specialize(0) == GR_ONE
    assert Scalar.xi(2).specialize(1, Fraction(1, 3)) == gr("1/9")


def test_scalar_monomials_and_coeffs():
    s = Scalar.h(2) * Scalar.xi() * 3
    assert s.terms == {(2, 1): gr(3)}
    assert not Scalar.zero()
    assert Scalar.one().constant_value() == GR_ONE


def test_laurent_h_degrees():
    kappa = Scalar.h(-1)
    assert (kappa * Scalar.h(3)).terms == {(2, 0): GR_ONE}
    assert kappa.min_h_degree() == -1
    assert kappa.has_negative_h()
    # h^(-2) at h = 2/3 evaluates to 9/4
    assert Scalar.h(-2).specialize(Fraction(2, 3)) == gr("9/4")


def test_xi_degree_must_be_nonnegative():
    with pytest.raises(ValueError):
        Scalar.xi(-1)
    with pytest.raises(ValueError):
        Scalar.one().shift(0, -1)


def test_truncation_drops_high_bigrades():
    t = (3, 3)
    one_plus_h = Scalar.one(t) + Scalar.h(1, t)
    p = one_plus_h * one_plus_h * one_plus_h * one_plus_h
    assert p.terms[(3, 0)] == gr(4)
    assert (4, 0) not in p.terms
    assert p.trunc == t


def test_trunc_mixing_rules():
    exact = Scalar.h()
    t33 = Scalar.h(1, (3, 3))
    t22 = Scalar.h(1, (2, 2))
    assert (exact * t33).trunc == (3, 3)
    assert (t33 + exact).trunc == (3, 3)
    with pytest.raises(TruncationMismatch):
        t33 * t22
    with pytest.raises(TruncationMismatch):
        t33 + t22


def test_retrunc_only_tightens():
    s = Scalar.h(1, (3, 3)) + Scalar.h(3, (3, 3))
    down = s.retrunc((2, 2))
    assert down.terms == {(1, 0): GR_ONE}
    with pytest.raises(TruncationMismatch):
        down.retrunc((3, 3))
    with pytest.raises(TruncationMismatch):
        down.retrunc(None)
    exact = Scalar.h()
    assert exact.retrunc((1, 1)).trunc == (1, 1)


def test_specialize_is_ring_homomorphism():
    rng = random.Random(20140815)
    for _ in range(40):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        hv = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        xv = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        assert (a * b).specialize(hv, xv) == a.specialize(hv, xv) * b.specialize(hv, xv)
        assert (a + b).specialize(hv, xv) == a.specialize(hv, xv) + b.specialize(hv, xv)


def test_ring_axioms_random():
    rng = random.Random(99)
    for trunc in [(3, 3), None]:
        for _ in range(30):
            a = rand_scalar(rng, trunc=trunc)
            b = rand_scalar(rng, trunc=trunc)
            c = rand_scalar(rng, trunc=trunc)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + (-a) == Scalar.zero(trunc)


def attempt(product):
    # a product's value, or None when the ring refuses it
    try:
        return product()
    except ScalarDomainError:
        return None


def test_mixed_truncation_products_associate_or_raise():
    # exact, exact Laurent and truncated operands in every combination: a
    # product of an exact factor with a negative h-degree and a truncated
    # one raises, and where both sides are defined, the products associate,
    # commute and distribute
    rng = random.Random(24)
    t = (2, 1)
    refused = 0
    for _ in range(300):
        a, b, c = (rand_scalar(rng, trunc=rng.choice([None, t]), min_h=-2,
                               max_xi=1, nterms=3) for _ in range(3))
        for x, y in ((a, b), (b, c), (a, c)):
            if x.trunc != y.trunc and any(
                    s.trunc is None and s.has_negative_h() for s in (x, y)):
                refused += 1
                with pytest.raises(ScalarDomainError, match="Laurent"):
                    x * y
        sides = [(attempt(lambda: (a * b) * c), attempt(lambda: a * (b * c))),
                 (attempt(lambda: a * b), attempt(lambda: b * a)),
                 (attempt(lambda: a * (b + c)),
                  attempt(lambda: a * b + a * c))]
        for left, right in sides:
            assert left is None or right is None or left == right
    assert refused > 0


def test_laurent_requires_exact_mode():
    # dropping bigrades from a Laurent series is not a ring quotient, so
    # negative h-degrees are rejected whenever a finite truncation is on
    with pytest.raises(ValueError):
        Scalar.h(-1, (3, 3))
    with pytest.raises(ValueError):
        Scalar.h(-1) * Scalar.one((3, 3))
    with pytest.raises(ValueError):
        Scalar.h(-1) + Scalar.one((3, 3))
    with pytest.raises(ValueError):
        Scalar.one((3, 3)).shift(-1)
    with pytest.raises(ValueError):
        Scalar.h(-1).retrunc((3, 3))
    # a Laurent factor under a finite truncation is refused even where the
    # product would be h-polynomial: kappa * h^2 would drop h^(N_h + 1)
    # terms before the kappa brings them back
    with pytest.raises(ScalarDomainError, match="Laurent factors"):
        Scalar.h(-1) * Scalar.h(2, (3, 3))
    # every scalar domain error is an engine error and still a ValueError
    for bad in (
        lambda: Scalar.h(-1, (3, 3)),
        lambda: Scalar.h(-1) * Scalar.one((3, 3)),
        lambda: Scalar.xi(-1),
        lambda: Scalar({(0, -1): 1}),
        lambda: Scalar.one().shift(0, -1),
        lambda: Scalar.h(1).constant_value(),
    ):
        with pytest.raises(ScalarDomainError) as info:
            bad()
        assert isinstance(info.value, KdeformError)
        assert isinstance(info.value, ValueError)


def test_table_cell_evaluation():
    # frozen arithmetic check: -(3 + 4*(kappa*xi)^2)/9 at kappa*xi = 1/2 is -4/9
    kx = Scalar.h(-1) * Scalar.xi()
    expr = (Scalar.rational(3) + Scalar.rational(4) * kx * kx) * Fraction(-1, 9)
    assert expr.specialize(2, 1) == gr("-4/9")


def test_shift():
    assert Scalar.h(-2).shift(3) == Scalar.h(1)
    shifted = Scalar.one((2, 2)).shift(2)
    assert shifted.terms == {(2, 0): GR_ONE}
    assert shifted.shift(1).is_zero()  # pushed past the truncation


def test_negative_shift_lowers_the_h_order():
    # h^2 + h^3 cut to (2, 0) is h^2 + O(h^3); over h it is h + O(h^2), so
    # the h^2 coefficient is unknown and the order drops with the shift
    x = (Scalar.h(2) + Scalar.h(3)).retrunc((2, 0))
    assert x.shift(-1) == Scalar.h(1, (1, 0))
    assert x.shift(-2) == Scalar.one((0, 0))
    assert x.shift(1, 1).trunc == (2, 0)
    assert Scalar.h(2).shift(-3) == Scalar.h(-1)
    with pytest.raises(ScalarDomainError, match="no order of the truncation"):
        Scalar.zero((1, 0)).shift(-2)


# --- the ring against a reference built from Fraction pairs --------------------


def rand_big_fraction(rng):
    """A rational with a numerator up to 10^30 and a denominator up to 10^12;
    zero about a quarter of the time."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**12))


def rand_big_pair(rng):
    return rand_big_fraction(rng), rand_big_fraction(rng)


def ref_repr(re, im):
    if not im:
        return str(re)
    if not re:
        return "%s*i" % im
    sign = "+" if im > 0 else "-"
    return "(%s %s %s*i)" % (re, sign, abs(im))


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


REF_OPS = {
    "+": (lambda z, w: z + w, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (lambda z, w: z - w, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (lambda z, w: z * w,
          lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])),
    "/": (lambda z, w: z / w, ref_div),
}


def assert_matches(z, pair):
    assert isinstance(z, GaussianRational)
    assert (z.re, z.im) == pair
    assert z == GaussianRational(*pair)
    assert bool(z) == (pair != (0, 0))
    assert (z.b == 0) == (pair[1] == 0)
    assert repr(z) == ref_repr(*pair)


def test_ring_matches_fraction_pair_reference():
    rng = random.Random(1404)
    for _ in range(300):
        x, y = rand_big_pair(rng), rand_big_pair(rng)
        z, w = GaussianRational(*x), GaussianRational(*y)
        assert_matches(z, x)
        assert_matches(-z, (-x[0], -x[1]))
        assert_matches(z.conjugate(), (x[0], -x[1]))
        assert (z == w) == (x == y)
        k = rng.choice([0, 1, -1, rng.randint(-10**20, 10**20)])
        f = rand_big_fraction(rng)
        # Q(i) operands on both sides, then int and Fraction on either side
        operands = [(w, y), (k, (Fraction(k), Fraction(0))),
                    (f, (f, Fraction(0)))]
        for name, (op, ref) in REF_OPS.items():
            for other, other_pair in operands:
                for left, right, lp, rp in ((z, other, x, other_pair),
                                            (other, z, other_pair, x)):
                    if name == "/" and rp == (0, 0):
                        with pytest.raises(ZeroDivisionError):
                            op(left, right)
                    else:
                        assert_matches(op(left, right), ref(lp, rp))


def test_equality_with_ints_and_fractions():
    assert GaussianRational(3) == 3 and 3 == GaussianRational(3)
    assert gr("3/4") == Fraction(3, 4) and Fraction(3, 4) == gr("3/4")
    assert gr(3, 1) != 3
    assert gr("6/8", "-2/4") == GaussianRational(Fraction(3, 4), Fraction(-1, 2))


def test_division_by_zero_raises():
    for zero in (0, Fraction(0), GaussianRational(0), gr("0/5", 0)):
        with pytest.raises(ZeroDivisionError):
            gr(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0)


def test_hash_agrees_with_equality():
    assert hash(GaussianRational(1)) == hash(1)
    assert {1: "x"}.get(GaussianRational(1)) == "x"
    assert hash(gr("-7/3")) == hash(Fraction(-7, 3))
    assert {Fraction(-7, 3): "y"}.get(gr("-7/3")) == "y"
    assert hash(gr(1, 2) * gr(1, -2)) == hash(5)
    assert hash(gr("1/2", "3/4")) == hash(gr(Fraction(2, 4), Fraction(6, 8)))
    assert len({gr(2, 1), gr(4, 2) / 2, gr("2", "1")}) == 1


def test_canonical_integer_triple():
    rng = random.Random(2916)
    values = [GaussianRational(*rand_big_pair(rng)) for _ in range(60)]
    values += [GaussianRational(0), gr("0/7", 0), gr(3) - gr(3),
               gr("1/2", "1/2") * 0, gr(5, 5) / 5, gr("4/6", "-2/6")]
    for z in values:
        for w in values[:12]:
            for r in (z, -z, z.conjugate(), z + w, z - w, z * w):
                assert r.d > 0
                assert gcd(r.a, r.b, r.d) == 1
                if not r:
                    assert (r.a, r.b, r.d) == (0, 0, 1)
            if w:
                r = z / w
                assert r.d > 0 and gcd(r.a, r.b, r.d) == 1
    assert (gr(5, 5) / 5).a == 1 and (gr(5, 5) / 5).d == 1
    z = gr("4/6", "-2/6")
    assert (z.a, z.b, z.d) == (2, -1, 3)
    assert (GaussianRational(0).a, GaussianRational(0).d) == (0, 1)


# --- Scalar products: cancellation order and mixed truncations ---------------


def test_product_cancels_a_key_and_appends_it_on_re_add():
    # (1 + h + h^2)(h - 1 + h^-1) = h^-1 + h + h^3: the h-term cancels after
    # its second pair and comes back on the last one, so it is listed last
    a = Scalar({(0, 0): 1, (1, 0): 1, (2, 0): 1})
    b = Scalar({(1, 0): 1, (0, 0): -1, (-1, 0): 1})
    p = a * b
    assert list(p.terms) == [(-1, 0), (3, 0), (1, 0)]
    assert all(v == GR_ONE for v in p.terms.values())
    assert p == Scalar.h(-1) + Scalar.h(1) + Scalar.h(3)
    # a product that cancels entirely is the zero scalar
    assert (Scalar.one() + Scalar.h()) * (Scalar.one() - Scalar.h()) \
        == Scalar.one() - Scalar.h(2)
    assert not (Scalar.i() * Scalar.i() + Scalar.one())


def test_truncated_times_exact_product():
    t = (2, 0)
    trunc = Scalar.one(t) + Scalar.h(1, t)
    exact = Scalar.rational(3) + Scalar.h(2) + Scalar.xi()
    for p in (trunc * exact, exact * trunc):
        assert p.trunc == t
        assert p == Scalar({(0, 0): 3, (1, 0): 3, (2, 0): 1}, t)
    # h^-1 re-enters the kept range, so the Laurent check still fires
    with pytest.raises(ValueError):
        trunc * Scalar.h(-1)


def test_truncated_plus_exact_drops_terms_past_the_truncation():
    t = (1, 1)
    trunc = Scalar.h(1, t)
    exact = Scalar.h(5) + Scalar.xi(2) + Scalar.one()
    expected = Scalar({(1, 0): 1, (0, 0): 1}, t)
    assert trunc + exact == expected
    assert exact + trunc == expected


# --- the unit and number factors ---------------------------------------------


def test_the_unit_times_a_scalar_is_the_scalar():
    exact = Scalar({(0, 0): 3, (2, 1): gr(1, -2)})
    truncated = Scalar({(1, 0): gr("1/3"), (2, 1): 5}, (2, 1))
    laurent = Scalar({(-2, 0): 1, (1, 3): gr(0, 7)})
    one = Scalar.one()
    assert one.terms == {(0, 0): GR_ONE} and one.trunc is None
    for x in (exact, truncated, laurent, Scalar.zero(), Scalar.zero((2, 1)),
              one):
        assert x * one == x == one * x


def test_truncated_unit_cuts_the_product():
    t = (2, 1)
    with pytest.raises(ScalarDomainError):
        Scalar.one(t) * Scalar.h(-1)
    p = Scalar.one(t) * Scalar.h(5)
    assert p == Scalar.zero(t) and repr(p) == "Scalar(0)"


@pytest.mark.parametrize("n", [0, 1, -3, Fraction(2, 3), gr(1, -2), GR_I],
                         ids=["zero", "one", "int", "fraction", "gaussian", "i"])
def test_a_number_factor_is_an_exact_constant(n):
    rng = random.Random(55)
    for trunc in (None, None, (2, 1), (3, 2)):
        x = rand_scalar(rng, trunc, min_h=-2)
        expected = x * Scalar.monomial(n)
        assert expected.trunc == x.trunc
        assert x * n == expected == n * x
    for other in ("2", 0.5, None):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x


def snapshot(s):
    # the term dict's identity, order and every coefficient's triple
    return (id(s.terms), s.trunc,
            [(k, v.a, v.b, v.d) for k, v in s.terms.items()])


def test_ring_operations_never_mutate_an_operand():
    rng = random.Random(77)
    xs = [Scalar.one()]
    while len(xs) < 200:
        trunc = rng.choice([None, None, (2, 1), (3, 2)])
        xs.append(rand_scalar(rng, trunc, min_h=-2))
    before = [snapshot(x) for x in xs]
    refused = (TruncationMismatch, ScalarDomainError)
    for x in xs:
        for op in (
            lambda: -x,
            lambda: x.shift(1, 1),
            lambda: x.shift(-1),
            lambda: x.retrunc((1, 1)),
        ):
            try:
                op()
            except refused:
                pass
        for y in xs:
            for op in (lambda: x + y, lambda: x - y, lambda: x * y):
                try:
                    op()
                except refused:
                    pass
    assert [snapshot(x) for x in xs] == before


def test_hopf_axiom_check_leaves_the_stored_scalars_unchanged():
    m = Model(ModelConfig([[1, 0], [0, -1]], (1, 0), "covariant_hadic", (2, 0)))
    stored = list(m.hopf.counit.values()) + [
        c for rules in (m.pres.comm_rules, m.pres.product_rules)
        for rhs in rules.values() for c in rhs.values()
    ]
    before = [snapshot(x) for x in stored]
    assert hopf_axiom_check(m).ok
    assert [snapshot(x) for x in stored] == before
