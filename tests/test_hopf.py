"""Tests for tensor calculus and Hopf-axiom verification on toy algebras,
for the R-matrix intertwiner check on a small model, and for the pruned
products and leg maps against all-pairs reference loops."""

import random

import pytest

from kdeform import twist
from kdeform.errors import KdeformError, PresentationError, TruncationMismatch
from kdeform.hopf import (
    HopfData,
    check_rmatrix_intertwiner,
    verify_axioms,
    verify_reality,
)
from kdeform.model import Model, ModelConfig
from kdeform.ncalg import Presentation, TensorElement
from kdeform.scalar import GaussianRational, Scalar


def heisenberg():
    pres = Presentation("heis")
    x = pres.add_generator("x")
    y = pres.add_generator("y")
    z = pres.add_generator("z")
    pres.set_commutator(y, x, {(z,): Scalar.rational(-1)})
    return pres, (x, y, z)


def primitive_hopf(pres, gens):
    one = TensorElement.one(pres, 1)
    cop = {}
    antipode = {}
    counit = {}
    for g in gens:
        e = TensorElement.gen(pres, g)
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
    one = TensorElement.one(pres, 1)
    e_pi = TensorElement.gen(pres, pi)
    e_pinv = TensorElement.gen(pres, pinv)
    e_p = TensorElement.gen(pres, p)
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
    ex, ey = TensorElement.gen(pres, x), TensorElement.gen(pres, y)
    t1 = TensorElement.from_legs(ey, ex)
    t2 = TensorElement.from_legs(ex, ey)
    prod = t1 * t2
    # first leg y*x = x*y - z, second leg x*y
    assert prod.coeff(((x, y), (x, y))) == Scalar.one()
    assert prod.coeff(((z,), (x, y))) == Scalar.rational(-1)


def test_tensor_swap_and_merge():
    pres, (x, y, _) = heisenberg()
    ex, ey = TensorElement.gen(pres, x), TensorElement.gen(pres, y)
    t = TensorElement.from_legs(ex, ey)
    assert t.swap() == TensorElement.from_legs(ey, ex)
    assert t.merge_legs() == ex * ey
    assert t.swap().merge_legs() == ey * ex


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
    one = TensorElement.one(pres, 1)
    checks = verify_reality(hopf, conjugator=(one, one))
    bad = [c for c in checks if not c.passed]
    assert bad == []


def test_counit_leg_contraction():
    _, hopf, (pi, pinv, p) = jordanian_toy()
    pres = hopf.pres
    e_p = TensorElement.gen(pres, p)
    cop = hopf.cop(e_p)
    assert hopf.apply_counit_leg(cop, 0) == e_p
    assert hopf.apply_counit_leg(cop, 1) == e_p
    rank3 = hopf.apply_cop_leg(cop, 0)
    assert rank3.rank == 3
    back = hopf.apply_counit_leg(rank3, 2)
    assert back.rank == 2
    # the counit of a rank-1 element is counit_of, a Scalar
    with pytest.raises(PresentationError):
        hopf.apply_counit_leg(e_p, 0)
    assert hopf.counit_of(e_p) == Scalar.zero()


def test_tensor_star_legwise():
    pres, (x, y, _) = heisenberg()
    ex, ey = TensorElement.gen(pres, x), TensorElement.gen(pres, y)
    t = TensorElement.from_legs(ex, ey) * Scalar.i()
    st = t.star()
    assert st == TensorElement.from_legs(ex, ey) * (-Scalar.i())


def test_rmatrix_intertwiner_on_covariant_d2():
    m = Model(ModelConfig([[1, 0], [0, -1]], (1, 0), "covariant_hadic", (2, 0)))
    one2 = TensorElement.one(m.pres, 2, m.trunc)
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


# --- pruned products against all-pairs reference loops ----------------------

T = (2, 1)


def deformed_heisenberg():
    """[y, x] = h*x - z with z central: a Lie algebra, so the rules are
    confluent; the exact h in the rule feeds the legwise normalization."""
    pres = Presentation("heis_h")
    x = pres.add_generator("x")
    y = pres.add_generator("y")
    z = pres.add_generator("z")
    pres.set_commutator(y, x, {(x,): Scalar.h(1), (z,): Scalar.rational(-1)})
    return pres


def rand_coeff(rng, min_h=0):
    """A nonzero coefficient: truncated at T over bigrades up to and past T,
    or (one time in three) exact up to h^4 xi^3."""
    exact = rng.random() < 1 / 3
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(min_h, 4 if exact else 3),
                   rng.randint(0, 3 if exact else 2))
            terms[key] = GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
        s = Scalar(terms, None if exact else T)
        if s:
            return s


def rand_word(rng):
    return tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(0, 2))))


def rand_terms(rng, rank, nterms=7, min_h=0):
    return {
        tuple(rand_word(rng) for _ in range(rank)): rand_coeff(rng, min_h)
        for _ in range(nterms)
    }


def rand_element(pres, rng, rank, **kw):
    return TensorElement(pres, rank, rand_terms(rng, rank, **kw), T)


def add_into(out, key, c):
    acc = out.get(key)
    c = c if acc is None else acc + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def reference_product(a, b):
    """Every term pair multiplied, legwise, with no floor test; also counts
    the pairs whose coefficient product truncates to zero."""
    norm = a.pres.normalize_word
    out = {}
    vanished = 0
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            c12 = c1 * c2
            if not c12:
                vanished += 1
                continue
            partial = {(): c12}
            for leg in range(len(k1)):
                partial = {
                    key + (w,): c * cw
                    for key, c in partial.items()
                    for w, cw in norm(k1[leg] + k2[leg]).items()
                }
            for key, c in partial.items():
                add_into(out, key, c)
    return out, vanished


def reference_leg_map(tensor, leg, image):
    out = {}
    for key, c in tensor.terms.items():
        for legs, ci in image(key[leg]):
            add_into(out, key[:leg] + legs + key[leg + 1:], c * ci)
    return out


def rand_hopf(pres, rng):
    """Arbitrary images on generators (no axioms needed: the leg maps are
    linear), with truncated and exact coefficients and some zero counits."""
    n = len(pres.generators)
    cop = {i: rand_element(pres, rng, 2, nterms=4) for i in range(n)}
    antipode = {i: rand_element(pres, rng, 1, nterms=3) for i in range(n)}
    counit = {i: rand_coeff(rng) if i else Scalar.zero(T) for i in range(n)}
    return HopfData(pres, cop, antipode, counit, T)


def product_operands(pres, rank):
    """Seeded random operand pairs of the given rank: six random pairs, then
    exact h^-1 terms against truncated coefficients of h-degree >= 1."""
    rng = random.Random(1000 + rank)
    pairs = [
        (rand_element(pres, rng, rank), rand_element(pres, rng, rank))
        for _ in range(6)
    ]
    laurent = rand_element(pres, rng, rank, min_h=1)
    w = next(iter(laurent.terms))
    laurent.terms[w] = Scalar({(-1, 1): 2, (3, 0): 1})
    other = rand_element(pres, rng, rank, min_h=1)
    return pairs + [(laurent, other), (other, laurent), (laurent, laurent)]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pruned_product_matches_all_pairs_reference(rank):
    pres = deformed_heisenberg()
    vanished = 0
    for a, b in product_operands(pres, rank):
        ref, v = reference_product(a, b)
        assert (a * b).terms == ref
        vanished += v
    # the floor rule has pairs to skip
    assert vanished > 0


def assert_as_constructed(t, rank):
    """``t`` holds exactly what the checking constructor builds from it:
    rank-long tuple keys of word tuples, nonzero coefficients, same order."""
    assert type(t) is TensorElement and t.rank == rank
    for key in t.terms:
        assert type(key) is tuple and len(key) == rank
        assert all(type(w) is tuple for w in key)
    rebuilt = TensorElement(t.pres, t.rank, t.terms, t.trunc)
    assert rebuilt == t and list(rebuilt.terms) == list(t.terms)


def summable(a, b):
    """False when one key holds an exact h^-1 term on one side and a
    truncated coefficient on the other: their sum is undefined."""
    return not any(
        x.has_negative_h() and y.trunc is not None
        for k in a.terms.keys() & b.terms.keys()
        for x, y in ((a.terms[k], b.terms[k]), (b.terms[k], a.terms[k]))
    )


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_tensor_kernels_build_what_the_constructor_builds(rank):
    pres = deformed_heisenberg()
    hopf = rand_hopf(pres, random.Random(3000 + rank))
    for a, b in product_operands(pres, rank):
        # the Hopf images hold truncated h^0 coefficients, and their product
        # with an h^-1 term would be a Laurent term under a finite truncation
        on_hopf = [x for x in (a, b)
                   if not any(c.has_negative_h() for c in x.terms.values())]
        assert_as_constructed(a * b, rank)
        if summable(a, b):
            assert_as_constructed(a + b, rank)
        assert_as_constructed(a.permute_legs(range(rank)[::-1]), rank)
        for x in on_hopf:
            for leg in range(rank):
                assert_as_constructed(hopf.apply_cop_leg(x, leg), rank + 1)
                assert_as_constructed(hopf.apply_antipode_leg(x, leg), rank)
                if rank > 2:
                    assert_as_constructed(
                        hopf.apply_counit_leg(x, leg), rank - 1)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pruned_leg_maps_match_all_pairs_reference(rank):
    pres = deformed_heisenberg()
    rng = random.Random(2000 + rank)
    hopf = rand_hopf(pres, rng)
    # at rank 1 the coproduct and antipode leg maps are ``cop`` and
    # ``antipode_of``; the counit of an element is a Scalar, not a leg map
    maps = {
        "cop": (hopf.apply_cop_leg, lambda w: hopf.cop_word(w).terms.items()),
        "antipode": (hopf.apply_antipode_leg,
                     lambda w: hopf.antipode_word(w).terms.items()),
    }
    if rank > 1:
        maps["counit"] = (hopf.apply_counit_leg, lambda w: [
            ((), hopf.counit_word(w))
        ])
    for _ in range(4):
        t = rand_element(pres, rng, rank)
        for leg in range(rank):
            for name, (apply, image) in maps.items():
                ref = reference_leg_map(t, leg, image)
                assert apply(t, leg).terms == ref, (name, leg)


def test_pruned_product_still_raises_on_mismatched_truncations():
    pres = deformed_heisenberg()
    # floors 2 + 2 exceed both (2, 0) and (3, 0), yet the truncations differ
    a = TensorElement(pres, 1, {((0,),): Scalar.h(2, (2, 0))})
    b = TensorElement(pres, 1, {((1,),): Scalar.h(2, (3, 0))})
    with pytest.raises(TruncationMismatch):
        a * b
    one = TensorElement.one(pres, 1)
    with pytest.raises(TruncationMismatch):
        TensorElement.from_legs(a, one) * TensorElement.from_legs(one, b)


def test_every_leg_map_merges_the_hopf_truncation():
    m = Model(ModelConfig([[1, 0], [0, -1]], (1, 0), "covariant_hadic", (2, 0)))
    for rank in (2, 3):
        one = TensorElement.one(m.pres, rank, None)
        for apply in (m.hopf.apply_cop_leg, m.hopf.apply_antipode_leg,
                      m.hopf.apply_counit_leg):
            assert apply(one, 0).trunc == (2, 0)
