"""Tests for tensor calculus and Hopf-axiom verification on toy algebras,
for the R-matrix intertwiner check on a small model, and for the pruned
products and leg maps against all-pairs reference loops, which multiply
Scalars and so do not share the graded kernels' degree test.  Tensor x
Scalar, an outer product, is checked against a graded pair loop of its
own."""

import random

import pytest

from kdeform import scalar, twist
from kdeform.errors import (
    KdeformError,
    PresentationError,
    ScalarDomainError,
    TruncationMismatch,
)
from kdeform.hopf import (
    HopfData,
    check_rmatrix_intertwiner,
    otimes,
    verify_axioms,
    verify_reality,
)
from kdeform.model import Model, ModelConfig, hopf_axiom_check
from kdeform.ncalg import Presentation, TensorElement
from kdeform.report import Report
from kdeform.scalar import (
    GaussianRational, Scalar, accumulate, product_trunc, scalar_view,
)
from kdeform.series import exp_nilpotent


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
    checks = verify_axioms(hopf, degree2=True)
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
    checks = verify_axioms(hopf, degree2=True)
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
    # the unit intertwines the cocommutative primitive coproduct with its
    # flip
    primitive = twist.primitive_hopf(m.pres, m.trunc)
    assert check_rmatrix_intertwiner(primitive, one2).ok
    # but not the deformed one, on any generator
    rep = check_rmatrix_intertwiner(m.hopf, one2)
    assert [c.name for c in rep.checks if not c.passed] == [
        "intertwines[P_0]", "intertwines[P_1]", "intertwines[M_01]"
    ]
    assert [c.name for c in rep.checks if c.passed] == [
        "invertible", "triangular", "qybe", "counit_left", "counit_right"
    ]
    with pytest.raises(KdeformError):
        check_rmatrix_intertwiner(m.hopf, one2 * 2)


MINK4 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_qybe_needs_commuting_exponent_legs():
    # R = exp(h (A ^ B)) is triangular for any A, B, but solves the QYBE
    # only when [A, B] = 0: M_01 commutes with M_23, not with M_12
    m = Model(ModelConfig(MINK4, (0, 1, 0, 0), "covariant_hadic", (2, 1)))
    primitive = twist.primitive_hopf(m.pres, m.trunc)
    a = m.m(0, 1)
    for slots, solves in (((2, 3), True), ((1, 2), False)):
        b = m.m(*slots)
        r = exp_nilpotent((otimes(a, b) - otimes(b, a)) * Scalar.h(1, m.trunc))
        flags = {c.name: c.passed
                 for c in check_rmatrix_intertwiner(primitive, r).checks}
        assert flags["triangular"] and flags["invertible"]
        assert flags["qybe"] is solves


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


def normal_form(pres, word):
    """``normalize_word``'s rows read back as a dict from words to exact
    Scalars."""
    return scalar_view({r[:3]: r[3] for r in pres.normalize_word(word)}, None)


def reference_product(a, b):
    """Every term pair multiplied, legwise, with no degree test; also counts
    the pairs whose coefficient product truncates to zero."""
    pres = a.pres
    out = {}
    vanished = 0
    for k1, c1 in a.by_legs().items():
        for k2, c2 in b.by_legs().items():
            c12 = c1 * c2
            if not c12:
                vanished += 1
                continue
            partial = {(): c12}
            for leg in range(len(k1)):
                partial = {
                    key + (w,): c * cw
                    for key, c in partial.items()
                    for w, cw in normal_form(pres, k1[leg] + k2[leg]).items()
                }
            for key, c in partial.items():
                add_into(out, key, c)
    return out, vanished


def reference_leg_map(tensor, leg, image):
    out = {}
    for key, c in tensor.by_legs().items():
        for legs, ci in image(key[leg]):
            add_into(out, key[:leg] + legs + key[leg + 1:], c * ci)
    return out


def rand_hopf(pres, rng):
    """Arbitrary images on generators (no axioms needed: the leg maps are
    linear), cut to T, with truncated and exact counits, some zero; the
    structure's truncation is read from its tables."""
    n = len(pres.generators)
    cop = {i: rand_element(pres, rng, 2, nterms=4) for i in range(n)}
    antipode = {i: rand_element(pres, rng, 1, nterms=3) for i in range(n)}
    counit = {i: rand_coeff(rng) if i else Scalar.zero(T) for i in range(n)}
    return HopfData(pres, cop, antipode, counit)


def seeded_operands(pres, rank):
    """Seeded random operands of the given rank: six random pairs, an exact
    element with an h^-1 term, all its coefficients exact, and a truncated
    one of h-degree >= 1.  A truncated element cannot hold the h^-1 term."""
    rng = random.Random(1000 + rank)
    pairs = [
        (rand_element(pres, rng, rank), rand_element(pres, rng, rank))
        for _ in range(6)
    ]
    terms = {
        k: Scalar(c.terms) for k, c in rand_terms(rng, rank, min_h=1).items()
    }
    terms[next(iter(terms))] = Scalar({(-1, 1): 2, (3, 0): 1})
    laurent = TensorElement(pres, rank, terms)
    return pairs, laurent, rand_element(pres, rng, rank, min_h=1)


def product_operands(pres, rank):
    """The six random pairs of ``seeded_operands`` and the exact element
    with an h^-1 term times itself.  Its products with the truncated element
    raise (``test_laurent_factor_under_a_finite_truncation_raises``)."""
    pairs, laurent, _ = seeded_operands(pres, rank)
    return pairs + [(laurent, laurent)]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_laurent_factor_under_a_finite_truncation_raises(rank):
    # multiplying by h^-1 brings cut terms back into the kept range, so the
    # truncated product would not associate
    _, laurent, truncated = seeded_operands(deformed_heisenberg(), rank)
    for a, b in ((laurent, truncated), (truncated, laurent)):
        for product in (lambda: a * b,
                        lambda: TensorElement.from_legs(a, b)):
            with pytest.raises(ScalarDomainError, match="Laurent factors"):
                product()
    for a, b in ((laurent, Scalar.one(T)), (truncated, Scalar.h(-1))):
        with pytest.raises(ScalarDomainError, match="Laurent factors"):
            a * b


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pruned_product_matches_all_pairs_reference(rank):
    pres = deformed_heisenberg()
    vanished = 0
    for a, b in product_operands(pres, rank):
        ref, v = reference_product(a, b)
        assert (a * b).by_legs() == ref
        vanished += v
    # the truncation has pairs to skip
    assert vanished > 0


class CountingRow(list):
    """A right operand's sorted row that counts the terms a product reads."""

    read = 0

    def __iter__(self):
        for term in list.__iter__(self):
            self.read += 1
            yield term


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sorted_right_operand_stops_the_product_early(rank):
    pres = deformed_heisenberg()
    read = pairs = 0
    for a, b in product_operands(pres, rank):
        row = b.by_h()
        assert [t[1] for t in row] == sorted(t[1] for t in row)
        assert b.by_h() is row
        row = b._by_h = CountingRow(row)
        ref, _ = reference_product(a, b)
        for _ in range(2):
            assert (a * b).by_legs() == ref
        # a repeated right operand keeps its one sorted row
        assert b.by_h() is row
        if a.trunc is None and b.trunc is None:
            # exact operands have no truncation to stop at
            assert row.read == 2 * len(a.terms) * len(row)
        else:
            read += row.read
            pairs += 2 * len(a.terms) * len(row)
    # the stop skips term pairs that the truncation rules out
    assert 0 < read < pairs


def assert_as_constructed(t, rank):
    """``t`` holds what the checking constructor builds from its Scalar
    view: graded keys of a rank-long tuple of word tuples and two int
    degrees, with nonzero GaussianRational coefficients."""
    assert type(t) is TensorElement and t.rank == rank
    for (legs, a, b), c in t.terms.items():
        assert type(legs) is tuple and len(legs) == rank
        assert all(type(w) is tuple for w in legs)
        assert type(a) is int and type(b) is int
        assert type(c) is GaussianRational and c
    assert TensorElement(t.pres, t.rank, t.by_legs(), t.trunc) == t


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_tensor_kernels_build_what_the_constructor_builds(rank):
    pres = deformed_heisenberg()
    hopf = rand_hopf(pres, random.Random(3000 + rank))
    for a, b in product_operands(pres, rank):
        # the Hopf images hold truncated h^0 coefficients, and their product
        # with the exact element's h^-1 term would be a Laurent term under a
        # finite truncation
        on_hopf = [x for x in (a, b) if x.trunc is not None]
        assert_as_constructed(a * b, rank)
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
    assert hopf.trunc == T
    # at rank 1 the coproduct and antipode leg maps are ``cop`` and
    # ``antipode_of``; the counit of an element is a Scalar, not a leg map
    maps = {
        "cop": (hopf.apply_cop_leg,
                lambda w: hopf.cop_word(w).by_legs().items()),
        "antipode": (hopf.apply_antipode_leg,
                     lambda w: hopf.antipode_word(w).by_legs().items()),
    }
    if rank > 1:
        maps["counit"] = (hopf.apply_counit_leg,
                          lambda w: hopf.counit_word(w).by_legs().items())
    for _ in range(4):
        t = rand_element(pres, rng, rank)
        for leg in range(rank):
            for name, (apply, image) in maps.items():
                ref = reference_leg_map(t, leg, image)
                assert apply(t, leg).by_legs() == ref, (name, leg)


def test_pruned_product_still_raises_on_mismatched_truncations():
    pres = deformed_heisenberg()
    # degrees 2 + 2 exceed both (2, 0) and (3, 0), yet the truncations differ
    a = TensorElement(pres, 1, {((0,),): Scalar.h(2, (2, 0))}, (2, 0))
    b = TensorElement(pres, 1, {((1,),): Scalar.h(2, (3, 0))}, (3, 0))
    with pytest.raises(TruncationMismatch):
        a * b
    one = TensorElement.one(pres, 1)
    with pytest.raises(TruncationMismatch):
        TensorElement.from_legs(a, one) * TensorElement.from_legs(one, b)


def reference_scalar_product(t, s):
    """``t * s`` by a pair loop of its own: every tensor term times every
    Scalar term, kept by ``scalar._keep`` at the merged truncation, summed by
    ``scalar.accumulate``.  Before Tensor x Scalar became an outer product,
    the product ran this loop."""
    trunc = product_trunc(t, s)
    kept = [
        (k, a + da, b + db, c * g)
        for (k, a, b), c in t.terms.items()
        for (da, db), g in s.terms.items()
        if trunc is None or scalar._keep((a + da, b + db), trunc)
    ]
    return TensorElement._make(t.pres, t.rank, accumulate({}, kept, trunc),
                               trunc)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_tensor_times_scalar_matches_the_pair_loop(rank):
    pres = deformed_heisenberg()
    pairs, laurent, truncated = seeded_operands(pres, rank)
    rng = random.Random(4000 + rank)
    exact = TensorElement(pres, rank, {
        k: Scalar(c.terms) for k, c in rand_terms(rng, rank).items()})
    tensors = [x for pair in pairs for x in pair] + [laurent, truncated, exact]
    scalars = [rand_coeff(rng) for _ in range(8)] + [
        Scalar({(-1, 0): 2, (1, 1): GaussianRational(0, 3)}),  # exact Laurent
        Scalar.zero(), Scalar.zero(T), Scalar.one(), Scalar.one(T),
        Scalar.h(1, (3, 0)),  # a second finite truncation
    ]
    refused = set()
    for t in tensors:
        for s in scalars:
            try:
                ref = reference_scalar_product(t, s)
            except (ScalarDomainError, TruncationMismatch) as e:
                refused.add(type(e))
                for product in (lambda: t * s, lambda: s * t):
                    with pytest.raises(type(e)):
                        product()
                continue
            assert t * s == ref == s * t
            assert_as_constructed(t * s, rank)
    # an exact Laurent factor under a finite truncation, and two finite ones
    assert refused == {ScalarDomainError, TruncationMismatch}
    with pytest.raises(ScalarDomainError, match="Laurent factors"):
        laurent * Scalar.one(T)
    with pytest.raises(ScalarDomainError, match="Laurent factors"):
        truncated * Scalar.h(-1)
    with pytest.raises(TruncationMismatch):
        truncated * Scalar.one((3, 0))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_the_unit_at_h_order_zero_is_the_unit(rank, k):
    pres = deformed_heisenberg()
    trunc = (0, k)
    one = TensorElement.one(pres, rank, trunc)
    assert one.by_legs() == {((),) * rank: Scalar.one(trunc)}
    x = TensorElement(pres, rank, {
        key: Scalar.xi(k, trunc) + Scalar.rational(3, trunc)
        for key in [((0, 1),) * rank, ((2,),) * rank]}, trunc)
    assert one * x == x == x * one


def test_every_leg_map_merges_the_hopf_truncation():
    m = Model(ModelConfig([[1, 0], [0, -1]], (1, 0), "covariant_hadic", (2, 0)))
    for rank in (2, 3):
        one = TensorElement.one(m.pres, rank, None)
        for apply in (m.hopf.apply_cop_leg, m.hopf.apply_antipode_leg,
                      m.hopf.apply_counit_leg):
            assert apply(one, 0).trunc == (2, 0)


def reference_star(x):
    """The adjoint letter by letter: each leg word rebuilt as the product of
    its generators in reverse order, the legs side by side, times the
    conjugated coefficient."""
    pres = x.pres
    out = TensorElement.zero(pres, x.rank, x.trunc)
    for key, c in x.by_legs().items():
        legs = []
        for w in key:
            img = TensorElement.one(pres, 1, x.trunc)
            for letter in reversed(w):
                img = img * TensorElement.gen(pres, letter)
            legs.append(img)
        conj = Scalar({k: v.conjugate() for k, v in c.terms.items()}, c.trunc)
        out = out + TensorElement.from_legs(*legs) * conj
    return out


def rand_star_coeff(rng, trunc):
    """Nonzero: truncated at ``trunc`` over bigrades up to and past it, or,
    when exact, with h^-1 terms."""
    low, high = (0, 3) if trunc else (-1, 2)
    while True:
        s = Scalar({
            (rng.randint(low, high), rng.randint(0, 2)):
                GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
            for _ in range(rng.randint(1, 3))
        }, trunc)
        if s:
            return s


def rand_normal_word(rng, pres):
    # a normal word from the normal form of a random word of length <= 3
    n = len(pres.generators)
    word = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
    normal = sorted({row[0] for row in pres.normalize_word(word)})
    return rng.choice(normal) if normal else ()


MINK3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]


# one d=3 model of each flavor
FLAVORS = [
    ((1, 0, 0), "covariant_hadic", T),
    ((1, 0, 0), "orthog_1_plus", T),
    ((1, 1, 0), "null_plane", T),
    ((1, 0, 0), "qanalog_timelike", None),
    ((1, 1, 0), "qanalog_lightlike", None),
]
FLAVOR_IDS = ["covariant", "orthog", "null_plane", "q_timelike", "q_lightlike"]


@pytest.mark.parametrize("tau,flavor,trunc", FLAVORS, ids=FLAVOR_IDS)
def test_star_matches_letter_by_letter_reference(tau, flavor, trunc):
    m = Model(ModelConfig(MINK3, tau, flavor, trunc))
    pres = m.pres
    rng = random.Random(2916)
    for rank in (1, 2, 3):
        for _ in range(6):
            x = TensorElement(pres, rank, {
                tuple(rand_normal_word(rng, pres) for _ in range(rank)):
                    rand_star_coeff(rng, trunc)
                for _ in range(5)
            }, trunc)
            assert x.star().terms == reference_star(x).terms
    for i in range(len(pres.generators)):
        cop = m.hopf.cop(TensorElement.gen(pres, i, trunc))
        assert cop.star().terms == reference_star(cop).terms


# --- every coefficient carries its tensor's truncation ----------------------


def stray_coefficients(hopf):
    """(table, word, key, tensor truncation) of every term of a coproduct
    or antipode value, stored or memoized, or of a memoized counit image,
    that its tensor's truncation does not keep: a degree beyond it, or a
    negative h-degree under it.  The kernels build these values through the
    unchecked fast path, so the constructor's cut does not cover them."""
    tables = {
        "coproduct": hopf.coproduct, "antipode": hopf.antipode,
        "cop_word": hopf._cop_cache, "antipode_word": hopf._antipode_cache,
        "counit_word": hopf._counit_cache,
    }
    return [
        (name, word, key, value.trunc)
        for name, table in tables.items()
        for word, value in table.items()
        for key in value.terms
        if value.trunc is not None and not (
            0 <= key[1] <= value.trunc[0] and 0 <= key[2] <= value.trunc[1]
        )
    ]


@pytest.mark.parametrize("tau,flavor,trunc", FLAVORS, ids=FLAVOR_IDS)
def test_model_tables_carry_one_truncation(tau, flavor, trunc):
    m = Model(ModelConfig(MINK3, tau, flavor, trunc))
    assert m.hopf.trunc == m.trunc == trunc
    # the axiom sweep fills the word caches through the product kernel and
    # the leg maps
    assert all(c.passed for c in verify_axioms(m.hopf, degree2=False))
    assert len(m.hopf._cop_cache) > len(m.pres.generators)
    assert stray_coefficients(m.hopf) == []


@pytest.mark.parametrize("label,tau,flavor,over", [
    ("T1", (1, 0, 0, 0), "orthog_1_plus", "deformed"),
    ("LC", (1, 1, 0, 0), "null_plane", "primitive"),
], ids=["T1", "LC"])
def test_twisted_tables_carry_one_truncation(label, tau, flavor, over):
    # each row over the structure it is a 2-cocycle of
    m = Model(ModelConfig(MINK4, tau, flavor, T))
    hopf = m.hopf if over == "deformed" else twist.primitive_hopf(m.pres, T)
    twisted = twist.twist_hopf(hopf, twist.build_twist(label, m))
    assert twisted.trunc == T
    # the coproduct and antipode of each twisted coproduct's product fill
    # the word caches
    for i in range(len(m.pres.generators)):
        x = twisted.cop(TensorElement.gen(m.pres, i, T)).merge_legs()
        twisted.cop(x)
        twisted.antipode_of(x)
    assert stray_coefficients(twisted) == []


def test_hopf_tables_at_two_truncations_are_refused():
    pres = deformed_heisenberg()
    low, high = (twist.primitive_hopf(pres, t) for t in ((2, 0), (3, 0)))
    with pytest.raises(TruncationMismatch):
        HopfData(pres, low.coproduct, high.antipode, low.counit)
    with pytest.raises(TruncationMismatch):
        HopfData(pres, {**low.coproduct, 0: high.coproduct[0]},
                 low.antipode, low.counit)


# --- the Hopf and twist checks do no Scalar arithmetic ------------------------


def test_hopf_and_twist_checks_do_no_scalar_arithmetic(monkeypatch):
    # rules, normal forms and counit images are graded rows with
    # GaussianRational coefficients, so the axiom sweep, the cocycle check
    # and the twisting never sum or multiply Scalars
    m = Model(ModelConfig(MINK4, (1, 0, 0, 0), "covariant_hadic", (2, 0)))
    t1 = Model(ModelConfig(MINK4, (1, 0, 0, 0), "orthog_1_plus", (2, 1)))
    f = twist.build_twist("T1", t1)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__"):
        def counted(self, other, run=getattr(Scalar, name), name=name):
            calls.append(name)
            return run(self, other)
        monkeypatch.setattr(Scalar, name, counted)
    assert all(c.passed for c in verify_axioms(m.hopf))
    assert twist.cocycle_check(f, t1.hopf).ok
    twisted = twist.twist_hopf(t1.hopf, f)
    assert twisted.coproduct != t1.hopf.coproduct
    assert calls == []
    # the counter sees Scalar arithmetic
    assert (Scalar.h() * Scalar.xi() + Scalar.one()) and calls == [
        "__mul__", "__add__"]


# --- the degree-2 sweep against an all-pairs reference loop -------------------


def reference_degree2_checks(hopf):
    """The degree-2 sweep computed pair by pair: for every ordered pair, the
    counit and antipode residuals of x = g_i g_j from x and its coproduct,
    with no word memo."""
    pres = hopf.pres
    n = len(pres.generators)
    one = TensorElement.one(pres, 1, hopf.trunc)
    bad = ([], [])
    for i in range(n):
        for j in range(n):
            x = (TensorElement.gen(pres, i, hopf.trunc)
                 * TensorElement.gen(pres, j, hopf.trunc))
            cop = hopf.cop(x)
            eps_x = one * hopf.counit_of(x)
            residuals = (
                [hopf.apply_counit_leg(cop, leg) - x for leg in (0, 1)],
                [hopf.apply_antipode_leg(cop, leg).merge_legs() - eps_x
                 for leg in (0, 1)],
            )
            for pairs, rs in zip(bad, residuals):
                if not all(r.is_zero() for r in rs):
                    pairs.append((pres.label(i), pres.label(j)))
    rep = Report("reference")
    for axiom, pairs in zip(("counit", "antipode"), bad):
        rep.add("%s_axiom_degree2_all_pairs" % axiom, not pairs,
                "" if not pairs else repr(pairs[:4]))
    return rep.checks


def corrupted_antipode(hopf, i):
    """``hopf`` with the antipode of generator ``i`` doubled."""
    return HopfData(hopf.pres, hopf.coproduct,
                    {**hopf.antipode, i: hopf.antipode[i] * 2}, hopf.counit)


def model_hopf(g, tau, flavor, trunc):
    return Model(ModelConfig(g, tau, flavor, trunc)).hopf


def heisenberg_corrupted_center():
    # y*x = x*y - z: the pair (y, x) fails through the rule's z alone, since
    # the word x*y passes
    pres, gens = heisenberg()
    return corrupted_antipode(primitive_hopf(pres, gens), gens[2])


MINK2 = [[1, 0], [0, -1]]


@pytest.mark.parametrize("make,fails", [
    pytest.param(lambda: model_hopf(MINK2, (1, 0), "covariant_hadic", (2, 0)),
                 False, id="covariant_d2"),
    pytest.param(lambda: model_hopf(MINK3, (1, 0, 0), "covariant_hadic",
                                    (2, 0)), False, id="covariant_d3"),
    pytest.param(lambda: model_hopf(MINK3, (1, 0, 0), "qanalog_timelike",
                                    None), False, id="qanalog_d3"),
    pytest.param(lambda: jordanian_toy(break_antipode=True)[1], True,
                 id="jordanian_broken"),
    pytest.param(heisenberg_corrupted_center, True,
                 id="heisenberg_corrupted_center"),
    pytest.param(lambda: corrupted_antipode(model_hopf(
        MINK3, (1, 0, 0), "covariant_hadic", (2, 0)), 5), True,
                 id="corrupted_d3_M_12"),
])
def test_degree2_sweep_matches_all_pairs_reference(make, fails):
    # the sweep judges a pair by the residuals of its words; the reference
    # computes every pair's residual from the pair's own product
    hopf = make()
    got = [c.to_dict() for c in verify_axioms(hopf, degree2=True)]
    want = [c.to_dict() for c in (verify_axioms(hopf, degree2=False)
                                  + reference_degree2_checks(hopf))]
    assert got == want
    swept = {c["name"]: c["passed"] for c in got[-2:]}
    assert swept["antipode_axiom_degree2_all_pairs"] is not fails
    assert swept["counit_axiom_degree2_all_pairs"]


def test_axiom_check_rewrites_no_new_words():
    # the sweep's word memo reads the same normal words and word images as
    # the all-pairs loop did: the rewriting cache and the coproduct,
    # antipode and counit memos keep their sizes
    m = Model(ModelConfig(MINK4, (1, 0, 0, 0), "covariant_hadic", (2, 0)))
    assert hopf_axiom_check(m).ok
    assert (len(m.pres._norm_cache), len(m.hopf._cop_cache),
            len(m.hopf._antipode_cache), len(m.hopf._counit_cache)) == (
        3579, 66, 127, 127)
