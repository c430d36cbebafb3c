"""Tests for the r-matrix wedge calculus and the Yang-Baxter classifier."""

import random
from fractions import Fraction

import pytest

from kdeform.errors import PresentationError, ScalarDomainError
from kdeform.metric import Metric
from kdeform.model import Model, ModelConfig, build_iso, change_basis, transform_tau
from kdeform.rmatrix import (
    WedgeTensor,
    ad_action,
    build_omega,
    build_r,
    omega_invariance_check,
    schouten,
    schouten_identity_check,
    ybe_classify,
)
from kdeform.scalar import Scalar, gr

MINK4 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
MINK3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
EUCL3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def failed(report):
    return [c.name for c in report.checks if not c.passed]


# --- wedge storage -------------------------------------------------------------


def test_wedge_canonicalization():
    pres = build_iso(EUCL3)
    a, b = pres.gen_index("P_0"), pres.gen_index("M_01")
    w1 = WedgeTensor(pres, 2, {(a, b): 1})
    w2 = WedgeTensor(pres, 2, {(b, a): -1})
    assert (w1 - w2).is_zero()
    assert (w1.coeff((b, a)) + Scalar.one()).is_zero()
    # repeated index is dropped
    assert WedgeTensor(pres, 2, {(a, a): 5}).is_zero()
    # rank-3 sign bookkeeping: one transposition flips
    c = pres.gen_index("P_1")
    t1 = WedgeTensor(pres, 3, {(a, c, b): Fraction(2)})
    t2 = WedgeTensor(pres, 3, {(c, a, b): -2})
    assert (t1 - t2).is_zero()


def test_wedge_from_labels_and_arithmetic():
    pres = build_iso(EUCL3)
    w = WedgeTensor.from_labels(pres, 2, [("P_0", "M_01", 3), ("M_01", "P_0", 1)])
    # the reversed entry cancels a third of the first
    key = (pres.gen_index("P_0"), pres.gen_index("M_01"))
    assert (w.coeff(key) - Scalar.rational(2)).is_zero()
    half = w * Fraction(1, 2)
    assert (half + half - w).is_zero()
    assert (w - w).is_zero() and not w.is_zero()


def test_wedge_cuts_exact_coefficients_to_its_truncation():
    # a wedge has the one finite truncation of its coefficients; an exact
    # coefficient is cut to it, in the constructor and in a sum
    pres = build_iso(EUCL3)
    w = WedgeTensor(pres, 2, {
        (0, 1): Scalar.h(1, (2, 0)), (0, 2): Scalar.h(1) + Scalar.h(3),
    })
    assert w.trunc == (2, 0)
    assert w.by_key() == {(0, 1): Scalar.h(1, (2, 0)),
                          (0, 2): Scalar.h(1, (2, 0))}
    exact = WedgeTensor(pres, 2, {(1, 2): Scalar.h(2) + Scalar.h(4)})
    assert exact.trunc is None
    total = w + exact
    assert total.trunc == (2, 0)
    assert total.coeff((2, 1)) == -Scalar.h(2, (2, 0))
    with pytest.raises(ScalarDomainError):
        w + WedgeTensor(pres, 2, {(1, 2): Scalar.h(-1)})


def test_wedge_rank_guard():
    pres = build_iso(EUCL3)
    with pytest.raises(PresentationError):
        WedgeTensor(pres, 4, {})
    with pytest.raises(PresentationError):
        WedgeTensor(pres, 2, {(0, 1, 2): 1})


# --- r and Omega construction --------------------------------------------------


def test_build_r_components_timelike():
    # tau = e_0, g = diag(-1,1,1,1): r = M_01^P^1 + M_02^P^2 + M_03^P^3,
    # stored on sorted keys (P_i, M_0i) with the swap sign
    pres = build_iso(MINK4)
    r = build_r(MINK4, (1, 0, 0, 0), pres)
    for i in (1, 2, 3):
        key = (pres.gen_index("P_%d" % i), pres.gen_index("M_0%d" % i))
        assert (r.coeff(key) + Scalar.one()).is_zero()
    assert len(r.terms) == 3


def test_build_r_guards():
    pres = build_iso(MINK4)
    with pytest.raises(PresentationError):
        build_r(MINK4, (0, 0, 0, 0), pres)
    with pytest.raises(PresentationError):
        build_r(EUCL3, (1, 0, 0), pres)  # metric mismatch


def test_schouten_of_zero_is_zero():
    pres = build_iso(MINK4)
    assert schouten(WedgeTensor.zero(pres)).is_zero()
    verdict = ybe_classify(WedgeTensor.zero(pres))
    assert verdict["type"] == "CYBE"


# --- the bracket identity ------------------------------------------------------


def test_timelike_schouten_is_plus_omega():
    # tau^2 = -1 here, so -tau^2 Omega = +Omega
    pres = build_iso(MINK4)
    r = build_r(MINK4, (1, 0, 0, 0), pres)
    assert (schouten(r) - build_omega(pres)).is_zero()
    verdict = ybe_classify(r)
    assert verdict["type"] == "MYBE"
    assert (verdict["lam"] - Scalar.one()).is_zero()


def test_lightlike_schouten_vanishes():
    pres = build_iso(MINK4)
    r = build_r(MINK4, (1, 0, 0, 1), pres)
    assert schouten(r).is_zero()
    assert ybe_classify(r)["type"] == "CYBE"


def test_spacelike_mybe():
    pres = build_iso(MINK4)
    r = build_r(MINK4, (0, 0, 0, 1), pres)
    verdict = ybe_classify(r)
    assert verdict["type"] == "MYBE"
    assert (verdict["lam"] + Scalar.one()).is_zero()


def test_schouten_identity_check_reports():
    rep = schouten_identity_check(MINK4, (1, 0, 0, 0))
    assert failed(rep) == []
    rep = schouten_identity_check(MINK4, (1, 0, 0, 1))
    assert failed(rep) == []


def _random_rows(rng, dim):
    while True:
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
            for _ in range(dim)
        ]
        det_probe = Metric(
            [[sum(rows[a][m] * rows[b][m] for m in range(dim)) for b in range(dim)]
             for a in range(dim)]
        )
        try:
            det_probe.inverse()
            return rows
        except Exception:
            continue


def test_randomized_schouten_identity():
    # random congruence images of standard metrics with random tau
    rng = random.Random(4086)
    for dim, base in ((3, MINK3), (4, MINK4)):
        base_m = Metric(base)
        pres0 = build_iso(base_m)
        for _ in range(5):
            rows = _random_rows(rng, dim)
            pres = change_basis(pres0, rows)
            g = pres.iso_data["metric"]
            tau = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
            if all(x == 0 for x in tau):
                tau[0] = Fraction(1)
            rep = schouten_identity_check(g, tau, pres)
            assert failed(rep) == [], (dim, rows, tau)


def test_randomized_lightlike_stays_cybe():
    # transport a null direction through random basis changes: tau^2 = 0 is
    # basis independent, so every image must land in the CYBE class
    rng = random.Random(2014)
    base = Metric(MINK4)
    pres0 = build_iso(base)
    null_tau = (1, 1, 0, 0)  # g = diag(-1,1,1,1): tau^2 = 0
    assert base.square(tuple(Fraction(x) for x in null_tau)) == 0
    for _ in range(4):
        rows = _random_rows(rng, 4)
        pres = change_basis(pres0, rows)
        g = pres.iso_data["metric"]
        tau = transform_tau(base, rows, null_tau)
        assert g.square(tau) == 0
        r = build_r(g, tau, pres)
        assert ybe_classify(r)["type"] == "CYBE"


def test_schouten_term_order_independent():
    # same r assembled in two different term orders gives the same bracket
    pres = build_iso(MINK4)
    entries = [
        ("P_1", "M_01", Fraction(2, 3)),
        ("P_3", "M_23", Fraction(-1, 2)),
        ("P_0", "M_03", Fraction(5)),
        ("M_12", "P_2", Fraction(1, 7)),
    ]
    fwd = WedgeTensor.from_labels(pres, 2, entries)
    rev = WedgeTensor.from_labels(
        pres, 2, [(b, a, -c) for a, b, c in reversed(entries)]
    )
    assert (fwd - rev).is_zero()
    assert (schouten(fwd) - schouten(rev)).is_zero()


# --- the bracket against a leg-insertion reference -----------------------------


def scalar_sum(pairs):
    """The ``(key, Scalar)`` pairs summed by key, cancelled keys dropped."""
    out = {}
    for key, c in pairs:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def reference_schouten(w):
    """[[w, w]] by leg insertion into the tensor square.

    Every ordered pair of terms of the tensor square, which holds both orders
    of each wedge term, contributes [r12, r13] + [r12, r23] + [r13, r23]:
    three brackets each.  For skew w that is half the normalized bracket, and
    reading the tensor cube back through the wedge counts each component 3!
    times, hence the factor 1/3.
    """
    pres = w.pres
    minus_i = gr(0, -1)

    def bracket(i, j):
        if (i, j) in pres.comm_rules:
            key, sign = (i, j), 1
        elif (j, i) in pres.comm_rules:
            key, sign = (j, i), -1
        else:
            return []
        return [(word[0], c * minus_i * sign)
                for word, c in pres.comm_rules[key].items()]

    square = [term for (a, b), c in w.by_key().items()
              for term in (((a, b), c), ((b, a), -c))]
    raw = scalar_sum((
        (key, cab * ccd * f)
        for (a, b), cab in square
        for (c, d), ccd in square
        for key, f in (
            [((e, b, d), f) for e, f in bracket(a, c)]
            + [((a, e, d), f) for e, f in bracket(b, c)]
            + [((a, c, e), f) for e, f in bracket(b, d)]
        )
    ))
    return WedgeTensor(pres, 3, raw) * Fraction(1, 3)


def _random_scalar(rng, trunc=None, laurent=False):
    """1-3 terms in h and xi with Gaussian-rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(-1 if laurent else 0, 2), rng.randint(0, 2))
        terms[key] = gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return Scalar(terms, trunc)


def _random_wedge(rng, pres, n_terms, trunc=None, laurent=False):
    n = len(pres.generators)
    return WedgeTensor(pres, 2, {
        tuple(rng.sample(range(n), 2)): _random_scalar(rng, trunc, laurent)
        for _ in range(n_terms)
    })


@pytest.mark.parametrize("name, seed",
                         [("mink3", 31), ("mink4", 41), ("mink3_image", 59)])
def test_schouten_matches_leg_insertion_reference(name, seed):
    rng = random.Random(seed)
    pres = build_iso(MINK4 if name == "mink4" else MINK3)
    if name == "mink3_image":
        pres = change_basis(pres, _random_rows(rng, 3))
    nonzero = 0
    for n_terms in (0, 1, 2, 3, 5, 8):
        w = _random_wedge(rng, pres, n_terms)
        got = schouten(w)
        assert got.terms == reference_schouten(w).terms, (name, w)
        nonzero += not got.is_zero()
    assert nonzero >= 4


def test_schouten_matches_reference_on_build_r_images():
    rng = random.Random(2916)
    for dim, base in ((3, MINK3), (4, MINK4)):
        pres = change_basis(build_iso(base), _random_rows(rng, dim))
        tau = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
        tau[0] = tau[0] or Fraction(1)
        r = build_r(pres.iso_data["metric"], tau, pres)
        assert schouten(r).terms == reference_schouten(r).terms


def test_schouten_matches_reference_with_laurent_terms():
    pres = build_iso(MINK4)
    w = _random_wedge(random.Random(86), pres, 6, laurent=True)
    assert any(c.has_negative_h() for c in w.by_key().values())
    got = schouten(w)
    assert not got.is_zero()
    assert got.terms == reference_schouten(w).terms


def test_schouten_matches_reference_when_pair_products_truncate():
    pres = build_iso(MINK4)
    w = _random_wedge(random.Random(21), pres, 7, trunc=(2, 1))
    coeffs = list(w.by_key().values())
    assert any(not c1 * c2 for c1 in coeffs for c2 in coeffs)
    got = schouten(w)
    assert not got.is_zero()
    assert got.trunc == (2, 1)
    assert all(c.trunc == (2, 1) for c in got.by_key().values())
    assert got.terms == reference_schouten(w).terms


def test_wedge_calculus_does_no_scalar_arithmetic(monkeypatch):
    # wedge terms are graded with GaussianRational coefficients, so the
    # bracket, Omega and the adjoint action never sum or multiply Scalars
    pres = change_basis(build_iso(MINK4), _random_rows(random.Random(20), 4))
    r = build_r(pres.iso_data["metric"], (1, 2, 0, Fraction(1, 2)), pres)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__"):
        def counted(self, other, run=getattr(Scalar, name), name=name):
            calls.append(name)
            return run(self, other)
        monkeypatch.setattr(Scalar, name, counted)
    s = schouten(r)
    omega = build_omega(pres)
    images = [ad_action(pres, i, w)
              for w in (r, omega) for i in range(len(pres.generators))]
    assert not s.is_zero() and not omega.is_zero()
    assert any(not w.is_zero() for w in images)
    assert calls == []
    # the counter sees Scalar arithmetic
    assert (Scalar.h() * Scalar.xi() + Scalar.one()) and calls == [
        "__mul__", "__add__"]


# --- Omega ---------------------------------------------------------------------


def test_omega_invariance():
    for g in (MINK3, MINK4, EUCL3):
        rep = omega_invariance_check(g)
        assert failed(rep) == []


def test_omega_invariance_nondiagonal():
    rng = random.Random(86)
    rows = _random_rows(rng, 3)
    pres = change_basis(build_iso(MINK3), rows)
    rep = omega_invariance_check(pres.iso_data["metric"], pres)
    assert failed(rep) == []


def test_ad_action_is_a_derivation_probe():
    # ad_x(r) on a single wedge matches the two-slot Leibniz expansion by hand:
    # ad_{M_01}(P_1 ^ M_01) = [M_01, P_1] ^ M_01 = -P_0 ^ M_01 (real bracket,
    # g = diag(-1,1,1,1) gives [M_01, P_1] = g_11 P_0 - g_01 P_1 -> +P_0)
    pres = build_iso(MINK4)
    w = WedgeTensor.from_labels(pres, 2, [("P_1", "M_01", 1)])
    img = ad_action(pres, pres.gen_index("M_01"), w)
    want = WedgeTensor.from_labels(pres, 2, [("P_0", "M_01", 1)])
    assert (img - want).is_zero()


# --- extended r-matrices -------------------------------------------------------


def test_lightlike_extension_preserves_cybe():
    m = Model(ModelConfig(MINK4, (1, 0, 0, 1), "null_plane", (2, 2)))
    r = build_r(m.metric, m.tau, m.pres)
    assert ybe_classify(r)["type"] == "CYBE"
    ext = WedgeTensor.from_labels(m.pres, 2, [("P_+", "M_+1", Scalar.xi())])
    assert ybe_classify(r + ext)["type"] == "CYBE"


def test_timelike_extension_preserves_mybe():
    # extension cell P_tau ^ M_12 commutes with everything it hits in the
    # cross bracket, so lambda is unchanged
    m = Model(ModelConfig(MINK4, (1, 0, 0, 0), "orthog_1_plus", (2, 2)))
    r = build_r(m.metric, m.tau, m.pres)
    ext = WedgeTensor.from_labels(m.pres, 2, [("P_tau", "M_12", Scalar.xi())])
    for cand in (r, r + ext):
        verdict = ybe_classify(cand)
        assert verdict["type"] == "MYBE"
        assert (verdict["lam"] - Scalar.one()).is_zero()  # -tau^2 with tau^2=-1


def test_abelian_cell_alone_is_cybe():
    # [P_1, M_23] = 0, so the standalone cell has vanishing bracket
    pres = build_iso(MINK4)
    cell = WedgeTensor.from_labels(pres, 2, [("P_1", "M_23", Scalar.xi())])
    assert schouten(cell).is_zero()


def test_other_class_keeps_residual():
    m = Model(ModelConfig(MINK4, (1, 0, 0, 1), "null_plane", (2, 2)))
    r = build_r(m.metric, m.tau, m.pres)
    ext = WedgeTensor.from_labels(m.pres, 2, [("P_+", "M_+-", Scalar.xi())])
    verdict = ybe_classify(r + ext)
    assert verdict["type"] == "other"
    assert not verdict["residual"].is_zero()


# --- one bracket reader per presentation ---------------------------------------


class CountingRules(dict):
    """A commutator table that counts the walks over its items."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


@pytest.mark.parametrize("check", [
    lambda pres: omega_invariance_check(MINK4, pres),
    lambda pres: schouten_identity_check(MINK4, (1, 0, 0, 0), pres),
], ids=["omega_invariance", "schouten_identity"])
def test_a_check_reads_the_brackets_once(check):
    # ad_action runs once per generator and schouten twice per identity
    # check; every call reads the presentation's one bracket table
    pres = build_iso(MINK4)
    pres.comm_rules = CountingRules(pres.comm_rules)
    assert check(pres).ok
    assert pres.comm_rules.walks == 1


# --- guards against non-Lie presentations --------------------------------------


def test_schouten_rejects_q_analog_presentation():
    m = Model(ModelConfig(MINK4, (1, 0, 0, 0), "qanalog_timelike", None))
    w = WedgeTensor.from_labels(m.pres, 2, [("P_1", "M_12", 1)])
    with pytest.raises(PresentationError):
        schouten(w)


def test_schouten_needs_rank_two():
    pres = build_iso(MINK4)
    with pytest.raises(PresentationError):
        schouten(build_omega(pres))
