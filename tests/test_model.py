"""Tests for the deformed Hopf algebra catalog (all five flavors)."""

import random
import re
from fractions import Fraction

import pytest

from kdeform import model as km
from kdeform.errors import (
    ClassicalLimitError, KdeformError, PresentationError,
)
from kdeform.hopf import HopfData
from kdeform.metric import Metric
from kdeform.model import (
    Model,
    ModelConfig,
    basis_change_check,
    build_iso,
    casimir_check,
    change_basis,
    classical_hopf_check,
    decomposition_display_check,
    hopf_axiom_check,
    hopf_covariance_check,
    nullplane_display_check,
    orthogonal_decompose,
    presentation_check,
    q_display_check,
    q_hadic_correspondence_check,
    reality_check,
    rescaling_isomorphism_check,
    h_polynomial_check,
    transform_tau,
)
from kdeform.ncalg import Presentation, TensorElement
from kdeform.rmatrix import build_r, schouten_identity_check
from kdeform.scalar import Scalar, gr
from kdeform.series import unital_power

MINK2 = [[1, 0], [0, -1]]
MINK3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
EUCL2 = [[1, 0], [0, 1]]


def failed(report):
    return [c.name for c in report.checks if not c.passed]


# --- undeformed presentations -------------------------------------------------


def test_iso_euclidean_2d_brackets():
    pres = build_iso(EUCL2)
    p0 = TensorElement.gen(pres, pres.gen_index("P_0"))
    p1 = TensorElement.gen(pres, pres.gen_index("P_1"))
    m01 = TensorElement.gen(pres, pres.gen_index("M_01"))
    i = Scalar.i()
    assert (m01.commutator(p0) + p1 * i).is_zero()
    assert (m01.commutator(p1) - p0 * i).is_zero()
    assert p0.commutator(p1).is_zero()


def test_iso_1d_is_abelian():
    pres = build_iso([[1]])
    assert [g.label for g in pres.generators] == ["P_0"]
    assert not pres.comm_rules


def test_iso_rejects_degenerate_metric():
    with pytest.raises(PresentationError):
        build_iso([[1, 1], [1, 1]])


@pytest.mark.parametrize("tau, flavor", [
    ((1, 0), "covariant_hadic"),
    ((0, 1), "null_plane"),
], ids=["covariant", "null_plane"])
def test_config_rejects_degenerate_metric(tau, flavor):
    # validated once, by the inverse, before any flavor or signature logic
    with pytest.raises(PresentationError, match="degenerate"):
        ModelConfig([[1, 0], [0, 0]], tau, flavor, (1, 0))


def test_presentation_check_passes_and_catches_sign_flip():
    pres = build_iso(MINK3)
    assert presentation_check(pres).ok
    # the same rules with the sign of the first structure constant flipped;
    # Jacobi must now fail
    bad = Presentation(pres.name)
    for g in pres.generators:
        bad.add_generator(g.label, g.weight)
    for n, ((i, j), rhs) in enumerate(pres.comm_rules.items()):
        bad.set_commutator(i, j, {w: -c if n == 0 else c
                                  for w, c in rhs.items()})
    rep = presentation_check(bad)
    assert not rep.ok
    labels = [g.label for g in bad.generators]
    for c in rep.checks:
        if not c.passed:
            # the residual is printed as an element over labelled words
            assert any(label in c.detail for label in labels), c.detail
            assert len(c.detail) <= 163


def test_presentation_check_dims_2_3_4_all_signatures():
    for signs in [(1, -1), (1, 1), (1, -1, -1), (1, 1, 1), (1, 1, -1, -1)]:
        g = [[(1 if a == b else 0) * signs[a] for b in range(len(signs))]
             for a in range(len(signs))]
        assert presentation_check(build_iso(g)).ok, signs


# --- basis changes -------------------------------------------------------------


def test_change_basis_rational_boost():
    rows = [(Fraction(5, 3), Fraction(4, 3)), (Fraction(4, 3), Fraction(5, 3))]
    pres = build_iso(MINK2)
    new = change_basis(pres, rows)
    assert new.iso_data["metric"].g == Metric(MINK2).g
    assert basis_change_check(pres, rows).ok


def test_change_basis_euclidean_rotation():
    rows = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))]
    pres = build_iso(EUCL2)
    new = change_basis(pres, rows)
    assert new.iso_data["metric"].g == Metric(EUCL2).g
    assert basis_change_check(pres, rows).ok


def test_basis_change_check_random_invertible():
    rng = random.Random(20140)
    pres = build_iso(MINK3)
    done = 0
    while done < 4:
        rows = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
            for _ in range(3)
        ]
        try:
            Metric([[Metric(MINK3).pair(u, v) for v in rows] for u in rows]).inverse()
        except PresentationError:
            continue
        rep = basis_change_check(pres, rows)
        assert rep.ok, (rows, failed(rep))
        done += 1


def test_transform_tau_boost():
    rows = [(Fraction(5, 3), Fraction(4, 3)), (Fraction(4, 3), Fraction(5, 3))]
    tt = transform_tau(Metric(MINK2), rows, (1, 0))
    assert tt == (Fraction(5, 3), Fraction(-4, 3))
    # tau^2 is invariant
    gt = Metric([[Metric(MINK2).pair(u, v) for v in rows] for u in rows])
    assert gt.square(tt) == Metric(MINK2).square((1, 0))


# --- adapted bases -------------------------------------------------------------


def test_orthogonal_decompose_already_adapted():
    basis, blocks, tau = orthogonal_decompose(MINK3, (1, 0, 0))
    assert basis[0] == (1, 0, 0)
    assert blocks.g[0][0] == 1 and blocks.g[0][1] == 0 and blocks.g[0][2] == 0
    assert tau == (1, 0, 0)


def test_orthogonal_decompose_gram_schmidt():
    basis, blocks, _ = orthogonal_decompose(EUCL2, (1, 1))
    assert basis[0] == (1, 1)
    assert blocks.g[0][0] == 2
    assert blocks.g[0][1] == 0 and blocks.g[1][0] == 0
    assert blocks.g[1][1] == Fraction(1, 2)


def test_orthogonal_decompose_null_pair():
    g4 = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    basis, blocks, _ = orthogonal_decompose(g4, (1, 0, 0, 1))
    assert basis[0] == (1, 0, 0, 1)
    assert blocks.g[0][0] == 0 and blocks.g[1][1] == 0
    assert blocks.g[0][1] == 1 and blocks.g[1][0] == 1
    # transverse block untouched
    assert blocks.g[2][2] == -1 and blocks.g[3][3] == -1
    assert blocks.g[0][2] == 0 and blocks.g[1][3] == 0


def test_orthogonal_decompose_rejects_bad_tau():
    with pytest.raises(PresentationError):
        orthogonal_decompose(EUCL2, (0, 0))
    # null tau is incompatible with the timelike q-analog
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (1, 1), "qanalog_timelike", None)


# --- config validation ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (1, 0, 0))  # wrong dimension
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (0, 0))  # zero tau
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (1, 1), "orthog_1_plus")  # needs tau^2 != 0
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (1, 0), "null_plane")  # needs tau^2 == 0
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (1, 1), "qanalog_lightlike", (2, 2))  # must be exact
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (1, 0), "covariant_hadic", None)  # needs trunc
    with pytest.raises(PresentationError):
        ModelConfig(EUCL2, (1, 1), "null_plane", (2, 2))  # no Euclidean nulls
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (1, 0), "no_such_flavor")


@pytest.mark.parametrize(
    "trunc", [(-1, 0), (2, -1), (3,), 3, (1.5, 0), [2, 0]],
    ids=["negative_h", "negative_xi", "one_order", "int", "float", "list"],
)
def test_config_rejects_malformed_trunc(trunc):
    # h-adic truncations are a tuple of two non-negative ints; anything else
    # used to build an all-zero model or fail deep inside the builder
    with pytest.raises(PresentationError):
        ModelConfig(MINK2, (1, 0), "covariant_hadic", trunc)


# --- covariant flavor -----------------------------------------------------------


@pytest.mark.parametrize(
    "tau", [(1, 0), (0, 1), (1, 1)], ids=["timelike", "spacelike", "lightlike"]
)
def test_covariant_axioms_d2(tau):
    m = Model(ModelConfig(MINK2, tau, "covariant_hadic", (3, 3)))
    rep = hopf_axiom_check(m)
    assert rep.ok, failed(rep)
    rep = casimir_check(m)
    assert rep.ok, failed(rep)


def test_covariant_axioms_d3_spacelike():
    m = Model(ModelConfig(MINK3, (0, 1, 0), "covariant_hadic", (2, 2)))
    rep = hopf_axiom_check(m)
    assert rep.ok, failed(rep)


def test_covariant_reality_d2():
    m = Model(ModelConfig(MINK2, (1, 0), "covariant_hadic", (3, 3)))
    rep = reality_check(m)
    assert rep.ok, failed(rep)


def test_covariant_casimir_identity_euclidean():
    # tau^2 < 0 exercises the other sign of the deformed Casimir relation
    m = Model(ModelConfig([[-1, 0], [0, -1]], (1, 0), "covariant_hadic", (3, 3)))
    rep = casimir_check(m)
    assert rep.ok, failed(rep)


def test_covariant_classical_limit():
    m = Model(ModelConfig(MINK2, (1, 0), "covariant_hadic", (3, 3)))
    rep = classical_hopf_check(m)
    assert rep.ok, failed(rep)


def test_classical_limit_rejects_surviving_kappa():
    m = Model(ModelConfig(MINK2, (1, 0), "qanalog_timelike", None))
    bad = m.p(1) * Scalar.monomial(gr(1), -1, 0)
    with pytest.raises(ClassicalLimitError):
        m.classical_limit(bad)


def test_covariant_rescaling_certificate():
    m = Model(ModelConfig(MINK2, (1, 1), "covariant_hadic", (2, 2)))
    rep = rescaling_isomorphism_check(m, lam=Fraction(3, 2))
    assert rep.ok, failed(rep)


def test_hopf_covariance_under_boost():
    m = Model(ModelConfig(MINK2, (1, 0), "covariant_hadic", (2, 2)))
    rows = [(Fraction(5, 3), Fraction(4, 3)), (Fraction(4, 3), Fraction(5, 3))]
    rep = hopf_covariance_check(m, rows)
    assert rep.ok, failed(rep)


def test_hopf_covariance_random_d3():
    rng = random.Random(2916)
    m = Model(ModelConfig(MINK3, (1, 0, 0), "covariant_hadic", (2, 2)))
    done = 0
    while done < 2:
        rows = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
            for _ in range(3)
        ]
        try:
            rep = hopf_covariance_check(m, rows)
        except PresentationError:
            continue  # singular draw
        assert rep.ok, (rows, failed(rep))
        done += 1


@pytest.mark.parametrize("g,tau,flavor", [
    ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
     (1, 0, 0, 0), "covariant_hadic"),
    (MINK3, (1, 1, 0), "null_plane"),
    (MINK3, (1, 0, 0), "orthog_1_plus"),
], ids=["covariant_d4", "null_plane_d3", "orthog_d3"])
@pytest.mark.parametrize("trunc", [(3, 0), (2, 1)])
def test_negative_pi_powers_are_powers_of_the_stored_inverse(g, tau, flavor,
                                                            trunc):
    m = Model(ModelConfig(g, tau, flavor, trunc))
    one = TensorElement.one(m.pres, 1, trunc)
    for k in (1, 2, 3):
        assert m.pi_power(-k) == unital_power(m.cas.Pi, -k)
        assert m.pi_power(-k) * m.pi_power(k) == one


def test_klog_starts_at_p_tau():
    # kappa*ln(Pi) = P_tau + O(h)
    m = Model(ModelConfig(MINK2, (1, 0), "covariant_hadic", (3, 3)))
    delta = m.klog - m.p(0)
    assert all(k[0] >= 1 for c in delta.by_legs().values() for k in c.terms)


# --- decomposed flavor ----------------------------------------------------------


@pytest.mark.parametrize("tau2_case", ["timelike", "spacelike"])
def test_orthog_displays_d3(tau2_case):
    tau = (1, 0, 0) if tau2_case == "timelike" else (0, 1, 0)
    m = Model(ModelConfig(MINK3, tau, "orthog_1_plus", (3, 3)))
    rep = decomposition_display_check(m)
    assert rep.ok, failed(rep)
    rep = hopf_axiom_check(m)
    assert rep.ok, failed(rep)


def test_orthog_skew_tau():
    # a non-axis tau exercises the Gram-Schmidt path end to end
    m = Model(ModelConfig(MINK3, (2, 1, 0), "orthog_1_plus", (2, 2)))
    assert m.tau2 == 3
    rep = decomposition_display_check(m)
    assert rep.ok, failed(rep)
    rep = casimir_check(m)
    assert rep.ok, failed(rep)


def test_orthog_rescaling_with_slot_grading():
    m = Model(ModelConfig(MINK3, (1, 0, 0), "orthog_1_plus", (2, 2)))
    rep = rescaling_isomorphism_check(m, lam=2)
    assert rep.ok, failed(rep)


# --- null-plane flavor ----------------------------------------------------------


def test_nullplane_displays_d3():
    m = Model(ModelConfig(MINK3, (1, 1, 0), "null_plane", (3, 3)))
    rep = nullplane_display_check(m)
    assert rep.ok, failed(rep)
    rep = hopf_axiom_check(m)
    assert rep.ok, failed(rep)
    rep = classical_hopf_check(m)
    assert rep.ok, failed(rep)


def test_nullplane_split_signature():
    m = Model(ModelConfig([[0, 1, 0], [1, 0, 0], [0, 0, -1]], (1, 0, 0), "null_plane", (2, 2)))
    assert m.metric.g[0][1] == 1 and m.metric.g[0][0] == 0
    rep = casimir_check(m)
    assert rep.ok, failed(rep)


def test_nullplane_rescaling():
    m = Model(ModelConfig(MINK3, (1, 1, 0), "null_plane", (2, 2)))
    rep = rescaling_isomorphism_check(m, lam=5)
    assert rep.ok, failed(rep)


# --- q-analogs ------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
def test_q_timelike_exact(dim):
    g = [[(1 if a == b else 0) * (1 if a == 0 else -1) for b in range(dim)]
         for a in range(dim)]
    tau = (1,) + (0,) * (dim - 1)
    m = Model(ModelConfig(g, tau, "qanalog_timelike", None))
    assert presentation_check(m.pres).ok
    rep = hopf_axiom_check(m)
    assert rep.ok, failed(rep)
    rep = q_display_check(m)
    assert rep.ok, failed(rep)
    rep = casimir_check(m)
    assert rep.ok, failed(rep)


def test_q_timelike_general_tau2():
    # tau^2 = 3 separates the printed forms from the derived ones
    m = Model(ModelConfig(MINK3, (2, 1, 0), "qanalog_timelike", None))
    rep = q_display_check(m)
    assert rep.ok, failed(rep)
    rep = h_polynomial_check(m)
    assert rep.ok, failed(rep)


def test_a_laurent_coproduct_is_not_h_polynomial():
    # the rules of the q-analog already carry h^-1; a coproduct entry that
    # does too fails the coalgebra check alone
    m = Model(ModelConfig(MINK3, (1, 0, 0), "qanalog_timelike", None))
    h = m.hopf
    m.hopf = HopfData(h.pres, {**h.coproduct, 2: h.coproduct[2] * Scalar.h(-1)},
                      h.antipode, h.counit)
    assert failed(h_polynomial_check(m)) == ["coalgebra_maps_h_polynomial"]


def test_q_timelike_antipode_polynomial_collapse():
    # the stored antipode of the boosts is polynomial: no Pi_inv letters
    m = Model(ModelConfig(MINK3, (1, 0, 0), "qanalog_timelike", None))
    piv = m.pres.gen_index("Pi_inv")
    for i in (1, 2):
        s = m.hopf.antipode[m.m_index[(0, i)]]
        assert all(piv not in w for (w,) in s.by_legs())


def test_q_lightlike_exact():
    m = Model(ModelConfig(MINK3, (1, 1, 0), "qanalog_lightlike", None))
    assert presentation_check(m.pres).ok
    for fn in (hopf_axiom_check, q_display_check, casimir_check,
               h_polynomial_check, classical_hopf_check):
        rep = fn(m)
        assert rep.ok, (fn.__name__, failed(rep))


# --- the printed displays, read by one reader ---------------------------------

# one d=3 model per display table; tau^2 = 3 for the tau^2 != 0 flavors, so
# that every printed deviation has a nonzero right side
DISPLAY_CASES = {
    "orthog_1_plus": (decomposition_display_check, "orthog_1_plus", (2, 1, 0), (2, 0)),
    "orthog_1_plus after the closed forms": (
        decomposition_display_check, "orthog_1_plus", (2, 1, 0), (2, 0)),
    "null_plane": (nullplane_display_check, "null_plane", (1, 1, 0), (2, 0)),
    "qanalog_timelike": (q_display_check, "qanalog_timelike", (2, 1, 0), None),
    "qanalog_lightlike": (q_display_check, "qanalog_lightlike", (1, 1, 0), None),
}
DISPLAY_MODELS = {}


def display_model(key):
    _check, flavor, tau, trunc = DISPLAY_CASES[key]
    if key not in DISPLAY_MODELS:
        DISPLAY_MODELS[key] = Model(ModelConfig(MINK3, tau, flavor, trunc))
    return DISPLAY_MODELS[key]


def printed_lines():
    """(table, group, line) of every printed line whose right side is not
    written as 0, so that flipping its sign changes it."""
    for key, groups in km._DISPLAYS.items():
        for g, (_letters, lines) in enumerate(groups):
            for n, (name, line) in enumerate(lines):
                if not callable(line) and not line.endswith("= 0"):
                    yield pytest.param(key, g, n, id="%s:%s" % (key, name))


def test_every_display_table_has_a_case():
    assert sorted(DISPLAY_CASES) == sorted(km._DISPLAYS)


@pytest.mark.parametrize("key,group,entry", printed_lines())
def test_a_sign_flip_in_one_printed_line_fails_that_check_alone(
        key, group, entry, monkeypatch):
    check = DISPLAY_CASES[key][0]
    model = display_model(key)
    n_checks = len(check(model).checks)
    groups = [(letters, list(lines)) for letters, lines in km._DISPLAYS[key]]
    name, line = groups[group][1][entry]
    lhs, rhs = line.split(" = ")
    groups[group][1][entry] = (name, "%s = -(%s)" % (lhs, rhs))
    monkeypatch.setitem(km._DISPLAYS, key, groups)
    rep = check(model)
    # the name with each braced letter read as any slot label
    pattern = re.sub(r"\\\{\w\\\}", lambda _: r"\d+", re.escape(name))
    assert len(rep.checks) == n_checks
    assert failed(rep), name
    assert all(re.fullmatch(pattern, f) for f in failed(rep)), failed(rep)


def test_the_display_reader_refuses_what_it_cannot_read():
    read = km._DisplayReader(display_model("null_plane"))
    assert read("Pi = 1 + h P_+", {}).is_zero()
    with pytest.raises(PresentationError, match="cannot read '\\$'"):
        read("Pi = 1 + h $ P_+", {})
    with pytest.raises(PresentationError, match="unread ']'"):
        read("Pi = 1 + h P_+ ]", {})
    with pytest.raises(PresentationError, match="k = 1/h needs an exact model"):
        read("Pi = k", {})
    # a q-analog has no klog; a digit past the last slot names no slot; ln
    # takes a unital argument only
    with pytest.raises(PresentationError,
                       match=r"klog = kappa ln\(Pi\) needs an h-adic model"):
        km._DisplayReader(display_model("qanalog_timelike"))("klog", {})
    with pytest.raises(PresentationError, match="no slots"):
        read("M_19", {})
    with pytest.raises(KdeformError, match="unital series needs positive"):
        read("ln(P_+)", {})
    # brackets hold a comma pair, a divisor is a nonzero number, a ')' closes
    # an open one, and a name with too few slot digits names no atom
    for text, message in (("[P_+]", "expected ','"),
                          ("P_+ / 0", "/ needs a nonzero number"),
                          (") P_+", "unexpected '\\)'"),
                          ("M_1", "cannot read M_1")):
        with pytest.raises(PresentationError, match=message):
            read(text, {})


def test_q_reality():
    m = Model(ModelConfig(MINK3, (1, 0, 0), "qanalog_timelike", None))
    rep = reality_check(m)
    assert rep.ok, failed(rep)
    m = Model(ModelConfig(MINK3, (1, 1, 0), "qanalog_lightlike", None))
    rep = reality_check(m)
    assert rep.ok, failed(rep)


def test_q_rescaling_specialization():
    for tau, flavor in [((1, 0, 0), "qanalog_timelike"), ((1, 1, 0), "qanalog_lightlike")]:
        m = Model(ModelConfig(MINK3, tau, flavor, None))
        rep = rescaling_isomorphism_check(m)
        assert rep.ok, (flavor, failed(rep))


@pytest.mark.parametrize(
    "flavor,trunc,want",
    [
        ("qanalog_timelike", None,
         ["grading_certificate", "specialize[kappa=2]", "specialize[kappa=10]"]),
        ("covariant_hadic", (2, 0),
         ["grading_certificate", "scaled_antipode[P_1]"]),
    ],
    ids=["qanalog", "hadic"],
)
def test_rescaling_catches_an_off_grade_antipode(flavor, trunc, want):
    # S(P_1) * h breaks the grading; both certificates must see it
    m = Model(ModelConfig(MINK3, (1, 0, 0), flavor, trunc))
    i = m.p_index[1]
    m.hopf.antipode[i] = m.hopf.antipode[i] * Scalar.h(1, m.trunc)
    assert failed(rescaling_isomorphism_check(m)) == want


@pytest.mark.parametrize(
    "tau,flavor",
    [((1, 0, 0), "qanalog_timelike"), ((1, 1, 0), "qanalog_lightlike")],
    ids=["timelike", "lightlike"],
)
def test_q_hadic_correspondence(tau, flavor):
    m = Model(ModelConfig(MINK3, tau, flavor, None))
    rep = q_hadic_correspondence_check(m, trunc=(3, 3))
    assert rep.ok, failed(rep)


def test_q_counit_values():
    m = Model(ModelConfig(MINK3, (1, 0, 0), "qanalog_timelike", None))
    pi, piv = m.grouplike
    assert (m.hopf.counit[pi] - Scalar.one()).is_zero()
    assert (m.hopf.counit[piv] - Scalar.one()).is_zero()
    for i, gen in enumerate(m.pres.generators):
        if i in (pi, piv):
            continue
        assert m.hopf.counit[i].is_zero(), gen.label


@pytest.mark.parametrize(
    "tau,flavor,trunc",
    [
        ((1, 0, 0), "covariant_hadic", (2, 1)),
        ((1, 0, 0), "orthog_1_plus", (2, 1)),
        ((1, 1, 0), "null_plane", (2, 1)),
        ((1, 0, 0), "qanalog_timelike", None),
        ((1, 1, 0), "qanalog_lightlike", None),
    ],
    ids=["covariant", "orthog", "null_plane", "q_timelike", "q_lightlike"],
)
def test_stored_entries_are_normal_under_the_final_rules(tau, flavor, trunc):
    # the builders normalize between rule installs; every stored entry must
    # still be normal once the last rule is set
    m = Model(ModelConfig(MINK3, tau, flavor, trunc))
    pres = m.pres
    rules = list(pres.comm_rules.items()) + list(pres.product_rules.items())
    assert rules
    for pair, rhs in rules:
        for w in rhs:
            assert pres.is_normal_word(w), (pair, w)
    for i, cop in m.hopf.coproduct.items():
        for key in cop.by_legs():
            for w in key:
                assert pres.is_normal_word(w), (pres.label(i), key)
    for i, s in m.hopf.antipode.items():
        for (w,) in s.by_legs():
            assert pres.is_normal_word(w), (pres.label(i), w)


ROWS3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
LORENTZ = Metric.from_signature([-1, 1, 1, 1])


def _q_pres():
    return Model(ModelConfig(MINK3, (1, 0, 0), "qanalog_timelike", None)).pres


def _d2_model():
    return Model(ModelConfig(MINK2, (1, 0), "covariant_hadic", (1, 0)))


@pytest.mark.parametrize("call", [
    lambda: schouten_identity_check(MINK3, (1, 0, 0, 4)),
    lambda: build_r(MINK3, (1, 0, 0, 4)),
    lambda: build_r(MINK3, (1, 0)),
    lambda: change_basis(build_iso(MINK3), [(1, 0, 0, 5)] + ROWS3[1:]),
    lambda: change_basis(build_iso(MINK3), [(1, 0)] + ROWS3[1:]),
    lambda: transform_tau(Metric(MINK3), [(1, 0, 0, 5)] + ROWS3[1:], (1, 0, 0)),
    lambda: basis_change_check(build_iso(MINK3), ROWS3[:2]),
    lambda: basis_change_check(_q_pres(), ROWS3),
    lambda: hopf_covariance_check(_d2_model(), [[1, 0]]),
    lambda: orthogonal_decompose(MINK3, (1, 0, 0, 4)),
    lambda: _d2_model().m(0, 7),
    lambda: _d2_model().p_up(9),
    lambda: build_r(MINK2, ("a", 0)),
    lambda: ModelConfig(MINK2, (None, 1)),
    lambda: ModelConfig(MINK2, 5),
    lambda: Metric([["a", 0], [0, 1]]),
    lambda: Metric(5),
    lambda: LORENTZ.pair((1, 0, 0, 0, 5), (1, 0, 0, 0)),
    lambda: LORENTZ.lower((1, 0, 0, 0, 7)),
    lambda: LORENTZ.pair((1, 0, 0), (1, 0, 0, 0)),
    lambda: LORENTZ.raise_index((1, 0)),
    lambda: ModelConfig(MINK2, (0.1, 1)),
    lambda: Metric([[1.0, 0], [0, -1]]),
    lambda: build_r(MINK2, (0.5, 0)),
], ids=[
    "schouten_long_tau", "build_r_long_tau", "build_r_short_tau",
    "change_basis_long_row", "change_basis_short_row",
    "transform_tau_long_row", "basis_change_check_two_rows",
    "basis_change_check_q_analog", "hopf_covariance_one_row",
    "orthogonal_decompose_long_tau", "model_m_missing_slot",
    "model_p_up_missing_slot", "build_r_text_entry",
    "model_config_none_entry", "model_config_int_tau",
    "metric_text_entry", "metric_int_rows", "pair_long_vector",
    "lower_long_vector", "pair_short_vector", "raise_index_short_vector",
    "model_config_float_tau", "metric_float_entry", "build_r_float_tau",
])
def test_malformed_metric_indexed_input_is_refused(call):
    # wrong lengths and slots, non-numeric or non-iterable entries, floats
    # (whose exact values are binary expansions), and presentations without
    # iso data raise PresentationError instead of being truncated or
    # leaking another error
    with pytest.raises(PresentationError):
        call()


def test_exact_entries_are_still_accepted():
    cfg = ModelConfig(MINK2, ("1/10", Fraction(1, 2)))
    assert cfg.tau == (Fraction(1, 10), Fraction(1, 2))
    assert Metric([[1, 0], [0, "-1/3"]]).g == ((1, 0), (0, Fraction(-1, 3)))


@pytest.mark.parametrize("g,tau,flavor", [
    (MINK3, (1, 0, 0), "qanalog_timelike"),
    (MINK3, (1, 1, 0), "qanalog_lightlike"),
    (LORENTZ, (1, 0, 0, 0), "qanalog_timelike"),
    (LORENTZ, (1, 1, 0, 0), "qanalog_lightlike"),
], ids=["timelike_d3", "lightlike_d3", "timelike_d4", "lightlike_d4"])
def test_q_unit_coefficients_are_the_shared_one(g, tau, flavor):
    # a stored coefficient equal to 1 is a unit factor, so that a product by
    # it returns the other operand without multiplying
    m = Model(ModelConfig(g, tau, flavor, None))
    units = [
        c
        for table in (m.hopf.coproduct, m.hopf.antipode)
        for entry in table.values()
        for c in entry.terms.values()
        if c == 1
    ]
    assert units
    x = gr(Fraction(3, 5), -2)
    assert all(c * x is x and x * c is x for c in units)


def test_hopf_covariance_builds_the_gram_matrix_once(monkeypatch):
    calls = []
    real = km.basis_metric

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(km, "basis_metric", counted)
    rows = [(Fraction(5, 3), Fraction(4, 3)), (Fraction(4, 3), Fraction(5, 3))]
    assert hopf_covariance_check(_d2_model(), rows).ok
    assert len(calls) == 1
