"""Byte-identity guard: exact reprs of two small models, pinned by sha256.

The reprs print every coefficient, so any change to the coefficient ring or
to the rewriting that alters an exact result, or only its printed form,
changes a digest.  Each text is the coproduct and antipode of every
generator, then the normal-ordered product x_i * x_j of every generator pair
i > j.  The q-analog model uses a non-diagonal metric, so its products carry
Laurent terms (h^-1), imaginary units and non-trivial denominators.

The two model cases truncate h only.  The twisted case covers the xi side:
the twisted coproduct Delta_F and antipode S_F of every generator for the T1
twist of the d=4 ``orthog_1_plus`` model at (2, 1), whose coefficients are
two-parameter scalars.

The Schouten cases pin the exact bracket [[w, w]]: ``repr(schouten(w))`` for
the r-matrix on two d=3 and one d=4 random basis image of Minkowski space,
and for one random wedge with h, xi and i coefficients whose bracket is not
a multiple of Omega.

The report cases pin the sha256 of ``Report.to_json()`` for the model checks
that the other tests only assert as ``ok``: the display, covariance,
rescaling, classical-limit, Casimir, h-polynomiality, presentation and
q-analog correspondence checks.  A change that renames, drops, reorders or
adds a check, or changes a header, changes a digest.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from kdeform import model as km
from kdeform import twist
from kdeform.errors import PresentationError
from kdeform.model import Model, ModelConfig, build_iso, change_basis
from kdeform.ncalg import TensorElement
from kdeform.rmatrix import WedgeTensor, build_r, schouten, ybe_classify
from kdeform.scalar import Scalar, gr

MINK2 = [[1, 0], [0, -1]]
MINK3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
SKEW3 = [[3, 1, 0], [1, -2, 0], [0, 0, -5]]
MINK4 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
BOOST2 = [(Fraction(5, 3), Fraction(4, 3)), (Fraction(4, 3), Fraction(5, 3))]

CASES = {
    "covariant_hadic_d2": (
        (MINK2, (1, 0), "covariant_hadic", (2, 0)),
        "5887ea534ae2aabe91b9ebe32b601e83429f42c09fb77e03fe623c7e0832ca51",
    ),
    "qanalog_timelike_d3": (
        (SKEW3, (1, 0, 0), "qanalog_timelike", None),
        "8e6c5835a56840bb56c86b5f34579095340cc49f57594d980e170baf888f265a",
    ),
}


T1_TWISTED_D4 = (
    "18185b1ac229638a3d6b53f44944f4f0489cc4add4eb80ba359800e66f5a32af"
)


SCHOUTEN_DIGESTS = {
    "r_d3_a": (
        "4de8f22e5916131970aba9f86bc764b411da6d2667d0a476af62a8753b7f79a7"
    ),
    "r_d3_b": (
        "84eb486ab7caff162bf5f3a899c10e8f2b280b26866b2529f0549ba00382c6cb"
    ),
    "r_d4": (
        "da97bea0938c199e18d842a0121f30a5b0db583e567cc4b03833346b9ac8f25d"
    ),
    "h_xi_wedge_d4": (
        "354776c3a791eccedd35126d3c8b2787698eaf5a994feb104a0a852211f66931"
    ),
}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def rendered(config):
    m = Model(ModelConfig(*config))
    pres = m.pres
    n = len(pres.generators)
    gens = [TensorElement.gen(pres, i, m.trunc) for i in range(n)]
    objs = (
        [m.hopf.coproduct[i] for i in range(n)]
        + [m.hopf.antipode[i] for i in range(n)]
        + [gens[i] * gens[j] for i in range(n) for j in range(i)]
    )
    return "\n".join(repr(x) for x in objs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reprs_match_pinned_digest(name):
    config, expected = CASES[name]
    assert digest(rendered(config)) == expected


def test_t1_twisted_reprs_match_pinned_digest():
    m = Model(ModelConfig(MINK4, (1, 0, 0, 0), "orthog_1_plus", (2, 1)))
    tw = twist.twist_hopf(m.hopf, twist.build_twist("T1", m), check=False)
    n = len(m.pres.generators)
    objs = [tw.coproduct[i] for i in range(n)] + [tw.antipode[i] for i in range(n)]
    text = "\n".join(repr(x) for x in objs)
    assert "xi" in text
    assert digest(text) == T1_TWISTED_D4


def test_qanalog_text_covers_laurent_terms_and_fractions():
    text = rendered(CASES["qanalog_timelike_d3"][0])
    assert "h^-1" in text and "/" in text and "*i" in text


def schouten_inputs():
    """The rank-2 wedges whose brackets are pinned, from one seeded RNG."""
    rng = random.Random(1404)
    out = {}
    for name, base in (("r_d3_a", MINK3), ("r_d3_b", MINK3), ("r_d4", MINK4)):
        dim = len(base)
        while True:
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(dim)] for _ in range(dim)]
            try:
                pres = change_basis(build_iso(base), rows)
                break
            except PresentationError:
                continue
        tau = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
        tau[0] = tau[0] or Fraction(1)
        out[name] = build_r(pres.iso_data["metric"], tau, pres)
    pres = build_iso(MINK4)
    n = len(pres.generators)
    out["h_xi_wedge_d4"] = WedgeTensor(pres, 2, {
        tuple(rng.sample(range(n), 2)): Scalar({
            (rng.randint(0, 2), rng.randint(0, 2)):
                gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                   rng.randint(-2, 2))
            for _ in range(2)
        })
        for _ in range(6)
    })
    return out


def test_schouten_reprs_match_pinned_digest():
    for name, w in schouten_inputs().items():
        assert digest(repr(schouten(w))) == SCHOUTEN_DIGESTS[name], name


def test_schouten_h_xi_case_is_not_a_multiple_of_omega():
    w = schouten_inputs()["h_xi_wedge_d4"]
    text = repr(schouten(w))
    assert "*h" in text and "*xi" in text and "*i" in text
    assert ybe_classify(w)["type"] == "other"


def model(g, tau, flavor, trunc):
    return Model(ModelConfig(g, tau, flavor, trunc))


REPORT_CASES = {
    "basis_change_d3": lambda: km.basis_change_check(
        build_iso(MINK3), [(2, 1, 0), (0, 1, 1), (1, 0, 1)]),
    "decomposition_display_d3": lambda: km.decomposition_display_check(
        model(MINK3, (1, 0, 0), "orthog_1_plus", (2, 0))),
    "nullplane_display_d3": lambda: km.nullplane_display_check(
        model(MINK3, (1, 1, 0), "null_plane", (2, 0))),
    "q_display_timelike_skew3": lambda: km.q_display_check(
        model(SKEW3, (1, 0, 0), "qanalog_timelike", None)),
    "q_display_lightlike_d3": lambda: km.q_display_check(
        model(MINK3, (1, 1, 0), "qanalog_lightlike", None)),
    "q_hadic_correspondence_d2": lambda: km.q_hadic_correspondence_check(
        model(MINK2, (1, 0), "qanalog_timelike", None), trunc=(2, 0)),
    "rescaling_covariant_d2": lambda: km.rescaling_isomorphism_check(
        model(MINK2, (1, 0), "covariant_hadic", (2, 0))),
    "rescaling_null_plane_d3": lambda: km.rescaling_isomorphism_check(
        model(MINK3, (1, 1, 0), "null_plane", (2, 0))),
    "rescaling_q_timelike_d3": lambda: km.rescaling_isomorphism_check(
        model(MINK3, (1, 0, 0), "qanalog_timelike", None)),
    "hopf_covariance_d2_boost": lambda: km.hopf_covariance_check(
        model(MINK2, (1, 0), "covariant_hadic", (2, 0)), BOOST2),
    "classical_hopf_null_plane_d3": lambda: km.classical_hopf_check(
        model(MINK3, (1, 1, 0), "null_plane", (2, 0))),
    "casimir_orthog_d3": lambda: km.casimir_check(
        model(MINK3, (2, 1, 0), "orthog_1_plus", (2, 0))),
    "h_polynomial_lightlike_d3": lambda: km.h_polynomial_check(
        model(MINK3, (1, 1, 0), "qanalog_lightlike", None)),
    "presentation_q_timelike_skew3": lambda: km.presentation_check(
        model(SKEW3, (1, 0, 0), "qanalog_timelike", None).pres),
}

REPORT_DIGESTS = {
    "basis_change_d3":
        "5e524dd38d387d10af05a35b9e78875ee0c5192163da1f83018fd301ee886839",
    "casimir_orthog_d3":
        "f75eb862c141bc202ea122b0cceadaa2eabee5e82d89aad34ff4adbdff4777f6",
    "classical_hopf_null_plane_d3":
        "b05edc01ef4510d157a7301a48d0a8465d0a954c6f2c69306f347a6bc067b80b",
    "decomposition_display_d3":
        "f6dcb494d7f66941178182246487e64efddc080f030e656ed3d85e1c1a8265e3",
    "h_polynomial_lightlike_d3":
        "3042b125fb8873161da2aefbb5b689a95f75048539dde4bdcb80cb117909b929",
    "hopf_covariance_d2_boost":
        "9f5822616840d30d738eb9b321d6605d0c2c63f3da7951c8ef4eb40d6499b4cd",
    "nullplane_display_d3":
        "b4cc9379e032817c1e65cc7803fac8e990d372ab41014c3328774a64051df269",
    "presentation_q_timelike_skew3":
        "efe936f8b7c1504b71523fc6137dcd93e9730bb8b6a3ae4c93b5f74709065d95",
    "q_display_lightlike_d3":
        "aeda06dc0f8be3822f54f84187b8138eb9c807768939faf901ea1d79fd3234c9",
    "q_display_timelike_skew3":
        "ebb7793b0ccb210220f4f9bf4262cc5f6afe339ed570f57bf79180a569c9ae23",
    "q_hadic_correspondence_d2":
        "eb9eaa60c932619c902e0afa9bbe1f68b697bb648f17612e8a02603445fb3924",
    "rescaling_covariant_d2":
        "f253249aa83e6bb980217b8e336be6ba7d959fcfd421dee36a4bc6d5eeb8867b",
    "rescaling_null_plane_d3":
        "f8b59fc725a4bae1cb4449ff30e0e1e6ba84d586becfeda0075aaa635faa092f",
    "rescaling_q_timelike_d3":
        "b8184bba35be01bd1ba20b238b2ff073d69711689eb926025360065ef6b80821",
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_json_matches_pinned_digest(name):
    rep = REPORT_CASES[name]()
    assert rep.ok
    assert digest(rep.to_json()) == REPORT_DIGESTS[name]
