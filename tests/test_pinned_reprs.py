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
"""

import hashlib

import pytest

from kdeform import twist
from kdeform.model import Model, ModelConfig
from kdeform.ncalg import AlgElement

MINK2 = [[1, 0], [0, -1]]
SKEW3 = [[3, 1, 0], [1, -2, 0], [0, 0, -5]]
MINK4 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

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


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def rendered(config):
    m = Model(ModelConfig(*config))
    pres = m.pres
    n = len(pres.generators)
    gens = [AlgElement.gen(pres, i, m.trunc) for i in range(n)]
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
