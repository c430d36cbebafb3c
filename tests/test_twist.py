"""Tests for the twist catalog: the cocycle matrix, factor orders, twisting.

Every row of the catalog is checked on d=4 Minkowski at truncation (2, 1),
over the undeformed (primitive) structure and over the model's own deformed
structure.  Rows that are not 2-cocycles are pinned as failing; see ROADMAP
open item 2 for the deviations they record.
"""

import pytest

from kdeform import twist
from kdeform.errors import PresentationError
from kdeform.hopf import verify_axioms
from kdeform.model import Model, ModelConfig

MINK4 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
TRUNC = (2, 1)

# flavor and tau of the model each row extends
FRAMES = {
    "null_plane": (1, 1, 0, 0),
    "covariant_hadic": (0, 1, 0, 0),
    "orthog_1_plus": (1, 0, 0, 0),
}

# row: (flavor, two_cocycle over primitive, two_cocycle over deformed)
MATRIX = {
    "LC": ("null_plane", True, False),
    "L1": ("null_plane", False, True),
    "L2": ("null_plane", False, True),
    "S1": ("covariant_hadic", True, False),
    "S2": ("covariant_hadic", True, False),
    "S3": ("covariant_hadic", True, False),
    "T1": ("orthog_1_plus", False, True),
    "T3": ("orthog_1_plus", False, False),
    "T4": ("orthog_1_plus", False, False),
}


@pytest.fixture(scope="module")
def models():
    return {
        flavor: Model(ModelConfig(MINK4, tau, flavor, TRUNC))
        for flavor, tau in FRAMES.items()
    }


def _flags(rep):
    return {c.name: c.passed for c in rep.checks}


def test_matrix_covers_the_catalog():
    assert sorted(MATRIX) == sorted(twist.TWIST_LABELS)


@pytest.mark.parametrize("label", sorted(MATRIX))
def test_cocycle_matrix(models, label):
    flavor, over_primitive, over_deformed = MATRIX[label]
    model = models[flavor]
    f = twist.build_twist(label, model)
    primitive = twist.primitive_hopf(model.pres, model.trunc)
    for hopf, two_cocycle in (
        (primitive, over_primitive),
        (model.hopf, over_deformed),
    ):
        assert _flags(twist.cocycle_check(f, hopf)) == {
            "invertible": True,
            "two_cocycle": two_cocycle,
            "counit_left": True,
            "counit_right": True,
        }


def test_extended_jordanian_factor_orders_agree(models):
    f = twist.build_twist("LC", models["null_plane"])
    rep = twist.factor_order_check(f)
    assert rep.ok, rep.summary_lines()


def test_twist_hopf_refuses_a_non_cocycle(models):
    model = models["orthog_1_plus"]
    f = twist.build_twist("T3", model)
    with pytest.raises(PresentationError):
        twist.twist_hopf(model.hopf, f)


def test_twisted_t1_is_a_hopf_algebra(models):
    model = models["orthog_1_plus"]
    twisted = twist.twist_hopf(model.hopf, twist.build_twist("T1", model))
    failed = [c for c in verify_axioms(twisted, degree2=False) if not c.passed]
    assert failed == []
