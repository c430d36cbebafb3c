"""Tests for the twist catalog: the cocycle matrix, factor orders, twisting.

Every row of the catalog is checked on d=4 Minkowski at truncation (2, 1),
over the undeformed (primitive) structure and over the model's own deformed
structure.  Rows that are not 2-cocycles are pinned as failing; see ROADMAP
open item 3 for the deviations they record.
"""

import pytest

from kdeform import twist
from kdeform.errors import PresentationError
from kdeform.hopf import check_rmatrix_intertwiner, verify_axioms
from kdeform.model import Model, ModelConfig
from kdeform.ncalg import Presentation
from kdeform.scalar import Scalar

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


@pytest.mark.parametrize("label", ["LC", "S1", "S2", "S3"])
def test_universal_r_intertwines_the_twisted_primitive_coproduct(models, label):
    # R = F_21 F^-1 over the twisted cocommutative structure:
    # R Delta_F(g) = Delta_F(g)_21 R, triangular and invertible
    model = models[MATRIX[label][0]]
    f = twist.build_twist(label, model)
    primitive = twist.primitive_hopf(model.pres, model.trunc)
    rep = check_rmatrix_intertwiner(
        twist.twist_hopf(primitive, f), twist.universal_r(f)
    )
    assert [c.name for c in rep.checks if not c.passed] == []


def test_primitive_hopf_needs_a_lie_presentation():
    # [b, a] = 1: the primitive coproduct of the lhs is 2 (1 (x) 1)
    weyl = Presentation("weyl")
    a, b = weyl.add_generator("a"), weyl.add_generator("b")
    weyl.set_commutator(b, a, {(): Scalar.one()})
    grouplike = Presentation("grouplike")
    p, q = grouplike.add_generator("Pi"), grouplike.add_generator("PiInv")
    grouplike.set_product(p, q, {(): Scalar.one()})
    for pres in (weyl, grouplike):
        with pytest.raises(PresentationError, match="not a Lie algebra"):
            twist.primitive_hopf(pres, TRUNC)
