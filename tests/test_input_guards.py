"""Bad input to the twist catalog and its checks, the model checks, the rule
and tensor constructors, ``HopfData`` and the wedge calculus raises
``PresentationError``, a malformed scalar key, degree or truncation
``ScalarDomainError`` and a wedge at two truncations ``TruncationMismatch``:
one table, one call per guard.

Each call builds its own small input, so no row depends on another."""

import re

import pytest

from kdeform import model as km
from kdeform import twist
from kdeform.errors import (
    PresentationError,
    ScalarDomainError,
    TruncationMismatch,
)
from kdeform.hopf import HopfData
from kdeform.model import Model, ModelConfig
from kdeform.ncalg import Presentation, TensorElement
from kdeform.rmatrix import WedgeTensor, ad_action
from kdeform.scalar import Scalar

MINK2 = [[1, 0], [0, -1]]
MINK3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
MINK4 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def model(g, tau, flavor, trunc=(1, 0)):
    return Model(ModelConfig(g, tau, flavor, trunc))


def covariant():
    return model(MINK2, (1, 0), "covariant_hadic")


def orthog():
    return model(MINK2, (1, 0), "orthog_1_plus")


def t1_model():
    return model(MINK4, (1, 0, 0, 0), "orthog_1_plus")


def pair():
    pres = Presentation("pair")
    return pres, pres.add_generator("a"), pres.add_generator("b")


def hopf_missing_antipode():
    pres, a, _ = pair()
    full = twist.primitive_hopf(pres, None)
    antipode = dict(full.antipode)
    del antipode[a]
    return HopfData(pres, full.coproduct, antipode, full.counit)


def leg_map(name, leg):
    """The leg map ``name`` of the primitive structure on ``pair`` at
    ``leg`` of the rank-2 coproduct of a generator."""
    pres, a, _ = pair()
    hopf = twist.primitive_hopf(pres, None)
    cop = hopf.cop(TensorElement.gen(pres, a))
    return getattr(hopf, name)(cop, leg)


def rank_two_map(name):
    """The element map ``name`` of the primitive structure on ``pair``,
    applied to the rank-2 unit."""
    pres = pair()[0]
    return getattr(twist.primitive_hopf(pres, None), name)(
        TensorElement.one(pres, 2)
    )


def hopf_with(table, key, make):
    """The primitive structure on ``pair`` with the entry ``key`` of
    ``table`` set to ``make(pres)``."""
    pres = pair()[0]
    full = twist.primitive_hopf(pres, None)
    tables = {name: dict(getattr(full, name))
              for name in ("coproduct", "antipode", "counit")}
    tables[table][key] = make(pres)
    return HopfData(pres, **tables)


def foreign_legs():
    pres_a, pres_b = pair()[0], pair()[0]
    return TensorElement.from_legs(
        TensorElement.one(pres_a, 1), TensorElement.one(pres_b, 1)
    )


def wedge_pres():
    return km.build_iso(MINK3)


def wedge_sum_of_ranks_2_and_3():
    pres = wedge_pres()
    return WedgeTensor.zero(pres, 2) + WedgeTensor.zero(pres, 3)


def ad_on_zero_wedge(x, foreign=False):
    """``ad_action`` of generator ``x`` on a zero wedge, over the wedge's own
    d=3 presentation or, with ``foreign``, over another one."""
    wedge = WedgeTensor.zero(wedge_pres())
    return ad_action(wedge_pres() if foreign else wedge.pres, x, wedge)


def wedge_at_two_truncations():
    return WedgeTensor(wedge_pres(), 2, {
        (0, 1): Scalar.h(1, (2, 0)), (0, 2): Scalar.h(1, (3, 0)),
    })


def qanalog():
    return model(MINK2, (1, 0), "qanalog_timelike", None)


def d3_counit_leg():
    """The d=2 covariant counit leg map on a rank-2 tensor over iso(3)."""
    p = model(MINK3, (1, 0, 0), "covariant_hadic").p(1)
    return covariant().hopf.apply_counit_leg(TensorElement.from_legs(p, p), 0)


def guard(name, message, call, error=PresentationError):
    """A table row: ``call`` raises ``error`` with ``message`` in its
    text."""
    return pytest.param(error, message, call, id=name)


GUARDS = [
    # build_twist
    guard("twist_unknown_label", "unknown twist label",
          lambda: twist.build_twist("T2", orthog())),
    guard("twist_wrong_flavor", "needs a model of flavor null_plane",
          lambda: twist.build_twist("LC", covariant())),
    guard("twist_l1_at_d2", "L1 needs a transverse direction",
          lambda: twist.build_twist("L1", model(MINK2, (1, 1), "null_plane"))),
    guard("twist_l2_at_d3", "L2 needs two transverse directions",
          lambda: twist.build_twist(
              "L2", model(MINK3, (1, 1, 0), "null_plane"))),
    guard("twist_s_at_d3", "S rows are cataloged in dimension 4",
          lambda: twist.build_twist(
              "S1", model(MINK3, (0, 1, 0), "covariant_hadic"))),
    guard("twist_s_tau_off_axis_1", "S rows use tau along axis 1",
          lambda: twist.build_twist(
              "S2", model(MINK4, (0, 0, 1, 0), "covariant_hadic"))),
    guard("twist_t1_at_d3", "T rows are cataloged in dimension 4",
          lambda: twist.build_twist(
              "T1", model(MINK3, (1, 0, 0), "orthog_1_plus"))),
    guard("factor_order_not_lc", "for the LC twist",
          lambda: twist.factor_order_check(twist.build_twist(
              "L1", model(MINK3, (1, 1, 0), "null_plane", (1, 1))))),
    # cocycle check and twisting
    guard("cocycle_check_foreign_structure",
          "twist T1 needs a Hopf structure over its own presentation",
          lambda: twist.cocycle_check(twist.build_twist("T1", t1_model()),
                                      t1_model().hopf)),
    guard("twist_hopf_foreign_structure",
          "twist T1 needs a Hopf structure over its own presentation",
          lambda: twist.twist_hopf(t1_model().hopf,
                                   twist.build_twist("T1", t1_model()),
                                   check=False)),
    # Model and its checks
    guard("model_without_config", "needs a ModelConfig", lambda: Model(None)),
    guard("model_p_missing_slot", "no momentum generator in slot 7",
          lambda: covariant().p(7)),
    guard("decomposition_display_wrong_flavor", "needs orthog_1_plus",
          lambda: km.decomposition_display_check(covariant())),
    guard("nullplane_display_wrong_flavor", "needs null_plane",
          lambda: km.nullplane_display_check(orthog())),
    guard("q_display_wrong_flavor", "needs a q-analog flavor",
          lambda: km.q_display_check(covariant())),
    guard("rescaling_lambda_zero", "lambda != 0",
          lambda: km.rescaling_isomorphism_check(covariant(), lam=0)),
    guard("rescaling_lambda_float", "need exact rational entries",
          lambda: km.rescaling_isomorphism_check(covariant(), lam=0.1)),
    guard("q_hadic_correspondence_wrong_flavor", "needs a q-analog model",
          lambda: km.q_hadic_correspondence_check(orthog())),
    guard("hopf_covariance_wrong_flavor", "needs covariant_hadic",
          lambda: km.hopf_covariance_check(orthog(), [[1, 0], [0, 1]])),
    guard("h_polynomial_wrong_flavor", "needs a q-analog flavor",
          lambda: km.h_polynomial_check(covariant())),
    # rules and tensors
    guard("rule_coefficient_not_scalar", "must be Scalar",
          lambda: pair()[0].set_commutator(1, 0, {(0,): 1})),
    guard("rule_coefficient_truncated", "must be exact",
          lambda: pair()[0].set_commutator(
              1, 0, {(0,): Scalar.h(1, (1, 0))})),
    guard("gen_index_unknown_label", "no generator named",
          lambda: pair()[0].gen_index("c")),
    guard("commutator_with_itself", "with itself",
          lambda: pair()[0].set_commutator(0, 0, {(1,): Scalar.one()})),
    guard("commutator_on_phantom_generator", "no generator 7 in pair",
          lambda: pair()[0].set_commutator(1, 7, {(0,): Scalar.one()})),
    guard("product_on_phantom_generator", "no generator 5 in pair",
          lambda: pair()[0].set_product(5, 0, {(): Scalar.one()})),
    guard("duplicate_generator_label", "duplicate generator label 'a'",
          lambda: pair()[0].add_generator("a")),
    guard("gen_negative_index", "no generator -1 in pair",
          lambda: TensorElement.gen(pair()[0], -1)),
    guard("gen_past_last_generator", "no generator 5 in pair",
          lambda: TensorElement.gen(pair()[0], 5)),
    guard("gen_float_index", "no generator 1.0 in pair",
          lambda: TensorElement.gen(pair()[0], 1.0)),
    guard("rule_rhs_letter_past_last_generator",
          "letter 7 of rule rhs ((7,),) names no generator of pair",
          lambda: pair()[0].set_commutator(1, 0, {(7,): Scalar.one()})),
    guard("rule_rhs_negative_letter",
          "letter -1 of rule rhs ((-1,),) names no generator of pair",
          lambda: pair()[0].set_commutator(1, 0, {(-1,): Scalar.one()})),
    guard("rule_rhs_string_word",
          "letter 'a' of rule rhs (('a',),) names no generator of pair",
          lambda: pair()[0].set_product(1, 0, {"a": Scalar.one()})),
    guard("tensor_key_letter_past_last_generator",
          "letter 9 of tensor key ((9,),) names no generator of pair",
          lambda: TensorElement(pair()[0], 1, {((9,),): Scalar.one()})),
    guard("from_legs_without_legs", "needs at least one leg",
          TensorElement.from_legs),
    guard("scalar_key_not_a_pair", "scalar key (0,) is not a pair",
          lambda: Scalar({(0,): 1}), ScalarDomainError),
    guard("from_legs_across_presentations", "different presentations",
          foreign_legs),
    guard("permute_legs_bad_permutation", "bad leg permutation",
          lambda: TensorElement.one(pair()[0], 2).permute_legs((0, 0))),
    guard("swap_at_rank_3", "swap is for rank 2",
          lambda: TensorElement.one(pair()[0], 3).swap()),
    guard("hopf_missing_table_entry", "antipode missing",
          hopf_missing_antipode),
    guard("hopf_entry_past_last_generator", "no generator 5 in pair",
          lambda: hopf_with("counit", 5, lambda pres: Scalar.zero())),
    guard("hopf_rank_1_coproduct",
          "coproduct of a must be a rank-2 tensor over pair",
          lambda: hopf_with("coproduct", 0,
                            lambda pres: TensorElement.gen(pres, 0))),
    guard("hopf_rank_2_antipode",
          "antipode of a must be a rank-1 tensor over pair",
          lambda: hopf_with("antipode", 0,
                            lambda pres: TensorElement.one(pres, 2))),
    guard("hopf_tensor_as_counit", "counit of a must be a Scalar",
          lambda: hopf_with("counit", 0,
                            lambda pres: TensorElement.one(pres, 1))),
    guard("cop_leg_negative", "no leg -1 in a rank-2 tensor",
          lambda: leg_map("apply_cop_leg", -1)),
    guard("cop_leg_past_rank", "no leg 2 in a rank-2 tensor",
          lambda: leg_map("apply_cop_leg", 2)),
    guard("antipode_leg_negative", "no leg -1 in a rank-2 tensor",
          lambda: leg_map("apply_antipode_leg", -1)),
    guard("counit_leg_past_rank", "no leg 2 in a rank-2 tensor",
          lambda: leg_map("apply_counit_leg", 2)),
    guard("cop_of_rank_2", "needs a rank-1 element, not rank 2",
          lambda: rank_two_map("cop")),
    guard("antipode_of_rank_2", "needs a rank-1 element, not rank 2",
          lambda: rank_two_map("antipode_of")),
    guard("counit_of_rank_2", "needs a rank-1 element, not rank 2",
          lambda: rank_two_map("counit_of")),
    guard("cop_of_scalar", "needs a rank-1 element, not Scalar",
          lambda: covariant().hopf.cop(Scalar.h(1, (1, 0)))),
    guard("antipode_of_scalar", "needs a rank-1 element, not Scalar",
          lambda: covariant().hopf.antipode_of(Scalar.h(1, (1, 0)))),
    guard("counit_of_scalar", "needs a rank-1 element, not Scalar",
          lambda: covariant().hopf.counit_of(Scalar.h(1, (1, 0)))),
    guard("cop_of_foreign_element",
          "needs a tensor over its own presentation U_q(iso(2)) tau^2=1",
          lambda: qanalog().hopf.cop(covariant().p(1))),
    guard("counit_leg_of_foreign_tensor",
          "needs a tensor over its own presentation iso(2)", d3_counit_leg),
    guard("classical_limit_of_foreign_element",
          "needs a tensor over its own presentation U_q(iso(2)) tau^2=1",
          lambda: qanalog().classical_limit(covariant().p(1))),
    guard("classical_limit_of_scalar",
          "needs a tensor over its own presentation iso(2)",
          lambda: covariant().classical_limit(Scalar.h(1, (1, 0)))),
    guard("pi_power_float", "pi_power needs an int k, not 1.5",
          lambda: covariant().pi_power(1.5)),
    guard("pi_power_bool", "pi_power needs an int k, not True",
          lambda: covariant().pi_power(True)),
    # shapes of the ring API
    guard("scalar_h_float_degree", "degree 0.5 is not an int",
          lambda: Scalar.h(0.5), ScalarDomainError),
    guard("tensor_shift_float_degree", "degree 0.5 is not an int",
          lambda: TensorElement.one(pair()[0], 1).shift(0.5),
          ScalarDomainError),
    guard("scalar_one_short_truncation",
          "truncation (1,) is not None or a pair of non-negative ints",
          lambda: Scalar.one((1,)), ScalarDomainError),
    guard("tensor_one_short_truncation",
          "truncation (1,) is not None or a pair of non-negative ints",
          lambda: TensorElement.one(pair()[0], 1, (1,)), ScalarDomainError),
    guard("retrunc_short_truncation",
          "truncation (1,) is not None or a pair of non-negative ints",
          lambda: Scalar.h(1).retrunc((1,)), ScalarDomainError),
    guard("scalar_negative_truncation",
          "truncation (-1, 0) is not None or a pair of non-negative ints",
          lambda: Scalar.h(1, (-1, 0)), ScalarDomainError),
    guard("tensor_negative_rank", "tensor rank -1 is not a non-negative int",
          lambda: TensorElement.one(pair()[0], -1)),
    # wedges
    guard("wedge_bad_coefficient", "bad wedge coefficient",
          lambda: WedgeTensor.from_labels(
              wedge_pres(), 2, [("P_0", "M_01", "one")])),
    guard("wedge_sum_of_ranks_2_and_3", "wedge mismatch",
          wedge_sum_of_ranks_2_and_3),
    guard("wedge_at_two_truncations",
          "cannot combine truncations (2, 0) and (3, 0)",
          wedge_at_two_truncations, TruncationMismatch),
    guard("ad_action_past_last_generator", "no generator 99 in iso(3)",
          lambda: ad_on_zero_wedge(99)),
    guard("ad_action_negative_index", "no generator -1 in iso(3)",
          lambda: ad_on_zero_wedge(-1)),
    guard("ad_action_foreign_wedge",
          "ad_action needs a wedge over its own presentation iso(3)",
          lambda: ad_on_zero_wedge(0, foreign=True)),
]


@pytest.mark.parametrize("error,message,call", GUARDS)
def test_bad_input_is_refused(error, message, call):
    with pytest.raises(error, match=re.escape(message)):
        call()
