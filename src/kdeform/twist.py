"""Twist two-tensors: the catalog, cocycle checks, and twisted structures.

A twist is stored as an ordered list of exponents; the element itself is the
product of their exponentials, expanded at the model's truncation.  The
catalog covers the extended Jordanian twist of the null-plane deformation
(label LC, two equal factorizations) and the Abelian one- and two-parameter
extensions labelled L1, L2 (light-like), S1, S2, S3 (space-like), T1, T3, T4
(time-like).  T3 and T4 mix the transverse momenta and rotations with
complex coefficients and carry no star structure.

Each row is a table entry of printed cells, one per exponent, that the
display reader of :mod:`kdeform.model` reads in the model's basis.  Wedge
exponents A ^ B are expanded as A (x) B - B (x) A and every catalog row keeps
the order printed in its own twist cell: M ^ ln Pi for L1 and L2, ln Pi ^ M_3
for T1, plain tensors for the S rows.  These orders are taken as printed; no
twisted coproduct is compared with a printed display.  Which rows are
2-cocycles over the primitive and over the deformed structure is established
by ``cocycle_check``, not assumed here.

Twisted coproducts.  Delta_F(g) = F Delta(g) F^{-1} is computed as
exp(ad X_1) ... exp(ad X_k) Delta(g), not as the triple product: each X has
far fewer terms than F.  e^X t e^{-X} = exp(ad X)(t) needs only the
associativity that confluence of the rules gives, and the series stops
because each X has positive total bigrade, so each ad X raises the degree
until the truncation cuts the term.

The cocycle check goes through the exponents as well: (Delta (x) id)F is the
product of the exp((Delta (x) id)X_k), so the coproduct legs see only the
short words of each X_k, never the long leg words of F.  F and F^{-1} are
still built whole for the (F (x) 1) and (1 (x) F) factors of that check, its
``invertible`` entry, the antipode gauge of ``twist_hopf`` and
``universal_r``.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import KdeformError, PresentationError
from .hopf import HopfData, otimes
from .model import _DisplayReader
from .ncalg import TensorElement
from .report import Report
from .scalar import Scalar
from .series import exp_nilpotent


def primitive_hopf(pres, trunc):
    """The undeformed structure: primitive coproducts, S = -id, eps = 0.
    A primitive coproduct respects only linear brackets, so a presentation
    that is not a Lie algebra raises."""
    pres.structure_constants()
    cop, antip, counit = {}, {}, {}
    for i in range(len(pres.generators)):
        g = TensorElement.gen(pres, i, trunc)
        one = TensorElement.one(pres, 1, trunc)
        cop[i] = otimes(g, one) + otimes(one, g)
        antip[i] = -g
        counit[i] = Scalar.zero(trunc)
    return HopfData(pres, cop, antip, counit)


class TwistElement:
    """Ordered exponential product F = exp(X_1) exp(X_2) ... in U (x) U."""

    def __init__(self, model, factors, label):
        self.model = model
        self.pres = model.pres
        self.trunc = model.trunc
        self.factors = list(factors)
        self.label = label
        one = TensorElement.one(self.pres, 2, self.trunc)
        self.tensor = reduce(mul, map(exp_nilpotent, self.factors), one)
        self.inverse = reduce(
            mul, (exp_nilpotent(-x) for x in reversed(self.factors)), one
        )

    def swapped(self):
        """F_21."""
        return self.tensor.swap()

    def conjugate(self, t):
        """F t F^{-1} for a rank-2 tensor t, as exp(ad X_1) ... exp(ad X_k) t.
        F^{-1} = exp(-X_k) ... exp(-X_1), so the last factor conjugates
        innermost: the factors are applied in reverse order."""
        for x in reversed(self.factors):
            term, n = t, 0
            while term:
                n += 1
                term = (x * term - term * x) * Fraction(1, n)
                t = t + term
        return t


_S_FRAME = [
    (lambda m: m.metric.dim != 4, "S rows are cataloged in dimension 4"),
    (lambda m: any(m.tau[mu] for mu in (0, 2, 3)) or not m.tau[1],
     "S rows use tau along axis 1 (the space-like frame)"),
]
_T_FRAME = [(lambda m: m.metric.dim != 4, "T rows are cataloged in dimension 4")]

# label: (flavor, guards, exponents in factor order); a guard (test, message)
# refuses a model for which test(model) holds.  M_12 is M_3, the rotation
# about the third axis; M_23 rotates about axis 1 and M_03 boosts along axis
# 3.  T3 and T4 take the + branch P_1 + i P_2, M_1 + i M_2 = M_23 - i M_13.
_ROWS = {
    # Jordanian, then its extension
    "LC": ("null_plane", [],
           ["-i M_+- (x) ln(Pi)", "-i h sum_a(M_+a (x) P^a Pi_inv)"]),
    "L1": ("null_plane",
           [(lambda m: m.metric.dim < 3, "L1 needs a transverse direction")],
           ["i xi (M_+1 ^ klog)"]),
    "L2": ("null_plane",
           [(lambda m: m.metric.dim < 4, "L2 needs two transverse directions")],
           ["i xi (M_12 ^ klog)"]),
    "S1": ("covariant_hadic", _S_FRAME, ["i xi (P_1 (x) M_23)"]),
    "S2": ("covariant_hadic", _S_FRAME, ["i xi (P_1 (x) (M_23 + M_03))"]),
    "S3": ("covariant_hadic", _S_FRAME, ["i xi (P_1 (x) M_03)"]),
    "T1": ("orthog_1_plus", _T_FRAME, ["i xi (klog ^ M_12)"]),
    "T3": ("orthog_1_plus", _T_FRAME,
           ["xi (P_1 + i P_2) sqrt(Pi) (x) (M_23 - i M_13)",
            "i/2 ln(Pi) (x) M_12"]),
    "T4": ("orthog_1_plus", _T_FRAME,
           ["xi (M_23 - i M_13) inv(1 + xi (P_1 + i P_2)) Pi_inv (x) P_3",
            "ln(1 + xi (P_1 + i P_2)) (x) M_12", "i ln(Pi) (x) M_12"]),
}
TWIST_LABELS = tuple(_ROWS)
# the other displayed order of LC: extension, then Jordanian
_LC_ALT = ["-i h sum_a(M_+a (x) P^a)", "-i M_+- (x) ln(Pi)"]


def build_twist(label, model):
    """Catalog twist by row label over a compatible model."""
    if label not in _ROWS:
        raise PresentationError("unknown twist label %r" % (label,))
    flavor, guards, cells = _ROWS[label]
    if model.flavor != flavor:
        raise PresentationError(
            "twist %s needs a model of flavor %s, got %s"
            % (label, flavor, model.flavor)
        )
    for test, message in guards:
        if test(model):
            raise PresentationError(message)
    read = _DisplayReader(model)
    return TwistElement(model, [read(c, {}) for c in cells], label=label)


# --- verification --------------------------------------------------------------


def _require_own_structure(twist, hopf):
    if hopf.pres is not twist.pres:
        raise PresentationError(
            "twist %s needs a Hopf structure over its own presentation"
            % twist.label
        )


def _cop_leg_of_twist(twist, hopf, leg):
    """(Delta (x) id)F for leg 0, (id (x) Delta)F for leg 1, as the product
    of the exp((Delta (x) id)X_k) in F's factor order; the rank-3 unit for
    F = 1."""
    factors = [exp_nilpotent(hopf.apply_cop_leg(x, leg))
               for x in twist.factors]
    if not factors:
        return TensorElement.one(twist.pres, 3, twist.trunc)
    return reduce(mul, factors)


def _cocycle_residual(twist, hopf):
    """(F(x)1)(Delta(x)id)F - (1(x)F)(id(x)Delta)F."""
    t = twist.tensor
    # the exact unit, so each leg product by it returns the coefficient
    unit = TensorElement.one(twist.pres, 1)
    lhs = TensorElement.from_legs(t, unit) * _cop_leg_of_twist(twist, hopf, 0)
    rhs = TensorElement.from_legs(unit, t) * _cop_leg_of_twist(twist, hopf, 1)
    return lhs - rhs


def cocycle_check(twist, hopf):
    """(F(x)1)(Delta(x)id)F = (1(x)F)(id(x)Delta)F plus counit normalization.

    For F = exp(X_1) ... exp(X_k) the coproduct legs of F are computed
    through its exponents, never on F's own leg words:

        (Delta (x) id)F = exp((Delta (x) id)X_1) ... exp((Delta (x) id)X_k),

    and (id (x) Delta)F likewise.  The identity needs Delta (x) id to be an
    algebra map, which holds when Delta respects the rewrite rules (the
    ``cop_respects_*`` entries of ``hopf_axiom_check`` verify it).  It holds
    at every truncation: a truncation is the ring quotient by the ideal
    (h^(N_h+1), xi^(N_xi+1)), and Delta (x) id preserves bigrade (it never
    lowers the h- or xi-degree of a coefficient), so it maps that ideal into
    itself and commutes with the truncated exponential, a finite sum of
    products.
    """
    _require_own_structure(twist, hopf)
    rep = Report(
        "two-cocycle condition",
        {"twist": twist.label, "trunc": str(twist.trunc)},
    )
    t = twist.tensor
    one2 = TensorElement.one(twist.pres, 2, twist.trunc)
    one1 = TensorElement.one(twist.pres, 1, twist.trunc)
    rep.zero("invertible", t * twist.inverse - one2)
    rep.zero("two_cocycle", _cocycle_residual(twist, hopf))
    rep.zero("counit_left", hopf.apply_counit_leg(t, 0) - one1)
    rep.zero("counit_right", hopf.apply_counit_leg(t, 1) - one1)
    return rep


def twist_hopf(hopf, twist, check=True):
    """Twisted Hopf structure: Delta_F = F Delta F^{-1}, S_F = u S u^{-1}
    with u = m(id (x) S)F.  Refuses when the cocycle condition fails."""
    _require_own_structure(twist, hopf)
    if check:
        rep = cocycle_check(twist, hopf)
        bad = [c.name for c in rep.checks if not c.passed]
        if bad:
            raise PresentationError(
                "twist %s is not a 2-cocycle over this structure: %s"
                % (twist.label, ", ".join(bad))
            )
    pres = twist.pres
    trunc = twist.trunc
    u = hopf.apply_antipode_leg(twist.tensor, 1).merge_legs()
    u_inv = hopf.apply_antipode_leg(twist.inverse, 0).merge_legs()
    one = TensorElement.one(pres, 1, trunc)
    if not (u * u_inv - one).is_zero() or not (u_inv * u - one).is_zero():
        raise KdeformError("twist gauge element u is not invertible")
    cop, antip, counit = {}, {}, {}
    for i in range(len(pres.generators)):
        g = TensorElement.gen(pres, i, trunc)
        cop[i] = twist.conjugate(hopf.cop(g))
        antip[i] = u * hopf.antipode_of(g) * u_inv
        counit[i] = hopf.counit[i]
    return HopfData(pres, cop, antip, counit)


def factor_order_check(twist):
    """The two displayed orderings of the extended Jordanian twist agree."""
    if twist.label != "LC":
        raise PresentationError("factor order comparison is for the LC twist")
    model = twist.model
    read = _DisplayReader(model)
    alt = TwistElement(model, [read(c, {}) for c in _LC_ALT], label="LC-alt")
    rep = Report("extended Jordanian factorizations", {"trunc": str(model.trunc)})
    rep.zero("orders_agree", twist.tensor - alt.tensor)
    return rep


def universal_r(twist):
    """R = F_21 F^{-1}."""
    return twist.swapped() * twist.inverse
