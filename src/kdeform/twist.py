"""Twist two-tensors: the catalog, cocycle checks, and twisted structures.

A twist is stored as an ordered list of exponents; the element itself is the
product of their exponentials, expanded at the model's truncation.  The
catalog covers the extended Jordanian twist of the null-plane deformation
(label LC, two equal factorizations) and the Abelian one- and two-parameter
extensions labelled L1, L2 (light-like), S1, S2, S3 (space-like), T1, T3, T4
(time-like).  T3 and T4 mix the transverse momenta and rotations with
complex coefficients and carry no star structure.

Conventions.  Wedge exponents A ^ B are expanded as A (x) B - B (x) A and
every catalog row keeps the order printed in its own twist cell: M ^ ln Pi
for L1 and L2, ln Pi ^ M_3 for T1, plain tensors for the S rows.  These
orders are taken as printed; no twisted coproduct is compared with a printed
display.  Which rows are 2-cocycles over the primitive and over the deformed
structure is established by ``cocycle_check``, not assumed here.
"""

from fractions import Fraction

from .errors import KdeformError, PresentationError
from .hopf import HopfData, otimes
from .ncalg import TensorElement
from .report import Report
from .scalar import Scalar, gr
from .series import exp_nilpotent, unital_inverse, unital_log, unital_sqrt

TWIST_LABELS = ("LC", "L1", "L2", "S1", "S2", "S3", "T1", "T3", "T4")

_HALF = Fraction(1, 2)


def _wedge(a, b):
    return otimes(a, b) - otimes(b, a)


def primitive_hopf(pres, trunc):
    """The undeformed structure: primitive coproducts, S = -id, eps = 0."""
    if pres.product_rules:
        raise PresentationError(
            "primitive Hopf structure needs a Lie presentation"
        )
    cop, antip, counit = {}, {}, {}
    for i in range(len(pres.generators)):
        g = TensorElement.gen(pres, i, trunc)
        one = TensorElement.one(pres, 1, trunc)
        cop[i] = otimes(g, one) + otimes(one, g)
        antip[i] = -g
        counit[i] = Scalar.zero(trunc)
    return HopfData(pres, cop, antip, counit, trunc=trunc)


class TwistElement:
    """Ordered exponential product F = exp(X_1) exp(X_2) ... in U (x) U."""

    def __init__(self, model, factors, label=None):
        self.model = model
        self.pres = model.pres
        self.trunc = model.trunc
        self.factors = list(factors)
        self.label = label
        one = TensorElement.one(self.pres, 2, self.trunc)
        t = one
        for x in self.factors:
            t = t * exp_nilpotent(x, one=one)
        self.tensor = t
        inv = one
        for x in reversed(self.factors):
            inv = inv * exp_nilpotent(-x, one=one)
        self.inverse = inv

    def swapped(self):
        """F_21."""
        return self.tensor.swap()

    def conjugate(self, t):
        """F t F^{-1} for a rank-2 tensor t."""
        return self.tensor * t * self.inverse


def _require_flavor(model, label, flavors):
    if model.flavor not in flavors:
        raise PresentationError(
            "twist %s needs a model of flavor %s, got %s"
            % (label, " or ".join(flavors), model.flavor)
        )


def _transverse_slots(model):
    return list(range(2, model.metric.dim))


def build_twist(label, model):
    """Catalog twist by row label over a compatible model."""
    if label not in TWIST_LABELS:
        raise PresentationError("unknown twist label %r" % (label,))
    trunc = model.trunc
    minus_i = Scalar.monomial(gr(0, -1), 0, 0, trunc)
    i_xi = Scalar.monomial(gr(0, 1), 0, 1, trunc)

    if label == "LC":
        _require_flavor(model, label, ("null_plane",))
        ln_pi = unital_log(model.cas.Pi)
        piv = model.cas.PiInv
        x1 = otimes(model.m(0, 1), ln_pi) * minus_i
        x2 = TensorElement.zero(model.pres, 2, trunc)
        for a in _transverse_slots(model):
            x2 = x2 + otimes(model.m(0, a), model.p_up(a) * piv)
        x2 = x2 * (minus_i * Scalar.h(1, trunc))
        # factor order: Jordanian then extension
        return TwistElement(model, [x1, x2], label=label)

    if label in ("L1", "L2"):
        _require_flavor(model, label, ("null_plane",))
        k = model.klog
        if label == "L1":
            if model.metric.dim < 3:
                raise PresentationError("L1 needs a transverse direction")
            cell = model.m(0, 2)  # M_{+1}
        else:
            if model.metric.dim < 4:
                raise PresentationError("L2 needs two transverse directions")
            cell = model.m(2, 3)  # M_3, the transverse rotation
        # wedge resolved as A(x)B - B(x)A
        x = _wedge(cell, k) * i_xi
        return TwistElement(model, [x], label=label)

    if label in ("S1", "S2", "S3"):
        _require_flavor(model, label, ("covariant_hadic",))
        if model.metric.dim != 4:
            raise PresentationError("S rows are cataloged in dimension 4")
        if any(model.tau[mu] for mu in (0, 2, 3)) or not model.tau[1]:
            raise PresentationError(
                "S rows use tau along axis 1 (the space-like frame)"
            )
        m1 = model.m(2, 3)   # rotation about axis 1
        n3 = model.m(0, 3)   # boost along axis 3
        cell = {"S1": m1, "S2": m1 + n3, "S3": n3}[label]
        # the table cell uses a plain tensor, kept as displayed
        x = otimes(model.p(1), cell) * i_xi
        return TwistElement(model, [x], label=label)

    _require_flavor(model, label, ("orthog_1_plus",))
    if model.metric.dim != 4:
        raise PresentationError("T rows are cataloged in dimension 4")

    if label == "T1":
        m3 = model.m(1, 2)
        # exponent i xi (B ^ M_3) with B = kappa ln Pi, in cell order
        x = _wedge(model.klog, m3) * i_xi
        return TwistElement(model, [x], label=label)

    # complexified transverse combinations, + branch; complex, so T3 and T4
    # have no star structure
    i_s = Scalar.i(trunc)
    p_t = model.p(1) + model.p(2) * i_s          # P~_+
    m_t = model.m(2, 3) - model.m(1, 3) * i_s    # M~_+ = M_1 + i M_2
    m3 = model.m(1, 2)
    ln_pi = unital_log(model.cas.Pi)
    if label == "T3":
        x1 = otimes(p_t * unital_sqrt(model.cas.Pi), m_t) * Scalar.xi(1, trunc)
        x2 = otimes(ln_pi, m3) * (i_s * _HALF)
        return TwistElement(model, [x1, x2], label=label)
    # T4
    one = TensorElement.one(model.pres, 1, trunc)
    sigma = unital_log(one + p_t * Scalar.xi(1, trunc))
    damp = unital_inverse(one + p_t * Scalar.xi(1, trunc)) * model.cas.PiInv
    x1 = otimes(m_t * damp, model.p(3)) * Scalar.xi(1, trunc)
    x2 = otimes(sigma, m3)
    x3 = otimes(ln_pi, m3) * i_s
    return TwistElement(model, [x1, x2, x3], label=label)


# --- verification --------------------------------------------------------------


def _pad3(tensor, legs):
    """Embed a rank-2 tensor into rank 3 with the unit on the leftover leg."""
    out = {}
    for (w1, w2), c in tensor.terms.items():
        key = [(), (), ()]
        key[legs[0]] = w1
        key[legs[1]] = w2
        out[tuple(key)] = c
    return TensorElement(tensor.pres, 3, out, tensor.trunc)


def cocycle_check(twist, hopf):
    """(F(x)1)(Delta(x)id)F = (1(x)F)(id(x)Delta)F plus counit normalization."""
    rep = Report(
        "two-cocycle condition",
        {"twist": twist.label or "custom", "trunc": str(twist.trunc)},
    )
    t = twist.tensor
    one2 = TensorElement.one(twist.pres, 2, twist.trunc)
    one1 = TensorElement.one(twist.pres, 1, twist.trunc)
    rep.zero("invertible", t * twist.inverse - one2)
    lhs = _pad3(t, (0, 1)) * hopf.apply_cop_leg(t, 0)
    rhs = _pad3(t, (1, 2)) * hopf.apply_cop_leg(t, 1)
    rep.zero("two_cocycle", lhs - rhs)
    rep.zero("counit_left", hopf.apply_counit_leg(t, 0) - one1)
    rep.zero("counit_right", hopf.apply_counit_leg(t, 1) - one1)
    return rep


def twist_hopf(hopf, twist, check=True):
    """Twisted Hopf structure: Delta_F = F Delta F^{-1}, S_F = u S u^{-1}
    with u = m(id (x) S)F.  Refuses when the cocycle condition fails."""
    if check:
        rep = cocycle_check(twist, hopf)
        bad = [c.name for c in rep.checks if not c.passed]
        if bad:
            raise PresentationError(
                "twist %s is not a 2-cocycle over this structure: %s"
                % (twist.label or "custom", ", ".join(bad))
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
    return HopfData(pres, cop, antip, counit, trunc=trunc)


def factor_order_check(twist):
    """The two displayed orderings of the extended Jordanian twist agree."""
    if twist.label != "LC":
        raise PresentationError("factor order comparison is for the LC twist")
    model = twist.model
    trunc = model.trunc
    minus_i = Scalar.monomial(gr(0, -1), 0, 0, trunc)
    ln_pi = unital_log(model.cas.Pi)
    y1 = TensorElement.zero(model.pres, 2, trunc)
    for a in _transverse_slots(model):
        y1 = y1 + otimes(model.m(0, a), model.p_up(a))
    y1 = y1 * (minus_i * Scalar.h(1, trunc))
    y2 = otimes(model.m(0, 1), ln_pi) * minus_i
    alt = TwistElement(model, [y1, y2], label="LC-alt")
    rep = Report("extended Jordanian factorizations", {"trunc": str(trunc)})
    rep.zero("orders_agree", twist.tensor - alt.tensor)
    return rep


def universal_r(twist):
    """R = F_21 F^{-1}."""
    return twist.swapped() * twist.inverse
