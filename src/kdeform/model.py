"""Catalog of kappa(tau)-deformed inhomogeneous orthogonal Hopf algebras.

Five presentations ("flavors") of the same family of deformations of
U(iso(g)), parameterized by a metric g and a vector tau:

  covariant_hadic    iso(g) with the deformed coalgebra written covariantly
                     through Pi_tau, Pi_tau^(-1), C_tau as truncated power
                     series in h = 1/kappa; works for any tau.
  orthog_1_plus      the same construction after the 1+(D-1) orthogonal basis
                     change (tau^2 != 0); generators P_tau, P_i, M_tau_i, M_ij.
  null_plane         light-cone basis for tau^2 = 0; generators P_+, P_-, P_a,
                     M_+-, M_+a, M_-a, M_ab, with Pi_+ = 1 + P_+/kappa.
  qanalog_timelike   the sub-Hopf algebra generated by (Pi, Pi_inv, P_i,
                     M_tau_i, M_ij); finitely many exact relations, Laurent
                     coefficients in h, no truncation.
  qanalog_lightlike  same for tau^2 = 0, generated by (Pi_+, Pi_+_inv, P_-,
                     P_a, M_+-, M_+a, M_-a, M_ab).

The q-analog flavors close on finitely many relations, so the deformation
parameter can be specialized to a number; rescaling_isomorphism_check
certifies that all nonzero specializations give isomorphic Hopf algebras
(the momentum rescale P -> P/kappa removes every power of h).

One covariant formula set builds the coproduct, antipode and counit of
every flavor (``_hopf_tables``), from Pi, Pi_inv, C, C_tau and P_tau; every
builder sets ``model.cas`` and ``model.p_tau_expr`` first.  A q-analog has
no momentum generator in slot 0: there P_tau (P_+ for tau^2 = 0) is the
expression in Pi^{+-1} it stands for, and Pi^{+-1} are group-like.  The
iso(g) brackets [M, P] and [M, M] are written once (``_iso_bracket``) and
give the rules of every flavor and the basis-change check; in a q-analog
they also give [M, Pi^{+-1}] through [M, Pi] = h [M, P_tau], so only
Pi Pi_inv = Pi_inv Pi = 1 is written by hand.  The paper's printed
displays are transcribed as lines of index notation (``_DISPLAYS``) that
one reader, ``_DisplayReader``, checks in the model's basis.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial

from .errors import ClassicalLimitError, PresentationError
from .hopf import HopfData, otimes, verify_axioms, verify_reality
from .metric import _fractions, adapted_basis, as_metric, as_tau, basis_metric
from .ncalg import EMPTY_WORD, Presentation, TensorElement, word_image
from .report import Report
from .scalar import GR_I, Scalar, accumulate, gr
from .series import unital_inverse, unital_log, unital_power, unital_sqrt

FLAVORS = (
    "covariant_hadic",
    "orthog_1_plus",
    "null_plane",
    "qanalog_timelike",
    "qanalog_lightlike",
)

_HALF = Fraction(1, 2)


class ModelConfig:
    """Input data for one catalog entry."""

    def __init__(self, metric, tau, flavor="covariant_hadic", trunc=(3, 3)):
        self.metric = metric = as_metric(metric)
        metric.inverse()  # a degenerate metric raises here
        self.tau = as_tau(metric, tau)
        if flavor not in FLAVORS:
            raise PresentationError("unknown flavor %r" % (flavor,))
        self.flavor = flavor
        self.tau2 = metric.square(self.tau)
        if flavor in ("orthog_1_plus", "qanalog_timelike") and self.tau2 == 0:
            raise PresentationError("%s needs tau^2 != 0" % flavor)
        if flavor in ("null_plane", "qanalog_lightlike") and self.tau2 != 0:
            raise PresentationError("%s needs tau^2 == 0" % flavor)
        if flavor.startswith("qanalog"):
            if trunc is not None:
                raise PresentationError(
                    "q-analog flavors are exact; use trunc=None"
                )
        elif not (
            type(trunc) is tuple
            and len(trunc) == 2
            and all(type(n) is int and n >= 0 for n in trunc)
        ):
            raise PresentationError(
                "h-adic flavors need trunc = (h-order, xi-order), two "
                "non-negative ints; got %r" % (trunc,)
            )
        self.trunc = trunc


class CasimirSet:
    """Quadratic Casimir C, deformed Casimir C_tau and the group-likes."""

    def __init__(self, C, C_tau, Pi, PiInv):
        self.C = C
        self.C_tau = C_tau
        self.Pi = Pi
        self.PiInv = PiInv


# --- sums over index slots ----------------------------------------------------


def _lincomb(start, coeffs, x):
    """start + sum of x(k) * c over the (k, c) pairs of ``coeffs``.

    A zero c is skipped before x(k) is built, so x need only be defined
    where the coefficient is nonzero.
    """
    for k, c in coeffs:
        if c:
            start = start + x(k) * c
    return start


def _quadratic(start, mat, x, slots):
    """start + sum of x(m) * x(n) * mat[m][n] over the slots m, n with a
    nonzero entry (C = g^{mu nu} P_mu P_nu and its partial sums)."""
    return _lincomb(
        start,
        (((m, n), mat[m][n]) for m in slots for n in slots),
        lambda k: x(k[0]) * x(k[1]),
    )


def _momentum_square(model, first):
    """P^m P_m = g^{mn} P_m P_n over the slots m, n >= first; C at 0."""
    return _quadratic(
        TensorElement.zero(model.pres, 1, model.trunc),
        model.metric.inverse(),
        model.p,
        range(first, model.metric.dim),
    )


# --- undeformed presentation -------------------------------------------------


def _rule(elt):
    """A rank-1 element's terms keyed by words, the rule tables' format."""
    return {w: c for (w,), c in elt.by_legs().items()}


def _default_labels(dim):
    ps = ["P_%d" % mu for mu in range(dim)]
    ms = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            ms[(a, b)] = "M_%d%d" % (a, b)
    return ps, ms


def build_iso(metric, p_labels=None, m_labels=None):
    """Presentation of iso(g): D momenta and D(D-1)/2 rotation generators.

    Index maps are attached as ``pres.iso_data`` = {"metric", "p", "m"} so
    that basis changes and the Hopf builders can find their way around.
    """
    metric = as_metric(metric)
    metric.inverse()  # validates non-degeneracy up front
    dim = metric.dim
    if p_labels is None:
        p_labels, m_labels = _default_labels(dim)
    pres = Presentation("iso(%d)" % dim)
    pidx = [pres.add_generator(lab, weight=1) for lab in p_labels]
    midx = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            midx[(a, b)] = pres.add_generator(m_labels[(a, b)])
    _install_brackets(
        pres,
        metric.g,
        lambda mu: TensorElement.gen(pres, pidx[mu]),
        partial(_rotation, pres, midx),
        dict(enumerate(pidx)),
        midx,
        _iso_pairs(range(dim), midx),
    )
    pres.iso_data = {"metric": metric, "p": pidx, "m": midx}
    return pres


def _iso_data(pres):
    """The index maps of a presentation built by ``build_iso``."""
    data = getattr(pres, "iso_data", None)
    if data is None:
        raise PresentationError("needs a presentation built by build_iso")
    return data


def _m_signed(midx, a, b):
    """(index, sign) of the rotation generator M_ab, by M_ba = -M_ab and
    M_aa = 0; (None, 0) when a == b."""
    if a == b:
        return None, 0
    if a < b:
        return midx[(a, b)], 1
    return midx[(b, a)], -1


def _rotation(pres, midx, a, b, trunc=None):
    """The rotation generator M_ab as an element."""
    im, sgn = _m_signed(midx, a, b)
    if not sgn:
        return TensorElement.zero(pres, 1, trunc)
    m = TensorElement.gen(pres, im, trunc)
    return m if sgn > 0 else -m


def _iso_bracket(g, p, m, ab, y, zero):
    """[M_ab, P_y] for a slot y, or [M_ab, M_cd] for a slot pair y = (c, d);
    p(mu) and m(mu, nu) give the momenta and rotations as elements, and
    the terms whose metric entry is 0 are never built."""
    a, b = ab
    if isinstance(y, tuple):
        # [M_ab, M_cd] = i(g_ad M_bc - g_bd M_ac + g_bc M_ad - g_ac M_bd)
        c, d = y
        terms = [((b, c), g[a][d]), ((a, c), -g[b][d]),
                 ((a, d), g[b][c]), ((b, d), -g[a][c])]
        rhs = _lincomb(zero, terms, lambda k: m(*k))
    else:
        # [M_ab, P_c] = i(g_bc P_a - g_ac P_b)
        rhs = _lincomb(zero, [(a, g[b][y]), (b, -g[a][y])], p)
    return rhs * GR_I


def _iso_pairs(slots, mpairs):
    """The (ab, y) arguments of every [M, P] and then every [M, M] rule
    among the momenta of ``slots`` and the rotations of ``mpairs``, in slot
    order, which fixes the order of every later check."""
    mpairs = sorted(mpairs)
    return [(ab, c) for ab in mpairs for c in slots] + [
        (ab, cd) for x, ab in enumerate(mpairs) for cd in mpairs[x + 1:]
    ]


def _install_brackets(pres, g, p, m, pidx, midx, pairs):
    """Install the rule [M_ab, X] that ``_iso_bracket`` gives for each
    (ab, y) of ``pairs``, in order, unless it is zero; X is the rotation
    midx[y] of a slot pair y or the momentum pidx[y] of a slot y."""
    zero = TensorElement.zero(pres, 1)
    for ab, y in pairs:
        rhs = _iso_bracket(g, p, m, ab, y, zero)
        if rhs:
            x = midx[y] if isinstance(y, tuple) else pidx[y]
            pres.set_commutator(midx[ab], x, _rule(rhs))


def transform_tau(metric, rows, tau):
    """Components of tau in the basis e~_alpha = rows[alpha].

    Pair each row with tau through g, raise with the transformed metric.
    """
    rows, new_metric = basis_metric(metric, rows)
    return new_metric.raise_index([metric.pair(row, tau) for row in rows])


def change_basis(pres, rows):
    """New iso presentation in the basis e~_alpha = rows[alpha] (old coords).

    The transformed metric is g~_ab = g(rows[a], rows[b]); structure
    constants are rebuilt from it, which is what covariance of the defining
    relations asserts (basis_change_check verifies this formula-level).
    """
    rows, new_metric = basis_metric(_iso_data(pres)["metric"], rows)
    new_pres = build_iso(new_metric)
    new_pres.iso_data["basis"] = rows
    return new_pres


def _basis_images(p, m, rows, zero):
    """P~_a = A_a^mu P_mu and M~_ab = A_a^mu A_b^nu M_mu_nu (a < b) for the
    basis rows A_a = rows[a]; p(mu) and m(mu, nu) give the old generators."""
    dim = len(rows)
    pt = [_lincomb(zero, enumerate(row), p) for row in rows]
    mt = {
        (a, b): _lincomb(
            zero,
            (
                ((mu, nu), rows[a][mu] * rows[b][nu])
                for mu in range(dim)
                for nu in range(dim)
            ),
            lambda k: m(*k),
        )
        for a in range(dim)
        for b in range(a + 1, dim)
    }
    return pt, mt


def basis_change_check(pres, rows):
    """Formula-level covariance of the defining relations.

    Inside the *old* presentation, the combinations P~_a = A_a^mu P_mu and
    M~_ab = A_a^mu A_b^nu M_mu_nu must satisfy the relations built from the
    transformed metric, and the quadratic Casimir must be basis independent.
    """
    data = _iso_data(pres)
    metric, pidx, midx = data["metric"], data["p"], data["m"]
    dim = metric.dim
    rows, metric_t = basis_metric(metric, rows)
    zero = TensorElement.zero(pres, 1)

    def p_el(mu):
        return TensorElement.gen(pres, pidx[mu])

    pt, mt = _basis_images(p_el, partial(_rotation, pres, midx), rows, zero)
    for (a, b), x in list(mt.items()):
        mt[(b, a)] = -x
    for a in range(dim):
        mt[(a, a)] = zero

    def want(ab, y):
        return _iso_bracket(
            metric_t.g, pt.__getitem__, lambda a, b: mt[a, b], ab, y, zero
        )

    rep = Report("basis change covariance", {"dim": dim})
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(dim):
                got = mt[(a, b)].commutator(pt[c])
                rep.zero(
                    "comm[M~_%d%d,P~_%d]" % (a, b, c), got - want((a, b), c)
                )
    mpairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    for x, (a, b) in enumerate(mpairs):
        for (c, d) in mpairs[x:]:
            got = mt[(a, b)].commutator(mt[(c, d)])
            rep.zero(
                "comm[M~_%d%d,M~_%d%d]" % (a, b, c, d),
                got - want((a, b), (c, d)),
            )
    # C~ = C: the Casimir does not see the basis
    c_old = _quadratic(zero, metric.inverse(), p_el, range(dim))
    c_new = _quadratic(zero, metric_t.inverse(), pt.__getitem__, range(dim))
    rep.zero("casimir_basis_independent", c_old - c_new)
    return rep


def orthogonal_decompose(metric, tau):
    """Basis rows adapted to tau, the block metric, and tau in new coords.

    tau^2 != 0: rows[0] = tau, the rest span its g-orthogonal complement, so
    the new metric has g_00 = tau^2 and vanishing first row/column elsewhere.
    tau^2 = 0: rows = (tau_+, tau_-, transverse...) with the anti-diagonal
    2x2 light-cone block.  Either way tau becomes (1, 0, ..., 0).
    """
    metric = as_metric(metric)
    basis, new_metric = basis_metric(metric, adapted_basis(metric, tau))
    new_tau = (Fraction(1),) + (Fraction(0),) * (metric.dim - 1)
    return basis, new_metric, new_tau


# --- covariant h-adic construction -------------------------------------------


def _covariant_atoms(model, trunc):
    """Pi, Pi_inv, C, C_tau and kappa*ln(Pi) at the requested truncation.

    The two divisions by kappa (inside C_tau and the log) are done at a
    bumped h-order so no truncated information is lost, then cut back.
    """
    pres, metric, tau, t2 = model.pres, model.metric, model.tau, model.tau2
    nh, nxi = trunc
    bump = (nh + 2, nxi)
    pidx = pres.iso_data["p"]
    dim = metric.dim
    ginv = metric.inverse()

    p = [TensorElement.gen(pres, pidx[mu], bump) for mu in range(dim)]
    one = TensorElement.one(pres, 1, bump)
    zero = TensorElement.zero(pres, 1, bump)
    C = _quadratic(zero, ginv, p.__getitem__, range(dim))
    p_tau = _lincomb(zero, enumerate(tau), p.__getitem__)

    s = unital_sqrt(one + C * Scalar.monomial(gr(t2), 2, 0, bump))
    Pi = p_tau * Scalar.h(1, bump) + s
    PiInv = unital_inverse(Pi)
    if t2 != 0:
        C_tau = (s - one).shift(-2) * (Fraction(2) / t2)
    else:
        C_tau = C
    klog = unital_log(Pi).shift(-1)

    return {
        "C": C.retrunc(trunc),
        "C_tau": C_tau.retrunc(trunc),
        "Pi": Pi.retrunc(trunc),
        "PiInv": PiInv.retrunc(trunc),
        "klog": klog.retrunc(trunc),
        "P_tau": p_tau.retrunc(trunc),
    }


def _hopf_tables(model):
    """``(coproduct, antipode, counit)`` of every generator of a flavor.

    One covariant formula set, read from Pi, Pi_inv, C, C_tau (``model.cas``)
    and P_tau (``model.p_tau_expr``); each slot's momentum comes from
    ``Model.p``.  Pi^{+-1}, generators only in the q-analogs, are
    group-like with counit 1.
    """
    pres, metric, tau, trunc = model.pres, model.metric, model.tau, model.trunc
    dim = metric.dim
    Pi, PiInv, C, C_tau = (
        model.cas.Pi, model.cas.PiInv, model.cas.C, model.cas.C_tau
    )
    tau_low = metric.lower(tau)
    p_tau = model.p_tau_expr
    one = TensorElement.one(pres, 1, trunc)
    zero = TensorElement.zero(pres, 1, trunc)
    m_el = model.m
    ps = [model.p(mu) for mu in range(dim)]
    pu = [model.p_up(mu) for mu in range(dim)]
    m_tau = [
        _lincomb(zero, enumerate(tau), lambda al: m_el(al, lam))
        for lam in range(dim)
    ]

    h1 = Scalar.h(1, trunc)
    half_h1 = Scalar.monomial(gr(_HALF), 1, 0, trunc)
    half_h2 = Scalar.monomial(gr(_HALF), 2, 0, trunc)
    pu_piinv = [pu[al] * PiInv for al in range(dim)]
    ct_piinv = C_tau * PiInv

    cop, antip, counit = {}, {}, {}
    for i, inv in zip(model.grouplike, model.grouplike[::-1]):
        x = TensorElement.gen(pres, i)
        cop[i] = otimes(x, x)
        antip[i] = TensorElement.gen(pres, inv)
        counit[i] = Scalar.one()

    for mu, ip in model.p_index.items():
        d = otimes(ps[mu], Pi) + otimes(one, ps[mu])
        s_el = ps[mu]
        if tau_low[mu]:
            for al in range(dim):
                d = d - otimes(pu_piinv[al], ps[al]) * (h1 * tau_low[mu])
            d = d - otimes(ct_piinv, p_tau) * (half_h2 * tau_low[mu])
            s_el = s_el + (C + p_tau * C_tau * half_h1) * (h1 * tau_low[mu])
        cop[ip] = d
        antip[ip] = -(s_el * PiInv)
        counit[ip] = Scalar.zero()

    for (a, b), im in model.m_index.items():
        mel = TensorElement.gen(pres, im, trunc)
        d = otimes(mel, one) + otimes(one, mel)
        s_el = -mel
        for al in range(dim):
            coeffs = (((al, a), tau_low[b]), ((al, b), -tau_low[a]))
            w1 = _lincomb(zero, coeffs, lambda k: m_el(*k))
            if w1:
                d = d + otimes(pu_piinv[al], w1) * h1
                s_el = s_el + pu[al] * w1 * h1
        w2 = m_tau[b] * tau_low[a] - m_tau[a] * tau_low[b]
        if w2:
            d = d - otimes(ct_piinv, w2) * half_h2
            s_el = s_el - C_tau * w2 * half_h2
        cop[im] = d
        antip[im] = s_el
        counit[im] = Scalar.zero()

    return cop, antip, counit


def _build_hadic(model):
    """iso(g) in the flavor's basis, with the covariant atoms."""
    dim = model.metric.dim
    pres = build_iso(model.metric, *_HADIC_LABELS[model.flavor](dim))
    model.pres = pres
    model.p_index = dict(enumerate(pres.iso_data["p"]))
    model.m_index = dict(pres.iso_data["m"])
    atoms = _covariant_atoms(model, model.trunc)
    model.cas = CasimirSet(
        atoms["C"], atoms["C_tau"], atoms["Pi"], atoms["PiInv"]
    )
    model.p_tau_expr = atoms["P_tau"]
    model.klog = atoms["klog"]


def _orthog_labels(dim):
    ps = ["P_tau"] + ["P_%d" % i for i in range(1, dim)]
    ms = {}
    for i in range(1, dim):
        ms[(0, i)] = "M_tau_%d" % i
    for i in range(1, dim):
        for j in range(i + 1, dim):
            ms[(i, j)] = "M_%d%d" % (i, j)
    return ps, ms


def _null_labels(dim):
    names = ["+", "-"] + ["%d" % (k - 1) for k in range(2, dim)]
    ps = ["P_%s" % s for s in names]
    ms = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            ms[(a, b)] = "M_%s%s" % (names[a], names[b])
    return ps, ms


_HADIC_LABELS = {
    "covariant_hadic": _default_labels,
    "orthog_1_plus": _orthog_labels,
    "null_plane": _null_labels,
}


# --- q-analog constructions ---------------------------------------------------


def _q_skeleton(model, labels, pi_label, s):
    """The presentation both q-analogs start from.

    Generators Pi, Pi_inv, then the momenta and rotations of the h-adic
    flavor in the same basis (``labels``) except the momentum of slot 0,
    whose role Pi takes; Pi Pi_inv = Pi_inv Pi = 1, and the iso(g) rules
    on the slots after ``s``.
    """
    dim = model.metric.dim
    ps, ms = labels(dim)
    pres = Presentation("U_q(iso(%d)) tau^2=%s" % (dim, model.tau2))
    model.pres = pres
    pi = pres.add_generator(pi_label)
    piv = pres.add_generator(pi_label + "_inv")
    model.grouplike = (pi, piv)
    model.p_index = {
        k: pres.add_generator(ps[k], weight=1) for k in range(1, dim)
    }
    model.m_index = {ab: pres.add_generator(lab) for ab, lab in ms.items()}

    pres.set_product(pi, piv, {EMPTY_WORD: Scalar.one()})
    pres.set_product(piv, pi, {EMPTY_WORD: Scalar.one()})
    _q_brackets(model, _iso_pairs(
        range(s + 1, dim), (ab for ab in model.m_index if ab[0] > s)
    ))


def _q_brackets(model, pairs):
    """The iso(g) rules of ``pairs`` in a q-analog, whose slot-0 momentum
    is P_tau (P_+ for tau^2 = 0) read from Pi^{+-1}."""
    _install_brackets(
        model.pres,
        model.metric.g,
        model.p,
        model.m,
        model.p_index,
        model.m_index,
        pairs,
    )


def _pi_rules(model, ab):
    """[M_ab, Pi] = h [M_ab, P_tau], since Pi = 1 + h P_tau
    + tau^2 h^2 C_tau/2 and C_tau is central, and then
    [M_ab, Pi_inv] = -Pi_inv [M_ab, Pi] Pi_inv, normal-ordered; the bracket
    with P_tau is the iso(g) rule of slot 0."""
    pres = model.pres
    pi, piv = model.grouplike
    piv_el = TensorElement.gen(pres, piv)
    rhs = _iso_bracket(
        model.metric.g, model.p, model.m, ab, 0, TensorElement.zero(pres, 1)
    ) * Scalar.h()
    pres.set_commutator(model.m_index[ab], pi, _rule(rhs))
    pres.set_commutator(
        model.m_index[ab], piv, _rule(-(piv_el * rhs * piv_el))
    )


def _grouplike_forms(pi, piv, pp, t2):
    """P_tau = (kappa/2)(Pi - Pi_inv(1 + pp)) and
    C_tau = (kappa^2/tau^2)(Pi + Pi_inv - 2 + pp Pi_inv) from the group-like
    pair, with pp = tau^2 P^m P_m/kappa^2 over the slots orthogonal to tau
    and t2 = tau^2."""
    one = TensorElement.one(pi.pres, 1, pi.trunc)
    return ((pi - piv * (one + pp)).shift(-1) * _HALF,
            (pi + piv - one * 2 + pp * piv).shift(-2) * (Fraction(1) / t2))


def _build_q_timelike(model):
    _q_skeleton(model, _orthog_labels, "Pi", 0)
    pres, dim, t2 = model.pres, model.metric.dim, model.tau2
    pi, piv = (TensorElement.gen(pres, i) for i in model.grouplike)
    pp = _momentum_square(model, 1) * Scalar.monomial(gr(t2), 2, 0)
    model.p_tau_expr, c_tau = _grouplike_forms(pi, piv, pp, t2)
    model.cas = CasimirSet(_momentum_square(model, 0), c_tau, pi, piv)

    # [M_tau_i, M_cd] = i(g_ic M_tau_d - g_id M_tau_c), then
    # [M_tau_i, M_tau_j] = -i tau^2 M_ij
    spairs = sorted(ab for ab in model.m_index if ab[0] > 0)
    _q_brackets(model, [((0, i), cd) for i in range(1, dim) for cd in spairs])
    _q_brackets(model, [
        ((0, i), (0, j)) for i in range(1, dim) for j in range(i + 1, dim)
    ])
    # [M_tau_i, Pi^{+-1}]
    for i in range(1, dim):
        _pi_rules(model, (0, i))
    # [M_tau_i, P_j] = i g_ij P_tau
    _q_brackets(model, [
        ((0, i), j) for i in range(1, dim) for j in range(1, dim)
    ])


def _build_q_lightlike(model):
    _q_skeleton(model, _null_labels, "Pi_+", 1)
    pres, dim = model.pres, model.metric.dim
    pi_el, piv_el = (TensorElement.gen(pres, i) for i in model.grouplike)
    # P_+ = kappa(Pi_+ - 1), and C = 2 P_+ P_- + P^a P_a = C_tau
    model.p_tau_expr = (pi_el - TensorElement.one(pres, 1)) * (
        Scalar.monomial(gr(1), -1, 0)
    )
    c = _momentum_square(model, 0)
    model.cas = CasimirSet(c, c, pi_el, piv_el)

    tr = range(2, dim)
    tpairs = [ab for ab in model.m_index if ab[0] > 1]
    # [M_+a, M_-b] = -i(M_ab + g_ab M_+-),
    # [M_{+-a}, M_bc] = i(g_ab M_{+-c} - g_ac M_{+-b}) and
    # [M_+-, M_{+-a}] = +-i M_{+-a}
    _q_brackets(model, [((0, a), (1, b)) for a in tr for b in tr])
    _q_brackets(model, [
        ((s, a), bc) for s in (0, 1) for a in tr for bc in tpairs
    ])
    _q_brackets(model, [((0, 1), (s, a)) for a in tr for s in (0, 1)])
    # [M_+-, Pi_+^{+-1}], then [M_+-, P_-]
    _pi_rules(model, (0, 1))
    _q_brackets(model, [((0, 1), 1)])
    for a in tr:
        # [M_+a, P_-] = -i P_a, [M_+a, P_b] = i kappa g_ab (Pi_+ - 1),
        # [M_-a, Pi_+^{+-1}] and [M_-a, P_b] = i g_ab P_-
        _q_brackets(model, [((0, a), b) for b in range(1, dim)])
        _pi_rules(model, (1, a))
        _q_brackets(model, [((1, a), b) for b in tr])


# --- the model object ---------------------------------------------------------


class Model:
    """One fully built catalog entry.

    Attributes: pres, hopf, cas; metric/tau in the working (possibly
    adapted) basis; basis rows back to the original coordinates (or None);
    p_index / m_index mapping basis slots to generator indices; p_tau_expr,
    the element P_tau, set for every flavor (in the q-analogs, P_tau or P_+
    written through Pi^{+-1}); klog, the element kappa*ln(Pi), for the
    h-adic flavors.  Each builder sets the presentation, cas and
    p_tau_expr; the Hopf tables of every flavor then come from one
    covariant formula set (``_hopf_tables``).
    """

    def __init__(self, config):
        if not isinstance(config, ModelConfig):
            raise PresentationError("Model needs a ModelConfig")
        self.config = config
        self.flavor = config.flavor
        self.trunc = config.trunc
        self.klog = None
        self.grouplike = ()

        if config.flavor == "covariant_hadic":
            self.metric, self.tau, self.basis = config.metric, config.tau, None
        else:
            self.basis, self.metric, self.tau = orthogonal_decompose(
                config.metric, config.tau
            )
        self.tau2 = self.metric.square(self.tau)
        if config.flavor == "qanalog_timelike":
            _build_q_timelike(self)
        elif config.flavor == "qanalog_lightlike":
            _build_q_lightlike(self)
        else:
            _build_hadic(self)
        self.hopf = HopfData(self.pres, *_hopf_tables(self))

    # --- element helpers ---------------------------------------------------

    def gen(self, label):
        return TensorElement.gen(self.pres, self.pres.gen_index(label), self.trunc)

    def p(self, slot):
        """The momentum of a slot.  A q-analog has no generator in slot 0;
        its momentum there is P_tau (P_+ for tau^2 = 0), read from Pi^{+-1}."""
        if slot in self.p_index:
            return TensorElement.gen(self.pres, self.p_index[slot], self.trunc)
        if slot == 0 and self.grouplike:
            return self.p_tau_expr
        raise PresentationError("no momentum generator in slot %r" % slot)

    def p_up(self, slot):
        """Raised-index momentum P^slot using the working metric."""
        self._require_slots(slot)
        return _lincomb(
            TensorElement.zero(self.pres, 1, self.trunc),
            enumerate(self.metric.inverse()[slot]),
            self.p,
        )

    def m(self, a, b):
        self._require_slots(a, b)
        return _rotation(self.pres, self.m_index, a, b, self.trunc)

    def _require_slots(self, *slots):
        dim = self.metric.dim
        if not all(slot in range(dim) for slot in slots):
            raise PresentationError("no slots %r in dimension %d" % (slots, dim))

    def pi_power(self, k):
        """Pi^k as an element, for any integer k."""
        if type(k) is not int:
            raise PresentationError("pi_power needs an int k, not %r" % (k,))
        if self.grouplike:
            pi, piv = self.grouplike
            idx = pi if k >= 0 else piv
            return TensorElement(
                self.pres, 1, {((idx,) * abs(k),): Scalar.one()}, self.trunc
            )
        return unital_power(self.cas.Pi if k >= 0 else self.cas.PiInv, abs(k))

    # --- classical limit ---------------------------------------------------

    def classical_limit(self, obj):
        """kappa -> infinity: group-likes become 1, h-terms drop.

        Raises ClassicalLimitError when a negative power of h survives the
        substitution (nothing in the catalog does), and PresentationError
        for anything but a tensor over the model's presentation.
        """
        if not (isinstance(obj, TensorElement) and obj.pres is self.pres):
            raise PresentationError(
                "classical_limit needs a tensor over its own presentation %s"
                % self.pres.name
            )
        strip = set(self.grouplike)

        def drop(word):
            return tuple(x for x in word if x not in strip)

        out = accumulate({}, (
            (tuple(map(drop, key)), a, b, c)
            for (key, a, b), c in obj.terms.items()
        ), obj.trunc)
        for key, a, _ in out:
            if a < 0:
                raise ClassicalLimitError(
                    "negative h power survives at %r" % (key,)
                )
        return TensorElement._make(self.pres, obj.rank, {
            k: c for k, c in out.items() if k[1] == 0
        }, obj.trunc)


# --- checks --------------------------------------------------------------------


def presentation_check(pres):
    """Local-confluence sweep wrapped in a report (Jacobi when pure Lie)."""
    failures = pres.associativity_check()
    rep = Report(
        "presentation consistency: %s" % pres.name,
        {"generators": len(pres.generators)},
    )
    if failures:
        for t, residual in failures[:8]:
            rep.zero("confluence[%s]" % pres._word_str(t), residual)
    else:
        rep.add("confluence", True)
    return rep


# --- the printed displays, read from their transcribed text -------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<call>sum_[a-z]|[DS]|ln|sqrt|inv)\("
    r"|(?P<head>M_|P_|P\^|g_)(?P<sym>[τ+\-a-z\d]+)"
    r"|(?P<name>Pi_inv|Pi|C_tau|C|t2|klog|xi|[hki])(?!\w)|(?P<num>\d+)"
    r"|(?P<op>\(x\)|[-+/=,()\[\]^]))"
)
# what ends a product of factors; None is the end of the line
_ENDS = {"+", "-", "(x)", "^", ")", "]", ",", "=", None}
# why a model that has no value for a name refuses it
_REFUSED = {"k": "k = 1/h needs an exact model",
            "klog": "klog = kappa ln(Pi) needs an h-adic model"}


class _DisplayReader:
    """Reads a model's printed displays from their transcribed text.

    ``reader(line, env)`` reads a printed line ``lhs = rhs`` in the model's
    basis and returns the exact residual lhs - rhs as a ``TensorElement``
    (a line without ``=`` gives its value); ``env`` binds loop letters to
    slots.  The notation:

    * factors side by side multiply in the written order; ``(x)`` separates
      tensor legs, and ``A ^ B`` at the same level is A (x) B - B (x) A;
      ``[a, b]`` is the commutator, ``D(..)`` and ``S(..)`` are the model's
      coproduct and antipode, and ``ln(..)``, ``sqrt(..)`` and ``inv(..)``
      the unital series of ``kdeform.series``;
    * ``M_xy``, ``P_x``, ``P^x`` (raised by the metric) and ``g_xy`` take
      slot symbols: ``τ`` (slot 0) in the tau^2 != 0 flavors, ``+`` and
      ``-`` (slots 0 and 1) in the light-cone ones, a letter, which runs
      over the slots after those, or a digit, the slot whose label in a
      check's name is that digit; ``sum_a(..)`` sums over the slots of a;
    * the named values are h, k = 1/h (exact models only), xi, i, t2 =
      tau^2, Pi, Pi_inv, C, C_tau and klog = kappa ln(Pi) (h-adic models
      only); numbers are rationals, and ``/`` divides by a nonzero number
      (a numeral or t2).

    A character that no token reads, or a token left over, raises
    ``PresentationError``.
    """

    def __init__(self, model):
        self.model, self.trunc, cas = model, model.trunc, model.cas
        light = model.flavor in ("null_plane", "qanalog_lightlike")
        self.fixed = {"+": 0, "-": 1} if light else {"τ": 0}
        self.slots = range(len(self.fixed), model.metric.dim)
        self.named = {
            "h": Scalar.h(1, self.trunc), "xi": Scalar.xi(1, self.trunc),
            "i": Scalar.i(self.trunc), "klog": model.klog,
            "k": Scalar.h(-1) if self.trunc is None else None,
            "t2": Scalar.rational(model.tau2, self.trunc), "Pi": cas.Pi,
            "Pi_inv": cas.PiInv, "C": cas.C, "C_tau": cas.C_tau,
        }

    def __call__(self, line, env):
        self.toks, self.at, self.env, pos = [], 0, env, 0
        line = line.rstrip()
        while pos < len(line):
            # match at each position, so that no character goes unread
            m = _TOKEN.match(line, pos)
            if m is None:
                raise PresentationError(
                    "cannot read %r in %r" % (line[pos:].strip()[0], line)
                )
            kind = m.lastgroup
            key = m[kind] if kind == "op" else kind
            self.toks.append((key, m[kind], m["head"]))
            pos = m.end()
        self.toks.append((None, "the end", None))
        value = self._sum()
        if self._take("="):
            value = self._add(value, -self._sum())
        if self.toks[self.at][0] is not None:
            raise PresentationError(
                "unread %r at the end of %r" % (self.toks[self.at][1], line)
            )
        return self._lift(value, 1)

    def run(self, rep, groups):
        """Add to ``rep`` one check per line of each ``(letters, lines)``
        group, for every binding of its letters, the first outermost (in
        ``i<j``, j runs past i).  A braced letter in a line's name that the
        group does not bind loops inside that line.  A name prints each
        slot as its label fragment: the slot in the tau^2 != 0 flavors,
        slot - 1 in the light-cone ones.  A line that is a function of
        ``(reader, env)`` gives the check's ``(passed, detail)`` itself."""
        for letters, lines in groups:
            for env in self._bind(letters, {}):
                for name, line in lines:
                    inner = [x for x in re.findall("{(.)}", name)
                             if x not in env]
                    for full in self._bind(inner, env):
                        label = name.format(**{
                            x: s + 1 - len(self.fixed) for x, s in full.items()
                        })
                        if callable(line):
                            rep.add(label, *line(self, full))
                        else:
                            rep.zero(label, self(line, full))

    def _bind(self, letters, env):
        envs, prev, past = [env], None, False
        for x in letters:
            if x == "<":
                past = True
                continue
            envs = [{**e, x: s} for e in envs for s in self.slots
                    if not past or s > e[prev]]
            prev, past = x, False
        return envs

    # --- recursive descent, evaluating as it reads -------------------------

    def _take(self, op):
        found = self.toks[self.at][0] == op
        self.at += found
        return found

    def _expect(self, op):
        if not self._take(op):
            raise PresentationError(
                "expected %r, not %r" % (op, self.toks[self.at][1])
            )

    def _sum(self):
        total, minus = None, self._take("-")
        while True:
            term = self._product()
            while self._take("(x)") or self._take("^"):
                wedge = self.toks[self.at - 1][0] == "^"
                a, b = self._lift(term, 1), self._lift(self._product(), 1)
                term = TensorElement.from_legs(a, b)
                if wedge:
                    term = term - TensorElement.from_legs(b, a)
            total = self._add(total, -term if minus else term)
            if not (self._take("+") or self._take("-")):
                return total
            minus = self.toks[self.at - 1][0] == "-"

    def _product(self):
        value = self._factor()
        while self.toks[self.at][0] not in _ENDS:
            x = self._factor()
            value = x * value if isinstance(value, Scalar) else value * x
        return value

    def _factor(self):
        key, text, head = self.toks[self.at]
        self.at += 1
        if key == "num":
            return Scalar.rational(int(text), self.trunc)
        if key == "name":
            if self.named[text] is None:
                raise PresentationError(_REFUSED[text])
            return self.named[text]
        if key == "sym":
            return self._symbol(head, text)
        if key == "/":
            x = self._factor()
            if not (isinstance(x, Scalar) and x.is_constant() and x):
                raise PresentationError("/ needs a nonzero number, not %r" % x)
            return Scalar.monomial(1 / x.constant_value(), 0, 0, self.trunc)
        if text.startswith("sum_"):
            return self._slot_sum(text[-1])
        if key not in ("(", "[", "call"):
            raise PresentationError("unexpected %r" % (text,))
        value = self._sum()
        if key == "[":
            self._expect(",")
            value = self._lift(value, 1).commutator(self._lift(self._sum(), 1))
        self._expect("]" if key == "[" else ")")
        if key != "call":
            return value
        # the series are read from this module's names at call time, so a
        # wrapper bound in their place is the one called
        hopf = self.model.hopf
        return {"D": hopf.cop, "S": hopf.antipode_of, "ln": unital_log,
                "sqrt": unital_sqrt, "inv": unital_inverse}[text](
            self._lift(value, 1)
        )

    def _slot_sum(self, x):
        start, env, total = self.at, self.env, None
        # over no slot, the body is still read once, at slot 0, and kept
        # times 0, so that the empty sum has the rank of its body
        for s in self.slots or [0]:
            self.at, self.env = start, {**env, x: s}
            term = self._sum()
            total = self._add(total, term if s in self.slots else term * 0)
        self.env = env
        self._expect(")")
        return total

    def _symbol(self, head, text):
        # a bound letter or a digit reads its slot; the model refuses any other
        slots = [int(s) - 1 + len(self.fixed) if s.isdigit()
                 else self.fixed.get(s, self.env.get(s, s)) for s in text]
        if len(slots) != (1 if head[0] == "P" else 2):
            raise PresentationError("cannot read %s%s" % (head, text))
        model = self.model
        if head == "g_":
            model._require_slots(*slots)
            a, b = slots
            return Scalar.rational(model.metric.g[a][b], self.trunc)
        return {"M_": model.m, "P_": model.p, "P^": model.p_up}[head](*slots)

    # --- a value is a Scalar, or a TensorElement of some rank ---------------

    def _lift(self, x, rank):
        if isinstance(x, Scalar):
            return TensorElement.one(self.model.pres, rank, self.trunc) * x
        return x

    def _add(self, a, b):
        if a is None:  # before the first term of a sum
            return b
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a + b
        rank = (b if isinstance(a, Scalar) else a).rank
        return self._lift(a, rank) + self._lift(b, rank)


def _printed_zero(read, env):
    # the printed [M_tau_j, M_tau_l] = 0 misses exactly the derived rhs
    derived = read("-i t2 M_jl", env)
    return ((read("[M_τj, M_τl] = 0", env) - derived).is_zero()
            and bool(derived) == (read.model.tau2 != 0),
            "printed 0, derived -i*tau^2*M_%d%d" % (env["j"], env["l"]))


# Each display is a list of (letters, lines) groups that _DisplayReader.run
# checks in order; a misprint is a named deviation next to its printed line.
# The 1+(D-1) decomposition is split around its closed forms, which
# decomposition_display_check checks as code.
_Q_UNIT = ("", [("pi_pi_inv", "Pi Pi_inv = 1"), ("pi_inv_pi", "Pi_inv Pi = 1")])
_DISPLAYS = {
    "orthog_1_plus": [
        ("j", [("comm[M_tau_{j},P_{k}]", "[M_τj, P_k] = i g_jk P_τ"),
               ("comm[M_tau_{j},P_tau]", "[M_τj, P_τ] = -i t2 P_j")]),
        ("j<l", [("comm[M_tau_{j},M_tau_{l}]_derived", "[M_τj, M_τl] = -i t2 M_jl"),
                 ("comm[M_tau_{j},M_tau_{l}]_printed_zero_deviation", _printed_zero)]),
    ],
    "orthog_1_plus after the closed forms": [
        ("", [("casimir_split", "C = P_τ P_τ / t2 + sum_j(P^j P_j)"),
              ("cop[P_tau]_display", "D(P_τ) = P_τ (x) Pi + Pi_inv (x) P_τ"
               " - h t2 sum_j(Pi_inv P^j (x) P_j)")]),
        ("i", [("cop[P_{i}]_display", "D(P_i) = P_i (x) Pi + 1 (x) P_i"),
               ("cop[M_tau_{i}]_display", "D(M_τi) = M_τi (x) 1 + Pi_inv (x) M_τi"
                " + h t2 sum_j(Pi_inv P^j (x) M_ij)")]),
        ("a<b", [("cop[M_{a}{b}]_primitive", "D(M_ab) = M_ab (x) 1 + 1 (x) M_ab")]),
        ("", [("antipode[P_tau]_display",
               "S(P_τ) = -(P_τ + h t2 (C + h/2 P_τ C_tau)) Pi_inv")]),
        ("i", [("antipode[P_{i}]_display", "S(P_i) = -P_i Pi_inv"),
               ("antipode[M_tau_{i}]_display", "S(M_τi) = -M_τi"
                " - h t2 (P^τ M_τi + sum_j(P^j M_ji)) - h h t2/2 C_tau M_τi")]),
        ("", [("antipode_sends_pi_to_pi_inv", "S(Pi) = Pi_inv")]),
    ],
    "null_plane": [
        ("", [("pi_plus_is_affine", "Pi = 1 + h P_+"),
              ("casimir_split", "C = 2 P_+ P_- + sum_a(P^a P_a)"),
              ("ctau_equals_c", "C_tau = C")]),
        ("ab", [("comm[M_+{a},M_-{b}]", "[M_+a, M_-b] = -i (M_ab + g_ab M_+-)"),
                ("comm[M_-{a},P_{b}]", "[M_-a, P_b] = i g_ab P_-")]),
        ("", [("comm[M_+-,P_+]", "[M_+-, P_+] = i P_+"),
              ("comm[M_+-,P_-]", "[M_+-, P_-] = -i P_-")]),
        ("a", [("comm[M_+{a},P_-]", "[M_+a, P_-] = -i P_a"),
               ("comm[M_-{a},P_+]", "[M_-a, P_+] = -i P_a"),
               ("comm[M_+{a},P_+]", "[M_+a, P_+] = 0"),
               ("comm[M_+-,P_{a}]", "[M_+-, P_a] = 0")]),
        ("", [("cop[P_+]_display", "D(P_+) = P_+ (x) Pi + 1 (x) P_+")]),
        ("a", [("cop[P_{a}]_display", "D(P_a) = P_a (x) Pi + 1 (x) P_a")]),
        ("", [("cop[P_-]_display", "D(P_-) = P_- (x) Pi + Pi_inv (x) P_-"
               " - h (P_- + h C/2) Pi_inv (x) P_+ - h sum_a(P^a Pi_inv (x) P_a)"),
              ("cop[M_+-]_display", "D(M_+-) = M_+- (x) 1 + Pi_inv (x) M_+-"
               " - h sum_a(P^a Pi_inv (x) M_+a)")]),
        ("a", [("cop[M_-{a}]_display", "D(M_-a) = M_-a (x) 1 + Pi_inv (x) M_-a"
                " - h (P_- + h C/2) Pi_inv (x) M_+a - h sum_b(P^b Pi_inv (x) M_ba)"),
               ("cop[M_+{a}]_primitive", "D(M_+a) = M_+a (x) 1 + 1 (x) M_+a")]),
        ("", [("antipode[P_+]_display", "S(P_+) = -P_+ Pi_inv")]),
        ("a", [("antipode[P_{a}]_display", "S(P_a) = -P_a Pi_inv")]),
        ("", [("antipode[P_-]_display",
               "S(P_-) = -P_- Pi - h/2 (1 + Pi) sum_a(P^a P_a) Pi_inv"),
              ("antipode[M_+-]_display", "S(M_+-) = -Pi M_+- - h sum_a(P^a M_+a)")]),
        ("a", [("antipode[M_-{a}]_display", "S(M_-a) = -Pi M_-a"
                " - h (P_- + h C/2) M_+a - h sum_b(P^b M_ba)")]),
    ],
    "qanalog_timelike": [
        _Q_UNIT,
        ("i", [("comm[P_{i},Pi]", "[P_i, Pi] = 0"),
               ("comm[M_tau_{i},Pi]_derived", "[M_τi, Pi] = -i h t2 P_i"),
               # printed without its tau^2
               ("comm[M_tau_{i},Pi]_printed_deviation",
                "-i h P_i - [M_τi, Pi] = i h (t2 - 1) P_i"),
               ("comm[M_tau_{i},Pi_inv]_derived",
                "[M_τi, Pi_inv] = i h t2 Pi_inv Pi_inv P_i"),
               ("comm[M_tau_{i},P_{j}]_display", "[M_τi, P_j]"
                " = i g_ij k/2 (Pi - Pi_inv - h h t2 Pi_inv sum_m(P^m P_m))")]),
        ("a<b", [("comm[M_{a}{b},Pi]", "[M_ab, Pi] = 0")]),
        ("i", [("cop[P_{i}]_display", "D(P_i) = P_i (x) Pi + 1 (x) P_i"),
               ("cop[M_tau_{i}]_display", "D(M_τi) = M_τi (x) 1 + Pi_inv (x) M_τi"
                " + h t2 sum_j(P^j Pi_inv (x) M_ij)")]),
        ("i", [("antipode[M_tau_{i}]_polynomial_form",
                "S(M_τi) = -Pi M_τi - h t2 sum_m(P^m M_mi)"),
               # printed with tau^2/2 for 1/2 and 1/kappa^2 for tau^2/kappa^2
               ("antipode[M_tau_{i}]_printed_deviation",
                "-M_τi - t2/2 (Pi - Pi_inv - h h Pi_inv sum_m(P^m P_m)) M_τi"
                " - h t2 sum_m(P^m M_mi) - h h t2/2 C_tau M_τi - S(M_τi)"
                " = (1 - t2)/2 (Pi - Pi_inv) M_τi")]),
        ("i", [("comm[M_tau_{i},P_tau_expr]", "[M_τi, P_τ] = -i t2 P_i"),
               ("comm[P_{i},P_tau_expr]", "[P_i, P_τ] = 0")]),
    ],
    "qanalog_lightlike": [
        _Q_UNIT,
        ("", [("comm[M_+-,Pi_+]", "[M_+-, Pi] = i (Pi - 1)"),
              ("comm[M_+-,Pi_+_inv]", "[M_+-, Pi_inv] = i (Pi_inv Pi_inv - Pi_inv)")]),
        ("a", [("comm[M_-{a},Pi_+]", "[M_-a, Pi] = -i h P_a"),
               ("comm[M_-{a},Pi_+_inv]", "[M_-a, Pi_inv] = i h Pi_inv Pi_inv P_a"),
               ("comm[M_+{a},P_{b}]_display", "[M_+a, P_b] = i g_ab k (Pi - 1)"),
               ("comm[M_+{a},P_-]", "[M_+a, P_-] = -i P_a")]),
        ("", [("comm[M_+-,P_plus_expr]", "[M_+-, P_+] = i P_+")]),
        ("a", [("comm[M_-{a},P_plus_expr]", "[M_-a, P_+] = -i P_a")]),
        ("", [("casimir_via_p_plus", "C = 2 P_+ P_- + sum_a(P^a P_a)")]),
    ],
}


def decomposition_display_check(model):
    """The 1+(D-1) decomposed formulas against the covariant construction.

    Covers the algebra table in the adapted basis, the closed forms of
    Pi_inv, C_tau and P_tau, the split Casimir, the decomposed
    coproducts/antipodes, and the one known deviation: the printed
    [M_tau_j, M_tau_l] = 0 line, whose right side actually carries
    -i tau^2 M_jl (required by the Jacobi identity).
    """
    if model.flavor != "orthog_1_plus":
        raise PresentationError("decomposition_display_check needs orthog_1_plus")
    rep = Report("decomposed displays", {"tau2": str(model.tau2)})
    read = _DisplayReader(model)
    read.run(rep, _DISPLAYS["orthog_1_plus"])

    # the closed forms, at a bumped h-order so that no division by kappa
    # loses a term of the working truncation
    pres, bump = model.pres, (model.trunc[0] + 2, model.trunc[1])
    atoms = _covariant_atoms(model, bump)
    pi, piv, p_tau = atoms["Pi"], atoms["PiInv"], atoms["P_tau"]
    one = TensorElement.one(pres, 1, bump)
    # tau^2 P^m P_m/kappa^2 over the slots orthogonal to tau
    pp = _quadratic(
        TensorElement.zero(pres, 1, bump), model.metric.inverse(),
        lambda m: TensorElement.gen(pres, model.p_index[m], bump),
        range(1, model.metric.dim),
    ) * Scalar.monomial(gr(model.tau2), 2, 0, bump)
    p_form, c_form = _grouplike_forms(pi, piv, pp, model.tau2)
    for name, got, want in (
        # Pi_inv = (sqrt - P_tau/kappa) / (1 + tau^2 P^m P_m/kappa^2), where
        # sqrt = Pi - P_tau/kappa
        ("pi_inv_closed_form",
         (pi - p_tau * Scalar.h(1, bump) * 2) * unital_inverse(one + pp),
         model.cas.PiInv),
        ("casimir_ctau_grouplike_form", c_form, model.cas.C_tau),
        ("p_tau_reconstruction", p_form, p_tau),
    ):
        rep.zero(name, got.retrunc(model.trunc) - want.retrunc(model.trunc))

    read.run(rep, _DISPLAYS["orthog_1_plus after the closed forms"])
    return rep


def nullplane_display_check(model):
    """Light-cone formulas against the covariant construction."""
    if model.flavor != "null_plane":
        raise PresentationError("nullplane_display_check needs null_plane")
    rep = Report("null-plane displays", {"dim": model.metric.dim})
    _DisplayReader(model).run(rep, _DISPLAYS["null_plane"])
    return rep


def q_display_check(model):
    """Printed q-analog formulas against the stored presentation.

    The stored coproducts and antipodes come from the covariant formula set
    that builds every flavor (``_hopf_tables``), so the printed q forms are
    checked against that engine, not against tables written in their own
    shape.  For the tau^2 != 0 flavor this includes the two known display
    deviations, recorded with their exact differences: the [M_tau_i, Pi]
    line printed without its tau^2 factor, and the antipode of M_tau_i
    whose printed bracket carries tau^2/2 (for 1/2) and 1/kappa^2 (for
    tau^2/kappa^2).  Both printed forms agree with the derived ones exactly
    when tau^2 = 1; the checks pin the deviation at general tau^2.  The
    tau^2 = 0 table is typo-free: its rows that mix generators with the
    group-likes are spot-checked.
    """
    if not model.flavor.startswith("qanalog"):
        raise PresentationError("q_display_check needs a q-analog flavor")
    rep = Report("q-analog displays", {"flavor": model.flavor})
    _DisplayReader(model).run(rep, _DISPLAYS[model.flavor])
    return rep


def _subst(tens, images, pres_h, trunc):
    """Each letter of each leg of ``tens`` replaced by its image; each word's
    image is built once per call, through ``word_image``."""
    cache = {EMPTY_WORD: TensorElement.one(pres_h, 1, trunc)}

    def image(word):
        return word_image(cache, word, image, lambda head, g: head * images[g])

    out = TensorElement.zero(pres_h, tens.rank, trunc)
    for key, c in tens.by_legs().items():
        out = out + TensorElement.from_legs(*map(image, key)) * c
    return out


def _hopf_map_check(rep, tag, src, dst, images):
    """Checks, named with ``tag``, that phi: g_i -> images[i] carries the
    Delta, S and epsilon of ``src`` on each generator to those of ``dst``."""
    for i, gen in enumerate(src.pres.generators):
        phi_g = images[i]
        got = _subst(src.coproduct[i], images, dst.pres, dst.trunc)
        rep.zero("cop_%s[%s]" % (tag, gen.label), got - dst.cop(phi_g))
        got = _subst(src.antipode[i], images, dst.pres, dst.trunc)
        rep.zero(
            "antipode_%s[%s]" % (tag, gen.label), got - dst.antipode_of(phi_g)
        )
        rep.zero(
            "counit_%s[%s]" % (tag, gen.label),
            dst.counit_of(phi_g) - src.counit[i],
        )


def q_hadic_correspondence_check(q_model, trunc=(3, 3)):
    """The q-analog maps onto the matching h-adic flavor.

    Send Pi^{+-1} to the h-adic series and every other generator to its
    namesake; coproducts, antipodes and counits must agree at the working
    truncation.
    """
    if q_model.flavor == "qanalog_timelike":
        h_flavor = "orthog_1_plus"
    elif q_model.flavor == "qanalog_lightlike":
        h_flavor = "null_plane"
    else:
        raise PresentationError("needs a q-analog model")
    h_model = Model(
        ModelConfig(q_model.config.metric, q_model.config.tau, h_flavor, trunc)
    )
    pi, piv = q_model.grouplike
    images = {pi: h_model.cas.Pi, piv: h_model.cas.PiInv}
    for i, gen in enumerate(q_model.pres.generators):
        if i in images:
            continue
        images[i] = h_model.gen(gen.label)

    rep = Report(
        "q-analog vs h-adic correspondence",
        {"flavor": q_model.flavor, "trunc": str(trunc)},
    )
    _hopf_map_check(rep, "corr", q_model.hopf, h_model.hopf, images)
    return rep


def casimir_check(model):
    """Centrality of C and C_tau plus the relation tying them together."""
    rep = Report(
        "casimir elements", {"flavor": model.flavor, "tau2": str(model.tau2)}
    )
    cas = model.cas
    one = TensorElement.one(model.pres, 1, model.trunc)
    for i, gen in enumerate(model.pres.generators):
        el = TensorElement.gen(model.pres, i, model.trunc)
        rep.zero("central[C,%s]" % gen.label, cas.C.commutator(el))
        rep.zero("central[C_tau,%s]" % gen.label, cas.C_tau.commutator(el))
    rep.zero("pi_times_pi_inv", cas.Pi * cas.PiInv - one)
    rep.zero("pi_inv_times_pi", cas.PiInv * cas.Pi - one)
    rhs = cas.C_tau * (
        one + cas.C_tau * Scalar.monomial(gr(model.tau2 * Fraction(1, 4)), 2, 0, model.trunc)
    )
    rep.zero("c_from_c_tau", cas.C - rhs)
    return rep


def hopf_axiom_check(model, degree2=True):
    """verify_axioms wrapped with the model header."""
    rep = Report(
        "hopf axioms",
        {"flavor": model.flavor, "trunc": str(model.trunc)},
    )
    rep.extend(verify_axioms(model.hopf, degree2=degree2))
    return rep


def reality_check(model):
    """(RC2) plus the squared-antipode conjugation identity."""
    dim = model.metric.dim
    conj = (model.pi_power(dim - 1), model.pi_power(1 - dim))
    rep = Report(
        "reality conditions",
        {"flavor": model.flavor, "dim": dim},
    )
    rep.extend(verify_reality(model.hopf, conj))
    return rep


def classical_hopf_check(model):
    """kappa -> infinity: primitive coproducts, S = -id, eps = 0."""
    rep = Report("classical limit", {"flavor": model.flavor})
    pres = model.pres
    strip = set(model.grouplike)
    one = TensorElement.one(pres, 1, model.trunc)
    for i, gen in enumerate(pres.generators):
        el = TensorElement.gen(pres, i, model.trunc)
        if i in strip:
            lim = model.classical_limit(model.hopf.coproduct[i])
            rep.zero(
                "limit_cop[%s]_is_unit" % gen.label,
                lim - TensorElement.one(pres, 2, model.trunc),
            )
            rep.zero(
                "limit_antipode[%s]_is_unit" % gen.label,
                model.classical_limit(model.hopf.antipode[i]) - one,
            )
            continue
        lim = model.classical_limit(model.hopf.coproduct[i])
        prim = TensorElement.from_legs(el, one) + TensorElement.from_legs(one, el)
        rep.zero("limit_cop[%s]_primitive" % gen.label, lim - prim)
        lim = model.classical_limit(model.hopf.antipode[i])
        rep.zero("limit_antipode[%s]_negation" % gen.label, lim + el)
    return rep


# --- rescaling / specialization -------------------------------------------------


def _grading_offsets(model, degree):
    """Iterate (name, key, scalar, offset) over every entry of the stored
    tables: every commutator and product rule, then the coproduct, antipode
    and counit of each generator together.  This is the one walk of a
    model's rule and Hopf tables.

    ``degree[i]`` grades generator i; the offset of an entry is the degree
    of its word, or of all words of its tensor key, minus that of its lhs.
    A counit entry has key None and offset -degree[i].  Under the momentum
    count, the rescaling isomorphism P -> P/kappa removes every power of h
    exactly when each coefficient monomial sits at its offset.
    """
    pres = model.pres
    hopf = model.hopf

    def deg(words):
        return sum(degree[i] for w in words for i in w)

    for what, rules in (("comm", pres.comm_rules),
                        ("product", pres.product_rules)):
        for (i, j), terms in rules.items():
            name = "%s[%s,%s]" % (what, pres.label(i), pres.label(j))
            for word, c in terms.items():
                yield name, word, c, deg((word,)) - degree[i] - degree[j]
    for i in range(len(pres.generators)):
        lab = pres.label(i)
        for what, tens in (("cop", hopf.coproduct[i]),
                           ("antipode", hopf.antipode[i])):
            for key, c in tens.by_legs().items():
                yield "%s[%s]" % (what, lab), key, c, deg(key) - degree[i]
        yield "counit[%s]" % lab, None, hopf.counit[i], -degree[i]


def _slot_exponents(model):
    """Scaling degree of each generator under tau -> lambda*tau.

    In the adapted bases the first slot follows tau (degree +1); for a null
    pair the partner slot scales oppositely (degree -1); everything else is
    untouched.  The covariant flavor keeps its basis, so all degrees are 0.
    A generator's degree is the sum over its slots.
    """
    lead = {"orthog_1_plus": (1,), "null_plane": (1, -1)}.get(model.flavor, ())
    ex = lead + (0,) * model.metric.dim
    e = {i: 0 for i in range(len(model.pres.generators))}
    for slot, idx in model.p_index.items():
        e[idx] = ex[slot]
    for (a, b), idx in model.m_index.items():
        e[idx] = ex[a] + ex[b]
    return e


def rescaling_isomorphism_check(model, lam=2):
    """Certifies U_{kappa,tau} ~= U_{lambda kappa, lambda tau}.

    Two independent certificates: (a) the grading identity, every stored
    coefficient monomial has h-degree equal to the momentum-count offset of
    its word, so P -> P/kappa clears h from all structure data; (b) direct
    comparison, for h-adic flavors against a freshly built (lambda tau)
    model, whose entries differ from the original by lambda^(deg_h + slot
    degree offset), and for q-analogs by specializing h = 1/kappa_0 at
    kappa_0 = 1, 2, 10 and normalizing with the momentum rescale.
    """
    lam = _fractions([lam], 1)[0]
    if lam == 0:
        raise PresentationError("rescaling needs lambda != 0")
    rep = Report(
        "rescaling isomorphism",
        {"flavor": model.flavor, "lambda": str(lam)},
    )

    momenta = [gen.weight for gen in model.pres.generators]
    entries = list(_grading_offsets(model, momenta))
    bad = []
    for name, _key, scalar, offset in entries:
        for (dh, dxi), _v in scalar.terms.items():
            if dxi != 0 or dh != offset:
                bad.append("%s@(%d,%d)!=%d" % (name, dh, dxi, offset))
    rep.add(
        "grading_certificate",
        not bad,
        "" if not bad else "; ".join(bad[:6]),
    )

    if model.flavor.startswith("qanalog"):
        base = None
        for k0 in (1, 2, 10):
            k0 = Fraction(k0)
            tables = {
                (name, key): c.specialize(1 / k0) * (k0 ** offset)
                for name, key, c, offset in entries
            }
            if base is None:
                base = tables
            else:
                rep.add("specialize[kappa=%s]" % k0, tables == base)
    else:
        scaled_cfg = ModelConfig(
            model.config.metric,
            tuple(lam * x for x in model.config.tau),
            model.flavor,
            model.trunc,
        )
        other = Model(scaled_cfg)
        e = _slot_exponents(model)

        def tables(m, coeff):
            out = {}
            for name, key, c, offset in _grading_offsets(m, e):
                if key is not None:  # the counits are not compared
                    out.setdefault(name, {})[key] = coeff(c, offset)
            return out

        mine = tables(model, lambda c, offset: Scalar(
            {k: v * (lam ** (k[0] - offset)) for k, v in c.terms.items()},
            c.trunc,
        ))
        theirs = tables(other, lambda c, offset: c)
        for name, got in mine.items():
            rep.add("scaled_" + name, got == theirs.get(name))
    return rep


def hopf_covariance_check(model, rows):
    """Basis covariance of the whole covariant-flavor Hopf structure.

    phi maps the tilde-basis generators (built on the transformed metric
    and tau) to the matching linear combinations of the original ones; it
    must intertwine coproducts and antipodes and fix Pi, Pi_inv, C, C_tau.
    """
    if model.flavor != "covariant_hadic":
        raise PresentationError("hopf_covariance_check needs covariant_hadic")
    metric = model.metric
    dim = metric.dim
    rows, metric_t = basis_metric(metric, rows)
    tau_t = metric_t.raise_index([metric.pair(row, model.tau) for row in rows])
    other = Model(
        ModelConfig(metric_t, tau_t, "covariant_hadic", model.trunc)
    )
    trunc = model.trunc
    pt, mt = _basis_images(
        model.p, model.m, rows, TensorElement.zero(model.pres, 1, trunc)
    )
    images = {other.p_index[a]: x for a, x in enumerate(pt)}
    images.update((other.m_index[ab], x) for ab, x in mt.items())

    rep = Report(
        "hopf covariance under basis change",
        {"dim": dim, "trunc": str(trunc)},
    )
    _hopf_map_check(rep, "cov", other.hopf, model.hopf, images)
    for attr in ("C", "C_tau", "Pi", "PiInv"):
        got = _subst(
            getattr(other.cas, attr), images, model.pres, trunc
        )
        rep.zero("invariant[%s]" % attr, got - getattr(model.cas, attr))
    return rep


def h_polynomial_check(model):
    """The q-analog stores finitely many terms over Q(i)[h, 1/h], with all
    coalgebra maps polynomial in h; together with the grading certificate
    this justifies specializing kappa to a number."""
    if not model.flavor.startswith("qanalog"):
        raise PresentationError("h_polynomial_check needs a q-analog flavor")
    rep = Report("h-polynomiality", {"flavor": model.flavor})
    no_xi = True
    min_rule = 0
    ok = True
    momenta = [gen.weight for gen in model.pres.generators]
    for name, _key, c, _offset in _grading_offsets(model, momenta):
        if name.startswith(("comm[", "product[")):
            no_xi = no_xi and all(k[1] == 0 for k in c.terms)
            min_rule = min(min_rule, c.min_h_degree())
        elif c.min_h_degree() < 0 or any(k[1] != 0 for k in c.terms):
            ok = False
    rep.add("rules_laurent_in_h", no_xi, "min h-degree %d" % min_rule)
    rep.add("coalgebra_maps_h_polynomial", ok)
    return rep
