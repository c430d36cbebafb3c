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
Pi Pi_inv = Pi_inv Pi = 1 is written by hand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .errors import ClassicalLimitError, PresentationError
from .hopf import HopfData, otimes, verify_axioms, verify_reality
from .metric import adapted_basis, as_metric, as_tau, basis_metric
from .ncalg import (
    EMPTY_WORD, Presentation, TensorElement, accumulate, word_image,
)
from .report import Report
from .scalar import ONE, Scalar, gr
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
    return {w: c for (w,), c in elt.terms.items()}


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
    return rhs * Scalar.i()


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
        C_tau = (s - one).map_scalars(lambda sc: sc.shift(-2)) * (
            Fraction(2) / t2
        )
    else:
        C_tau = C
    klog = unital_log(Pi).map_scalars(lambda sc: sc.shift(-1))

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
    group-like with counit 1.  A coefficient equal to the exact 1 is stored
    as the shared ``ONE``, so that products by it stay short-circuited.
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

    def unit(c):
        return ONE if c == ONE else c

    return (
        {i: d.map_scalars(unit) for i, d in cop.items()},
        {i: s.map_scalars(unit) for i, s in antip.items()},
        counit,
    )


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


def _build_q_timelike(model):
    _q_skeleton(model, _orthog_labels, "Pi", 0)
    pres, dim, t2 = model.pres, model.metric.dim, model.tau2
    pi, piv = (TensorElement.gen(pres, i) for i in model.grouplike)
    pp = _momentum_square(model, 1) * Scalar.monomial(gr(t2), 2, 0)
    # P_tau = (kappa/2)(Pi - Pi_inv(1 + tau^2 P^m P_m/kappa^2)) and
    # C_tau = (kappa^2/tau^2)(Pi + Pi_inv - 2 + tau^2 Pi_inv P^m P_m/kappa^2)
    model.p_tau_expr = (pi - piv - piv * pp) * Scalar.monomial(
        gr(_HALF), -1, 0
    )
    c_tau = (pi + piv - TensorElement.one(pres, 1) * 2 + piv * pp) * (
        Scalar.monomial(gr(Fraction(1) / t2), -2, 0)
    )
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
        if self.grouplike:
            pi, piv = self.grouplike
            idx = pi if k >= 0 else piv
            return TensorElement(
                self.pres, 1, {((idx,) * abs(k),): Scalar.one()}, self.trunc
            )
        return unital_power(self.cas.Pi, k)

    # --- classical limit ---------------------------------------------------

    def classical_limit(self, obj):
        """kappa -> infinity: group-likes become 1, h-terms drop.

        Raises ClassicalLimitError when a negative power of h survives the
        substitution (nothing in the catalog does).
        """
        strip = set(self.grouplike)

        def drop(word):
            return tuple(x for x in word if x not in strip)

        out = accumulate({}, (
            (tuple(map(drop, key)), c) for key, c in obj.terms.items()
        ))
        cleaned = {}
        for key, c in out.items():
            if c.has_negative_h():
                raise ClassicalLimitError(
                    "negative h power survives at %r" % (key,)
                )
            c0 = c.h_zero_part()
            if c0:
                cleaned[key] = c0
        return TensorElement(self.pres, obj.rank, cleaned, obj.trunc)


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
            rep.zero("confluence[%s]" % pres._word_str(t),
                     TensorElement.from_words(pres, residual))
    else:
        rep.add("confluence", True)
    return rep


def decomposition_display_check(model):
    """The 1+(D-1) decomposed formulas against the covariant construction.

    Covers the algebra table in the adapted basis, the closed form of
    Pi_inv, the split Casimir, the P_tau reconstruction, the decomposed
    coproducts/antipodes, and the one known deviation: the printed
    [M_tau_j, M_tau_l] = 0 line, whose right side actually carries
    -i tau^2 M_jl (required by the Jacobi identity).
    """
    if model.flavor != "orthog_1_plus":
        raise PresentationError("decomposition_display_check needs orthog_1_plus")
    rep = Report("decomposed displays", {"tau2": str(model.tau2)})
    dim = model.metric.dim
    t2 = model.tau2
    g = model.metric.g
    nh, nxi = model.trunc
    I = Scalar.i(model.trunc)
    one = TensorElement.one(model.pres, 1, model.trunc)
    cas = model.cas

    p_tau = model.p(0)
    pp = _momentum_square(model, 1)

    # algebra sector in the adapted basis
    for j in range(1, dim):
        for k in range(1, dim):
            got = model.m(0, j).commutator(model.p(k))
            rep.zero("comm[M_tau_%d,P_%d]" % (j, k), got - p_tau * (I * g[j][k]))
        rep.zero(
            "comm[M_tau_%d,P_tau]" % j,
            model.m(0, j).commutator(p_tau) + model.p(j) * (I * t2),
        )
    for j in range(1, dim):
        for l in range(j + 1, dim):
            got = model.m(0, j).commutator(model.m(0, l))
            derived = -model.m(j, l) * (I * t2)
            rep.zero("comm[M_tau_%d,M_tau_%d]_derived" % (j, l), got - derived)
            # the printed table shows 0 here; record the exact deviation
            rep.add(
                "comm[M_tau_%d,M_tau_%d]_printed_zero_deviation" % (j, l),
                (got - derived).is_zero() and bool(derived) == (t2 != 0),
                "printed 0, derived -i*tau^2*M_%d%d" % (j, l),
            )

    # closed form of Pi_inv: (sqrt - P_tau/kappa) / (1 + tau^2 P^m P_m/kappa^2)
    bump = (nh + 2, nxi)
    atoms = _covariant_atoms(model, bump)
    sqrt_el = atoms["Pi"] - atoms["P_tau"] * Scalar.h(1, bump)
    pp_b = _quadratic(
        TensorElement.zero(model.pres, 1, bump),
        model.metric.inverse(),
        lambda m: TensorElement.gen(model.pres, model.p_index[m], bump),
        range(1, dim),
    )
    denom = TensorElement.one(model.pres, 1, bump) + pp_b * Scalar.monomial(
        gr(t2), 2, 0, bump
    )
    closed = (sqrt_el - atoms["P_tau"] * Scalar.h(1, bump)) * unital_inverse(denom)
    rep.zero("pi_inv_closed_form", closed.retrunc(model.trunc) - cas.PiInv)

    # C_tau = (kappa^2/tau^2)(Pi + Pi_inv - 2 + tau^2 P^m P_m Pi_inv/kappa^2)
    comb = (
        atoms["Pi"]
        + atoms["PiInv"]
        - TensorElement.one(model.pres, 1, bump) * 2
        + pp_b * atoms["PiInv"] * Scalar.monomial(gr(t2), 2, 0, bump)
    )
    ct = comb.map_scalars(lambda sc: sc.shift(-2)) * (Fraction(1) / t2)
    rep.zero("casimir_ctau_grouplike_form", ct.retrunc(model.trunc) - cas.C_tau)

    # (P_tau, Pi, Pi_inv) are not independent:
    # P_tau = (kappa/2)(Pi - Pi_inv(1 + tau^2 P^m P_m/kappa^2))
    recon = atoms["Pi"] - atoms["PiInv"] * (
        TensorElement.one(model.pres, 1, bump)
        + pp_b * Scalar.monomial(gr(t2), 2, 0, bump)
    )
    recon = recon.map_scalars(lambda sc: sc.shift(-1)) * _HALF
    rep.zero("p_tau_reconstruction", recon.retrunc(model.trunc) - atoms["P_tau"].retrunc(model.trunc))

    # split Casimir: C = P_tau^2/tau^2 + g^{ij} P_i P_j
    rep.zero("casimir_split", p_tau * p_tau * (Fraction(1) / t2) + pp - cas.C)

    # coproducts

    h1 = Scalar.h(1, model.trunc)
    disp = otimes(p_tau, cas.Pi) + otimes(cas.PiInv, p_tau)
    for j in range(1, dim):
        disp = disp - otimes(cas.PiInv * model.p_up(j), model.p(j)) * (h1 * t2)
    rep.zero("cop[P_tau]_display", disp - model.hopf.coproduct[model.p_index[0]])
    for i in range(1, dim):
        disp = otimes(model.p(i), cas.Pi) + otimes(one, model.p(i))
        rep.zero(
            "cop[P_%d]_display" % i,
            disp - model.hopf.coproduct[model.p_index[i]],
        )
        disp = otimes(model.m(0, i), one) + otimes(cas.PiInv, model.m(0, i))
        for j in range(1, dim):
            disp = disp + otimes(cas.PiInv * model.p_up(j), model.m(i, j)) * (
                h1 * t2
            )
        rep.zero(
            "cop[M_tau_%d]_display" % i,
            disp - model.hopf.coproduct[model.m_index[(0, i)]],
        )
    for (a, b) in sorted(model.m_index):
        if a == 0:
            continue
        mel = model.m(a, b)
        disp = otimes(mel, one) + otimes(one, mel)
        rep.zero(
            "cop[M_%d%d]_primitive" % (a, b),
            disp - model.hopf.coproduct[model.m_index[(a, b)]],
        )

    # antipodes
    half_h1 = Scalar.monomial(gr(_HALF), 1, 0, model.trunc)
    disp = -(
        p_tau + (cas.C + p_tau * cas.C_tau * half_h1) * (h1 * t2)
    ) * cas.PiInv
    rep.zero("antipode[P_tau]_display", disp - model.hopf.antipode[model.p_index[0]])
    for i in range(1, dim):
        rep.zero(
            "antipode[P_%d]_display" % i,
            -(model.p(i) * cas.PiInv) - model.hopf.antipode[model.p_index[i]],
        )
        disp = -model.m(0, i)
        for al in range(dim):
            disp = disp - model.p_up(al) * model.m(al, i) * (h1 * t2)
        disp = disp - cas.C_tau * model.m(0, i) * Scalar.monomial(
            gr(t2 * _HALF), 2, 0, model.trunc
        )
        rep.zero(
            "antipode[M_tau_%d]_display" % i,
            disp - model.hopf.antipode[model.m_index[(0, i)]],
        )
    rep.zero(
        "antipode_sends_pi_to_pi_inv",
        model.hopf.antipode_of(cas.Pi) - cas.PiInv,
    )
    return rep


def nullplane_display_check(model):
    """Light-cone formulas against the covariant construction."""
    if model.flavor != "null_plane":
        raise PresentationError("nullplane_display_check needs null_plane")
    rep = Report("null-plane displays", {"dim": model.metric.dim})
    dim = model.metric.dim
    g = model.metric.g
    cas = model.cas
    I = Scalar.i(model.trunc)
    h1 = Scalar.h(1, model.trunc)
    one = TensorElement.one(model.pres, 1, model.trunc)
    p_p, p_m = model.p(0), model.p(1)

    rep.zero("pi_plus_is_affine", cas.Pi - (one + p_p * h1))
    pp = _momentum_square(model, 2)
    rep.zero("casimir_split", p_p * p_m * 2 + pp - cas.C)
    rep.zero("ctau_equals_c", cas.C_tau - cas.C)

    # algebra table
    for a in range(2, dim):
        for b in range(2, dim):
            got = model.m(0, a).commutator(model.m(1, b))
            want = -(model.m(a, b) + model.m(0, 1) * g[a][b]) * I
            rep.zero("comm[M_+%d,M_-%d]" % (a - 1, b - 1), got - want)
            rep.zero(
                "comm[M_-%d,P_%d]" % (a - 1, b - 1),
                model.m(1, a).commutator(model.p(b)) - p_m * (I * g[a][b]),
            )
    rep.zero("comm[M_+-,P_+]", model.m(0, 1).commutator(p_p) - p_p * I)
    rep.zero("comm[M_+-,P_-]", model.m(0, 1).commutator(p_m) + p_m * I)
    for a in range(2, dim):
        rep.zero(
            "comm[M_+%d,P_-]" % (a - 1),
            model.m(0, a).commutator(p_m) + model.p(a) * I,
        )
        rep.zero(
            "comm[M_-%d,P_+]" % (a - 1),
            model.m(1, a).commutator(p_p) + model.p(a) * I,
        )
        rep.zero("comm[M_+%d,P_+]" % (a - 1), model.m(0, a).commutator(p_p))
        rep.zero(
            "comm[M_+-,P_%d]" % (a - 1),
            model.m(0, 1).commutator(model.p(a)),
        )


    # coproducts
    for slot in [0] + list(range(2, dim)):
        disp = otimes(model.p(slot), cas.Pi) + otimes(one, model.p(slot))
        rep.zero(
            "cop[%s]_display" % model.pres.label(model.p_index[slot]),
            disp - model.hopf.coproduct[model.p_index[slot]],
        )
    pmc = p_m + cas.C * Scalar.monomial(gr(_HALF), 1, 0, model.trunc)
    disp = (
        otimes(p_m, cas.Pi)
        + otimes(cas.PiInv, p_m)
        - otimes(pmc * cas.PiInv, p_p) * h1
    )
    for a in range(2, dim):
        disp = disp - otimes(model.p_up(a) * cas.PiInv, model.p(a)) * h1
    rep.zero("cop[P_-]_display", disp - model.hopf.coproduct[model.p_index[1]])
    disp = otimes(model.m(0, 1), one) + otimes(cas.PiInv, model.m(0, 1))
    for a in range(2, dim):
        disp = disp - otimes(model.p_up(a) * cas.PiInv, model.m(0, a)) * h1
    rep.zero(
        "cop[M_+-]_display", disp - model.hopf.coproduct[model.m_index[(0, 1)]]
    )
    for a in range(2, dim):
        disp = (
            otimes(model.m(1, a), one)
            + otimes(cas.PiInv, model.m(1, a))
            - otimes(pmc * cas.PiInv, model.m(0, a)) * h1
        )
        for b in range(2, dim):
            disp = disp - otimes(model.p_up(b) * cas.PiInv, model.m(b, a)) * h1
        rep.zero(
            "cop[M_-%d]_display" % (a - 1),
            disp - model.hopf.coproduct[model.m_index[(1, a)]],
        )
        disp = otimes(model.m(0, a), one) + otimes(one, model.m(0, a))
        rep.zero(
            "cop[M_+%d]_primitive" % (a - 1),
            disp - model.hopf.coproduct[model.m_index[(0, a)]],
        )

    # antipodes
    for slot in [0] + list(range(2, dim)):
        rep.zero(
            "antipode[%s]_display" % model.pres.label(model.p_index[slot]),
            -(model.p(slot) * cas.PiInv)
            - model.hopf.antipode[model.p_index[slot]],
        )
    disp = -(p_m * cas.Pi) - (one + cas.Pi) * pp * cas.PiInv * Scalar.monomial(
        gr(_HALF), 1, 0, model.trunc
    )
    rep.zero("antipode[P_-]_display", disp - model.hopf.antipode[model.p_index[1]])
    disp = -(cas.Pi * model.m(0, 1))
    for a in range(2, dim):
        disp = disp - model.p_up(a) * model.m(0, a) * h1
    rep.zero(
        "antipode[M_+-]_display",
        disp - model.hopf.antipode[model.m_index[(0, 1)]],
    )
    for a in range(2, dim):
        disp = -(cas.Pi * model.m(1, a)) - pmc * model.m(0, a) * h1
        for b in range(2, dim):
            disp = disp - model.p_up(b) * model.m(b, a) * h1
        rep.zero(
            "antipode[M_-%d]_display" % (a - 1),
            disp - model.hopf.antipode[model.m_index[(1, a)]],
        )
    return rep


def _subst(tens, images, pres_h, trunc):
    """Each letter of each leg of ``tens`` replaced by its image; each word's
    image is built once per call, through ``word_image``."""
    cache = {EMPTY_WORD: TensorElement.one(pres_h, 1, trunc)}

    def image(word):
        return word_image(cache, word, image, lambda head, g: head * images[g])

    out = TensorElement.zero(pres_h, tens.rank, trunc)
    for key, c in tens.terms.items():
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
    when tau^2 = 1; the checks pin the deviation at general tau^2.
    """
    if not model.flavor.startswith("qanalog"):
        raise PresentationError("q_display_check needs a q-analog flavor")
    rep = Report("q-analog displays", {"flavor": model.flavor})
    pres = model.pres
    dim = model.metric.dim
    g = model.metric.g
    pi, piv = model.grouplike
    el_pi = model.pi_power(1)
    el_piv = model.pi_power(-1)
    one = TensorElement.one(pres, 1)
    I = Scalar.i()
    # P^m P_m over the slots g-orthogonal to tau (and to its null partner)
    timelike = model.flavor == "qanalog_timelike"
    pp = _momentum_square(model, 1 if timelike else 2)

    rep.zero("pi_pi_inv", el_pi * el_piv - one)
    rep.zero("pi_inv_pi", el_piv * el_pi - one)

    if timelike:
        t2 = model.tau2
        for i in range(1, dim):
            rep.zero("comm[P_%d,Pi]" % i, model.p(i).commutator(el_pi))
            mt = model.m(0, i)
            derived = -model.p(i) * Scalar.monomial(gr(0, t2), 1, 0)
            rep.zero("comm[M_tau_%d,Pi]_derived" % i, mt.commutator(el_pi) - derived)
            printed = -model.p(i) * Scalar.monomial(gr(0, 1), 1, 0)
            rep.zero(
                "comm[M_tau_%d,Pi]_printed_deviation" % i,
                (printed - derived)
                - model.p(i) * Scalar.monomial(gr(0, t2 - 1), 1, 0),
            )
            derived = (el_piv * el_piv * model.p(i)) * Scalar.monomial(
                gr(0, t2), 1, 0
            )
            rep.zero(
                "comm[M_tau_%d,Pi_inv]_derived" % i,
                mt.commutator(el_piv) - derived,
            )
            # (q2)
            bracket = el_pi - el_piv - el_piv * pp * Scalar.monomial(gr(t2), 2, 0)
            for j in range(1, dim):
                want = bracket * Scalar.monomial(gr(0, _HALF * g[i][j]), -1, 0)
                rep.zero(
                    "comm[M_tau_%d,P_%d]_display" % (i, j),
                    mt.commutator(model.p(j)) - want,
                )
        for (a, b) in sorted(model.m_index):
            if a == 0:
                continue
            rep.zero(
                "comm[M_%d%d,Pi]" % (a, b),
                model.m(a, b).commutator(el_pi),
            )
        # coproduct displays

        for i in range(1, dim):
            disp = otimes(model.p(i), el_pi) + otimes(one, model.p(i))
            rep.zero(
                "cop[P_%d]_display" % i,
                disp - model.hopf.coproduct[model.p_index[i]],
            )
            disp = otimes(model.m(0, i), one) + otimes(el_piv, model.m(0, i))
            for j in range(1, dim):
                disp = disp + otimes(
                    model.p_up(j) * el_piv, model.m(i, j)
                ) * Scalar.monomial(gr(t2), 1, 0)
            rep.zero(
                "cop[M_tau_%d]_display" % i,
                disp - model.hopf.coproduct[model.m_index[(0, i)]],
            )
        # antipode: collapsed polynomial form and the printed deviation
        for i in range(1, dim):
            mt = model.m(0, i)
            collapsed = -(el_pi * mt)
            for k in range(1, dim):
                collapsed = collapsed - model.p_up(k) * model.m(k, i) * (
                    Scalar.monomial(gr(t2), 1, 0)
                )
            engine = model.hopf.antipode[model.m_index[(0, i)]]
            rep.zero("antipode[M_tau_%d]_polynomial_form" % i, engine - collapsed)
            bracket_printed = (
                el_pi - el_piv - el_piv * pp * Scalar.monomial(gr(1), 2, 0)
            )
            printed = -mt - bracket_printed * mt * Scalar.monomial(
                gr(t2 * _HALF)
            )
            for k in range(1, dim):
                printed = printed - model.p_up(k) * model.m(k, i) * (
                    Scalar.monomial(gr(t2), 1, 0)
                )
            printed = printed - model.cas.C_tau * mt * Scalar.monomial(
                gr(t2 * _HALF), 2, 0
            )
            expected_dev = (el_pi - el_piv) * mt * Scalar.monomial(
                gr((1 - t2) * _HALF)
            )
            rep.zero(
                "antipode[M_tau_%d]_printed_deviation" % i,
                (printed - engine) - expected_dev,
            )
        # the reconstructed P_tau behaves like the decomposed P_tau
        for i in range(1, dim):
            rep.zero(
                "comm[M_tau_%d,P_tau_expr]" % i,
                model.m(0, i).commutator(model.p_tau_expr)
                + model.p(i) * (I * t2),
            )
            rep.zero(
                "comm[P_%d,P_tau_expr]" % i,
                model.p(i).commutator(model.p_tau_expr),
            )
    else:
        # lightlike: the printed table is typo-free; spot-check the rows
        # that mix generators with the group-likes
        h1 = Scalar.h(1)
        pm = model.p(1)
        rep.zero(
            "comm[M_+-,Pi_+]",
            model.m(0, 1).commutator(el_pi) - (el_pi - one) * I,
        )
        rep.zero(
            "comm[M_+-,Pi_+_inv]",
            model.m(0, 1).commutator(el_piv)
            - (el_piv * el_piv - el_piv) * I,
        )
        for a in range(2, dim):
            rep.zero(
                "comm[M_-%d,Pi_+]" % (a - 1),
                model.m(1, a).commutator(el_pi) + model.p(a) * (I * h1),
            )
            rep.zero(
                "comm[M_-%d,Pi_+_inv]" % (a - 1),
                model.m(1, a).commutator(el_piv)
                - el_piv * el_piv * model.p(a) * (I * h1),
            )
            for b in range(2, dim):
                want = (el_pi - one) * Scalar.monomial(gr(0, g[a][b]), -1, 0)
                rep.zero(
                    "comm[M_+%d,P_%d]_display" % (a - 1, b - 1),
                    model.m(0, a).commutator(model.p(b)) - want,
                )
            rep.zero(
                "comm[M_+%d,P_-]" % (a - 1),
                model.m(0, a).commutator(pm) + model.p(a) * I,
            )
        # P_+ reconstruction: kappa(Pi_+ - 1) plays the momentum role
        pplus = model.p_tau_expr
        rep.zero(
            "comm[M_+-,P_plus_expr]",
            model.m(0, 1).commutator(pplus) - pplus * I,
        )
        for a in range(2, dim):
            rep.zero(
                "comm[M_-%d,P_plus_expr]" % (a - 1),
                model.m(1, a).commutator(pplus) + model.p(a) * I,
            )
        rep.zero("casimir_via_p_plus", pplus * pm * 2 + pp - model.cas.C)
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
            for key, c in tens.terms.items():
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
    lam = Fraction(lam)
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
