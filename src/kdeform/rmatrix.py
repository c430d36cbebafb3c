"""Classical r-matrices over iso(g) as exact wedge tensors.

The deforming r-matrix r = tau^alpha M_{alpha mu} ^ P^mu lives in the second
exterior power of the Lie algebra; its Schouten bracket decides the
Yang-Baxter type: [[r, r]] = -tau^2 Omega with Omega = M_{mu nu} ^ P^mu ^
P^nu, so null tau solves the classical (unmodified) equation and everything
else the modified one.

Storage.  Wedge terms are graded as tensor terms are: ``(key, deg_h,
deg_xi)`` to a nonzero GaussianRational, the key a strictly increasing
index tuple with the sorting sign absorbed, so the calculus does no Scalar
arithmetic.  A wedge has one truncation, merged from its Scalar
coefficients.  ``_graded`` alone builds terms: it sorts keys, drops keys
with a repeated index and hands the rows to ``scalar.graded_sum``, which
cuts them with ``scalar._keep``, read at each call, and sums them through
the one accumulator, ``scalar.accumulate``.  :meth:`WedgeTensor.by_key`
reads Scalars back through ``scalar.scalar_view``.

Conventions.  Brackets are taken in the real form: the presentations store
[x, y] = i f(x, y) with rational f, and polyvector identities hold for f.
``schouten`` and ``ad_action`` read f as graded rows from
``Presentation.structure_constants``, which lists both orientations of every
commutator rule.  The presentation builds those rows once and keeps them
until a rule is installed, so no call rebuilds them.
The Schouten bracket is normalized as
[[a^b, c^d]] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c.  It is
symmetric on bivectors, [[t, u]] = [[u, t]], so with r = sum_t r_t t over
its canonical terms, [[r, r]] = sum_t r_t^2 [[t, t]] + 2 sum_{t<u} r_t r_u
[[t, u]]: ``schouten`` visits each unordered pair of terms once and weights
the pairs t < u by 2.
"""

from fractions import Fraction

from .errors import PresentationError
from .metric import as_metric, as_tau
from .model import _iso_data, _m_signed, build_iso
from .report import Report
from .scalar import (
    GR_ONE, GaussianRational, Scalar, gr, graded_sum, merge_trunc,
    product_trunc, scalar_view,
)


def _as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return Scalar.monomial(x)
    raise PresentationError("bad wedge coefficient %r" % (x,))


def _canonical(key):
    """(sorted key, sign) or (None, 0) when an index repeats."""
    skey = tuple(sorted(key))
    if len(set(skey)) < len(skey):
        return None, 0
    flips = sum(x > y for i, x in enumerate(key) for y in key[i + 1:])
    return skey, -1 if flips % 2 else 1


def _graded(pres, rank, terms, trunc):
    """The wedge at ``trunc`` of ``(key, deg_h, deg_xi, coeff)`` terms with
    nonzero GaussianRational coefficients, cut by ``scalar.graded_sum``."""
    canon = {}  # each key is sorted once per call

    def signed():
        for key, a, b, c in terms:
            ks = canon.get(key) or canon.setdefault(key, _canonical(key))
            if ks[1]:
                yield ks[0], a, b, (c if ks[1] > 0 else -c)

    w = object.__new__(WedgeTensor)
    w.pres, w.rank, w.trunc = pres, rank, trunc
    w.terms = graded_sum(signed(), trunc)
    return w


def _wedge(pres, rank, pairs):
    """The wedge sum c x_key over the (key, c) pairs, c a number or a Scalar;
    a rank not 2 or 3, a wrong key length or two finite truncations raise."""
    if rank not in (2, 3):
        raise PresentationError("wedge rank must be 2 or 3")
    pairs = [(tuple(key), _as_scalar(c)) for key, c in pairs]
    trunc = None
    for key, c in pairs:
        if len(key) != rank:
            raise PresentationError("wedge key %r has wrong rank" % (key,))
        trunc = merge_trunc(trunc, c.trunc)
    return _graded(pres, rank, (
        (key, a, b, g)
        for key, c in pairs for (a, b), g in c.terms.items()
    ), trunc)


class WedgeTensor:
    """Antisymmetric rank-2 or rank-3 tensor over a Lie presentation."""

    def __new__(cls, pres, rank, terms=None):
        return _wedge(pres, rank, (terms or {}).items())

    @classmethod
    def zero(cls, pres, rank=2):
        return cls(pres, rank, {})

    @classmethod
    def from_labels(cls, pres, rank, entries):
        """entries: iterable of (label, ..., coefficient) tuples."""
        return _wedge(pres, rank, (
            (tuple(pres.gen_index(lab) for lab in labels), c)
            for *labels, c in entries
        ))

    def by_key(self):
        """The terms as a dict from sorted keys to Scalars."""
        return scalar_view(self.terms, self.trunc)

    def coeff(self, key):
        skey, sign = _canonical(key)
        c = self.by_key().get(skey, Scalar.zero(self.trunc))
        return c if sign > 0 else -c

    def __add__(self, other):
        if not isinstance(other, WedgeTensor):
            return NotImplemented
        if other.pres is not self.pres or other.rank != self.rank:
            raise PresentationError("wedge mismatch")
        return _graded(self.pres, self.rank, (
            k + (c,) for x in (self, other) for k, c in x.terms.items()
        ), merge_trunc(self.trunc, other.trunc))

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        s = _as_scalar(other)
        return _graded(self.pres, self.rank, (
            (k, a + da, b + db, c * g)
            for (k, a, b), c in self.terms.items()
            for (da, db), g in s.terms.items()
        ), product_trunc(self, s))

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "WedgeTensor(0)"
        view = self.by_key()
        return "WedgeTensor(%s)" % " + ".join(
            "(%r)*%s" % (view[key], "^".join(map(self.pres.label, key)))
            for key in sorted(view)
        )


def build_r(metric, tau, pres=None):
    """r = tau^alpha g^{beta sigma} M_{alpha beta} ^ P_sigma."""
    metric = as_metric(metric)
    tau = as_tau(metric, tau)
    if pres is None:
        pres = build_iso(metric)
    data = _iso_data(pres)
    if data["metric"].g != metric.g:
        raise PresentationError("presentation metric differs from the given one")
    dim = metric.dim
    ginv = metric.inverse()
    pidx, midx = data["p"], data["m"]
    return _graded(pres, 2, (
        ((im, pidx[sg]), 0, 0, gr(tau[al] * ginv[be][sg] * sgn))
        for al in range(dim) if tau[al]
        for be in range(dim)
        for im, sgn in (_m_signed(midx, al, be),) if sgn
        for sg in range(dim) if ginv[be][sg]
    ), None)


def build_omega(pres):
    """Omega = M_{mu nu} ^ P^mu ^ P^nu over the presentation's metric."""
    data = _iso_data(pres)
    metric = data["metric"]
    dim = metric.dim
    ginv = metric.inverse()
    pidx, midx = data["p"], data["m"]
    return _graded(pres, 3, (
        ((im, pidx[al], pidx[be]), 0, 0,
         gr(ginv[mu][al] * ginv[nu][be] * sgn))
        for mu in range(dim)
        for nu in range(dim)
        for im, sgn in (_m_signed(midx, mu, nu),) if sgn
        for al in range(dim) if ginv[mu][al]
        for be in range(dim) if ginv[nu][be]
    ), None)


def schouten(r):
    """[[r, r]] as a rank-3 wedge (see the module docstring for signs)."""
    if r.rank != 2:
        raise PresentationError("schouten bracket needs a rank-2 wedge")
    table = r.pres.structure_constants()
    items = [k + (c,) for k, c in r.terms.items()]

    def expansion():
        # unordered pairs t <= u of canonical terms a^b, c^d; t < u twice
        for n, ((a, b), at, bt, ct) in enumerate(items):
            twice = ct + ct
            for m, ((c, d), au, bu, cu) in enumerate(items[n:]):
                a0, b0 = at + au, bt + bu
                coef = (twice if m else ct) * cu
                neg = -coef
                for e, da, db, f in table.get((a, c), ()):
                    yield (e, b, d), a0 + da, b0 + db, coef * f
                for e, da, db, f in table.get((a, d), ()):
                    yield (e, b, c), a0 + da, b0 + db, neg * f
                for e, da, db, f in table.get((b, c), ()):
                    yield (e, a, d), a0 + da, b0 + db, neg * f
                for e, da, db, f in table.get((b, d), ()):
                    yield (e, a, c), a0 + da, b0 + db, coef * f

    return _graded(r.pres, 3, expansion(), r.trunc)


def ybe_classify(r):
    """Decompose [[r, r]] against Omega.

    Returns {"type": "CYBE" | "MYBE" | "other", "lam": Scalar or None,
    "residual": WedgeTensor}; for MYBE, [[r, r]] = lam * Omega exactly.
    """
    s = schouten(r)
    if s.is_zero():
        return {
            "type": "CYBE",
            "lam": Scalar.zero(),
            "residual": WedgeTensor.zero(r.pres, 3),
        }
    omega = build_omega(r.pres)  # nonzero, with constant coefficients
    (key, _, _), val = next(iter(omega.terms.items()))
    lam = s.coeff(key) * (GR_ONE / val)
    residual = s - omega * lam
    if residual.is_zero():
        return {"type": "MYBE", "lam": lam, "residual": residual}
    return {"type": "other", "lam": None, "residual": residual}


def ad_action(pres, x, w):
    """ad_x acting as a derivation on a wedge tensor over ``pres`` (real
    brackets).  A generator index outside ``pres`` or a wedge over another
    presentation raises."""
    pres.label(x)  # refuses an index outside the generators
    if w.pres is not pres:
        raise PresentationError(
            "ad_action needs a wedge over its own presentation %s" % pres.name
        )
    table = pres.structure_constants()
    return _graded(pres, w.rank, (
        (key[:slot] + (e,) + key[slot + 1:], a + da, b + db, c * f)
        for (key, a, b), c in w.terms.items()
        for slot in range(w.rank)
        for e, da, db, f in table.get((x, key[slot]), ())
    ), w.trunc)


def omega_invariance_check(metric, pres=None):
    """ad_x(Omega) = 0 for every generator x, by direct computation."""
    if pres is None:
        pres = build_iso(metric)
    omega = build_omega(pres)
    rep = Report(
        "omega invariance", {"dim": _iso_data(pres)["metric"].dim}
    )
    for i, gen in enumerate(pres.generators):
        rep.zero("ad[%s](omega)" % gen.label, ad_action(pres, i, omega))
    return rep


def schouten_identity_check(metric, tau, pres=None):
    """[[r, r]] = -tau^2 * Omega for this metric and tau."""
    metric = as_metric(metric)
    r = build_r(metric, tau, pres)  # validates tau
    s = schouten(r)
    t2 = metric.square(tau)
    want = build_omega(r.pres) * Scalar.rational(-t2)
    rep = Report("schouten identity", {"tau2": str(t2)})
    rep.zero("schouten_equals_minus_tau2_omega", s - want)
    verdict = ybe_classify(r)
    if t2 == 0:
        rep.add("null_tau_cybe", verdict["type"] == "CYBE", verdict["type"])
    else:
        rep.add(
            "mybe_lambda",
            verdict["type"] == "MYBE"
            and (verdict["lam"] - Scalar.rational(-t2)).is_zero(),
            verdict["type"],
        )
    return rep
