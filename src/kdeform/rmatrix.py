"""Classical r-matrices over iso(g) as exact wedge tensors.

The deforming r-matrix r = tau^alpha M_{alpha mu} ^ P^mu lives in the second
exterior power of the Lie algebra; its Schouten bracket decides the
Yang-Baxter type: [[r, r]] = -tau^2 Omega with Omega = M_{mu nu} ^ P^mu ^
P^nu, so null tau solves the classical (unmodified) equation and everything
else the modified one.

Conventions.  Wedge tensors are stored on strictly increasing generator-index
tuples with the sorting sign absorbed; ``_wedge`` is the one constructor that
sorts each key with its sign, drops keys with a repeated index and sums equal
keys.  Brackets are taken in the real form: the presentations store
[x, y] = i f(x, y) with rational f, and polyvector identities hold for f.
``schouten`` and ``ad_action`` read the stored coefficients i f from
``Presentation.structure_constants``, which lists both orientations of every
commutator rule.  Each term they produce carries exactly one bracket, so
they sum with the stored coefficients and multiply the result by -i once.
The Schouten bracket is normalized as
[[a^b, c^d]] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c.  It is
symmetric on bivectors, [[t, u]] = [[u, t]], so with r = sum_t r_t t over
its canonical terms, [[r, r]] = sum_t r_t^2 [[t, t]] + 2 sum_{t<u} r_t r_u
[[t, u]]: ``schouten`` visits each unordered pair of terms once and weights
the pairs t < u by 2.
"""

from fractions import Fraction
from itertools import chain

from .errors import PresentationError
from .metric import as_metric, as_tau
from .model import _iso_data, _m_signed, build_iso
from .ncalg import accumulate
from .report import Report
from .scalar import GR_ONE, GaussianRational, Scalar, gr

# the stored brackets are i times the real ones
_MINUS_I = gr(0, -1)


def _as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.rational(x)
    if isinstance(x, GaussianRational):
        return Scalar.monomial(x)
    raise PresentationError("bad wedge coefficient %r" % (x,))


def _canonical(key):
    """(sorted key, sign) or (None, 0) when an index repeats."""
    key = list(key)
    sign = 1
    for i in range(1, len(key)):
        j = i
        while j > 0 and key[j - 1] > key[j]:
            key[j - 1], key[j] = key[j], key[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(key)):
        if key[i - 1] == key[i]:
            return None, 0
    return tuple(key), sign


def _wedge(pres, rank, pairs):
    """The rank-``rank`` wedge tensor sum c x_key over the (key, c) pairs:
    each key is sorted with its sign, a key with a repeated index is dropped
    and the coefficients of equal keys are summed.  A rank other than 2 or
    3, or a key of another length, raises."""
    if rank not in (2, 3):
        raise PresentationError("wedge rank must be 2 or 3")

    def signed():
        for key, c in pairs:
            if len(key) != rank:
                raise PresentationError("wedge key %r has wrong rank" % (key,))
            skey, sign = _canonical(key)
            if sign:
                c = _as_scalar(c)
                yield skey, (c if sign > 0 else -c)

    w = object.__new__(WedgeTensor)
    w.pres = pres
    w.rank = rank
    w.terms = accumulate({}, signed())
    return w


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

    def coeff(self, key):
        skey, sign = _canonical(key)
        if sign == 0:
            return Scalar.zero()
        c = self.terms.get(skey)
        if c is None:
            return Scalar.zero()
        return c if sign > 0 else -c

    def __add__(self, other):
        if not isinstance(other, WedgeTensor):
            return NotImplemented
        if other.pres is not self.pres or other.rank != self.rank:
            raise PresentationError("wedge mismatch")
        return _wedge(self.pres, self.rank,
                      chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return _wedge(self.pres, self.rank,
                      ((k, -c) for k, c in self.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        c = _as_scalar(other)
        return _wedge(self.pres, self.rank,
                      ((k, v * c) for k, v in self.terms.items()))

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "WedgeTensor(0)"
        bits = []
        for key in sorted(self.terms):
            labels = "^".join(self.pres.label(i) for i in key)
            bits.append("(%r)*%s" % (self.terms[key], labels))
        return "WedgeTensor(%s)" % " + ".join(bits)


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
    return _wedge(pres, 2, (
        ((im, pidx[sg]), Scalar.rational(tau[al] * ginv[be][sg] * sgn))
        for al in range(dim) if tau[al]
        for be in range(dim)
        for im, sgn in (_m_signed(midx, al, be),) if sgn
        for sg in range(dim) if ginv[be][sg]
    ))


def build_omega(pres):
    """Omega = M_{mu nu} ^ P^mu ^ P^nu over the presentation's metric."""
    data = _iso_data(pres)
    metric = data["metric"]
    dim = metric.dim
    ginv = metric.inverse()
    pidx, midx = data["p"], data["m"]
    return _wedge(pres, 3, (
        (
            (im, pidx[al], pidx[be]),
            Scalar.rational(ginv[mu][al] * ginv[nu][be] * sgn),
        )
        for mu in range(dim)
        for nu in range(dim)
        for im, sgn in (_m_signed(midx, mu, nu),) if sgn
        for al in range(dim) if ginv[mu][al]
        for be in range(dim) if ginv[nu][be]
    ))


def schouten(r):
    """[[r, r]] as a rank-3 wedge (see the module docstring for signs)."""
    if r.rank != 2:
        raise PresentationError("schouten bracket needs a rank-2 wedge")
    table = r.pres.structure_constants()
    items = list(r.terms.items())

    def expansion():
        # unordered pairs t <= u of canonical terms a^b, c^d; t < u twice
        for n, ((a, b), ct) in enumerate(items):
            twice = ct + ct
            for m in range(n, len(items)):
                (c, d), cu = items[m]
                coef = (ct if m == n else twice) * cu
                if not coef:
                    continue
                neg = -coef
                for e, f in table.get((a, c), ()):
                    yield (e, b, d), coef * f
                for e, f in table.get((a, d), ()):
                    yield (e, b, c), neg * f
                for e, f in table.get((b, c), ()):
                    yield (e, a, d), neg * f
                for e, f in table.get((b, d), ()):
                    yield (e, a, c), coef * f

    return _wedge(r.pres, 3, expansion()) * _MINUS_I


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
    omega = build_omega(r.pres)
    lam = None
    for key, c in omega.terms.items():
        val = c.constant_value()
        lam = s.coeff(key) * (GR_ONE / val)
        break
    if lam is None:
        return {"type": "other", "lam": None, "residual": s}
    residual = s - omega * lam
    if residual.is_zero():
        return {"type": "MYBE", "lam": lam, "residual": residual}
    return {"type": "other", "lam": None, "residual": residual}


def ad_action(pres, x, w):
    """ad_x acting as a derivation on a wedge tensor (real brackets)."""
    table = pres.structure_constants()
    return _wedge(pres, w.rank, (
        (key[:slot] + (e,) + key[slot + 1:], c * f)
        for key, c in w.terms.items()
        for slot in range(w.rank)
        for e, f in table.get((x, key[slot]), ())
    )) * _MINUS_I


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
