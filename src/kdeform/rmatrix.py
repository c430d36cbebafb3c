"""Classical r-matrices over iso(g) as exact wedge tensors.

The deforming r-matrix r = tau^alpha M_{alpha mu} ^ P^mu lives in the second
exterior power of the Lie algebra; its Schouten bracket decides the
Yang-Baxter type: [[r, r]] = -tau^2 Omega with Omega = M_{mu nu} ^ P^mu ^
P^nu, so null tau solves the classical (unmodified) equation and everything
else the modified one.

Conventions.  Wedge tensors are stored on strictly increasing generator-index
tuples with the sorting sign absorbed.  Brackets are taken in the real form:
the presentations store [x, y] = i f(x, y) with rational f, and polyvector
identities hold for f.  The Schouten bracket is normalized as
[[a^b, c^d]] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c; the
leg-insertion expansion [r12,r13]+[r12,r23]+[r13,r23] computes half of that
for skew r, and reading the tensor cube back through canonical insertion
over-counts each wedge component 3! times, hence the single factor 1/3
below.
"""

from fractions import Fraction

from .errors import PresentationError
from .metric import Metric
from .model import build_iso
from .ncalg import accumulate
from .report import Report
from .scalar import GR_ONE, GaussianRational, Scalar, gr


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


def _wedge_pairs(pairs):
    """(canonical key, signed coefficient) for each (key, coefficient) pair;
    keys with a repeated index are dropped."""
    for key, c in pairs:
        skey, sign = _canonical(key)
        if sign:
            yield skey, (c if sign > 0 else -c)


class WedgeTensor:
    """Antisymmetric rank-2 or rank-3 tensor over a Lie presentation."""

    def __init__(self, pres, rank, terms=None):
        if rank not in (2, 3):
            raise PresentationError("wedge rank must be 2 or 3")
        self.pres = pres
        self.rank = rank
        terms = terms or {}
        for key in terms:
            if len(key) != rank:
                raise PresentationError("wedge key %r has wrong rank" % (key,))
        self.terms = accumulate({}, _wedge_pairs(
            (key, _as_scalar(c)) for key, c in terms.items()
        ))

    @classmethod
    def zero(cls, pres, rank=2):
        return cls(pres, rank, {})

    @classmethod
    def from_labels(cls, pres, rank, entries):
        """entries: iterable of (label, ..., coefficient) tuples."""
        terms = accumulate({}, _wedge_pairs(
            (tuple(pres.gen_index(lab) for lab in labels), _as_scalar(c))
            for *labels, c in entries
        ))
        return cls(pres, rank, terms)

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
        w = WedgeTensor(self.pres, self.rank)
        w.terms = accumulate(dict(self.terms), other.terms.items())
        return w

    def __neg__(self):
        w = WedgeTensor(self.pres, self.rank)
        w.terms = {k: -c for k, c in self.terms.items()}
        return w

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        c = _as_scalar(other)
        w = WedgeTensor(self.pres, self.rank)
        if c:
            w.terms = {k: v * c for k, v in self.terms.items() if v * c}
        return w

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


def _iso_data(pres):
    data = getattr(pres, "iso_data", None)
    if data is None:
        raise PresentationError("needs a presentation built by build_iso")
    return data


def _m_signed(midx, a, b):
    """(index, sign) for M_ab; (None, 0) when a == b."""
    if a == b:
        return None, 0
    if a < b:
        return midx[(a, b)], 1
    return midx[(b, a)], -1


def build_r(metric, tau, pres=None):
    """r = tau^alpha g^{beta sigma} M_{alpha beta} ^ P_sigma."""
    if not isinstance(metric, Metric):
        metric = Metric(metric)
    tau = tuple(Fraction(x) for x in tau)
    if all(x == 0 for x in tau):
        raise PresentationError("tau must be non-zero")
    if pres is None:
        pres = build_iso(metric)
    data = _iso_data(pres)
    if data["metric"].g != metric.g:
        raise PresentationError("presentation metric differs from the given one")
    dim = metric.dim
    ginv = metric.inverse()
    pidx, midx = data["p"], data["m"]
    terms = accumulate({}, (
        ((im, pidx[sg]), Scalar.rational(tau[al] * ginv[be][sg] * sgn))
        for al in range(dim) if tau[al]
        for be in range(dim)
        for im, sgn in (_m_signed(midx, al, be),) if sgn
        for sg in range(dim) if ginv[be][sg]
    ))
    return WedgeTensor(pres, 2, terms)


def build_omega(pres):
    """Omega = M_{mu nu} ^ P^mu ^ P^nu over the presentation's metric."""
    data = _iso_data(pres)
    metric = data["metric"]
    dim = metric.dim
    ginv = metric.inverse()
    pidx, midx = data["p"], data["m"]
    t = WedgeTensor(pres, 3)
    t.terms = accumulate({}, _wedge_pairs(
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
    return t


def _lie_table(pres):
    """Real structure constants: [x_i, x_j] = i * sum f^k x_k."""
    minus_i = gr(0, -1)
    tbl = {}
    for (i, j), terms in pres.comm_rules.items():
        row = {}
        for w, c in terms.items():
            if len(w) != 1:
                raise PresentationError(
                    "presentation is not linear; r-matrix calculus needs a Lie algebra"
                )
            row[w[0]] = c * minus_i
        if row:
            tbl[(i, j)] = row
    if pres.product_rules:
        raise PresentationError(
            "presentation has product rules; r-matrix calculus needs a Lie algebra"
        )
    return tbl


def _bracket(tbl, i, j):
    if i == j:
        return {}
    row = tbl.get((i, j))
    if row is not None:
        return row
    row = tbl.get((j, i))
    if row is not None:
        return {k: -c for k, c in row.items()}
    return {}


def schouten(r):
    """[[r, r]] as a rank-3 wedge (see the module docstring for signs)."""
    if r.rank != 2:
        raise PresentationError("schouten bracket needs a rank-2 wedge")
    tbl = _lie_table(r.pres)
    # expand to the tensor square: c2[(A, B)] with both orders present
    c2 = accumulate({}, (
        term
        for (a, b), c in r.terms.items()
        for term in (((a, b), c), ((b, a), -c))
    ))
    items = list(c2.items())

    def expansion():
        for (a, b), cab in items:
            for (c, d), ccd in items:
                coef = cab * ccd
                if not coef:
                    continue
                for e, f in _bracket(tbl, a, c).items():
                    yield (e, b, d), coef * f
                for e, f in _bracket(tbl, b, c).items():
                    yield (a, e, d), coef * f
                for e, f in _bracket(tbl, b, d).items():
                    yield (a, c, e), coef * f

    acc = accumulate({}, _wedge_pairs(expansion()))
    third = Fraction(1, 3)
    out = WedgeTensor(r.pres, 3)
    out.terms = {k: v * third for k, v in acc.items()}
    return out


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
    tbl = _lie_table(pres)
    out = WedgeTensor(pres, w.rank)
    out.terms = accumulate({}, _wedge_pairs(
        (key[:slot] + (e,) + key[slot + 1:], c * f)
        for key, c in w.terms.items()
        for slot in range(w.rank)
        for e, f in _bracket(tbl, x, key[slot]).items()
    ))
    return out


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
    if not isinstance(metric, Metric):
        metric = Metric(metric)
    r = build_r(metric, tau, pres)
    s = schouten(r)
    t2 = metric.square(tuple(Fraction(x) for x in tau))
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
