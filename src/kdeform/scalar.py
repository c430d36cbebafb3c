"""Exact coefficient arithmetic for the deformation engine.

Coefficients live in the Gaussian rationals Q(i).  A Gaussian rational is
stored as an integer triple ``(a, b, d)`` meaning ``(a + b*i) / d``, with
``d > 0`` and ``gcd(a, b, d) == 1``; zero is ``(0, 0, 1)``.  The form is
canonical, so equality compares the three ints, and every ring operation
reduces its result with at most one ``math.gcd`` (none when ``d == 1``).
``fractions.Fraction`` appears only at the boundary: the constructor accepts
Fractions and refuses floats, ``.re``/``.im`` return Fractions, and ``repr``
prints each part in the ``Fraction`` format.

Deformation scalars are Laurent polynomials in the deformation parameter h
(so expressions carrying kappa = h^(-1) stay exact) and ordinary polynomials
in the twist parameter xi.  They are stored sparsely as dicts keyed by the
bigrade (deg_h, deg_xi).

A scalar either carries a finite truncation order ``trunc = (N_h, N_xi)``,
meaning every bigrade with deg_h > N_h or deg_xi > N_xi has been dropped, or
``trunc = None`` for exact (untruncated) arithmetic.  Exact scalars combine
freely with truncated ones; the result inherits the finite truncation.  Two
different finite truncations never combine silently.

Negative h-degrees are allowed only in exact mode.  Truncating a Laurent
series is not a ring quotient (multiplying by h^(-1) re-enters the kept
range), so finite-truncation scalars enforce deg_h >= 0; this keeps truncated
multiplication associative.

The exact unit is one shared object, :data:`ONE`: ``Scalar.one()`` returns it,
and a product by it returns the other operand itself.  That needs no
truncation decision, since the other operand already satisfies its own
truncation and the Laurent rule.  No ring operation mutates a scalar, so
results may share their operands.

``_keep`` is the one degree test of a truncation.  The graded kernels of
:mod:`kdeform.ncalg`, :mod:`kdeform.hopf` and :mod:`kdeform.rmatrix`
multiply GaussianRationals directly and read ``_keep`` from this module at
each call, so they test every degree as a Scalar does.

h and xi are real: conjugation acts on the coefficients only, as the one star
structure of the package (:mod:`kdeform.ncalg`) needs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ScalarDomainError, TruncationMismatch

_new = object.__new__


def _gr(a, b, d):
    # internal constructor: caller guarantees the canonical invariant
    z = _new(GaussianRational)
    z.a = a
    z.b = b
    z.d = d
    return z


def _fraction(x):
    # a float's exact value is its binary expansion, not the decimal written
    if not isinstance(x, float):
        try:
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise ScalarDomainError("need an exact rational, not %r" % (x,))


def _reduced(a, b, d):
    # d > 0; divide out gcd(a, b, d) once, skipped when d == 1
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _gr(a, b, d)


class GaussianRational:
    """A complex number ``(a + b*i) / d`` with integers a, b and d > 0.

    The triple is kept canonical: ``gcd(a, b, d) == 1``, so zero is
    ``(0, 0, 1)`` and two equal values have equal triples.  ``re`` and
    ``im`` give the parts as ``Fraction``.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re = re if isinstance(re, Fraction) else _fraction(re)
        im = im if isinstance(im, Fraction) else _fraction(im)
        q, s = re.denominator, im.denominator
        # with both parts in lowest terms, lcm(q, s) is already canonical
        d = q // gcd(q, s) * s
        self.a = re.numerator * (d // q)
        self.b = im.numerator * (d // s)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gr(other)
            if other is NotImplemented:
                return NotImplemented
        d1 = self.d
        d2 = other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(self.a * d2 + other.a * d1,
                        self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gr(other)
            if other is NotImplemented:
                return NotImplemented
        d1 = self.d
        d2 = other.d
        if d1 == d2:
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(self.a * d2 - other.a * d1,
                        self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other):
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _gr(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gr(other)
            if other is NotImplemented:
                return NotImplemented
        a1 = self.a
        b1 = self.b
        a2 = other.a
        b2 = other.b
        # a unit factor returns the other one; values are never mutated
        if a1 == 1 and b1 == 0 and self.d == 1:
            return other
        if a2 == 1 and b2 == 0 and other.d == 1:
            return self
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                        self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gr(other)
            if other is NotImplemented:
                return NotImplemented
        a2 = other.a
        b2 = other.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # x / y = x * conj(y) * d2 / (a2^2 + b2^2)
        a1 = self.a
        b1 = self.b
        d2 = other.d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        self.d * n)

    def __rtruediv__(self, other):
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self):
        return _gr(self.a, -self.b, self.d)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gr(other)
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        # equal to the hash of the equal int or Fraction
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return "%s*i" % im
        sign = "+" if im > 0 else "-"
        return "(%s %s %s*i)" % (re, sign, abs(im))


def _as_gr(v):
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    return NotImplemented


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def gr(re, im=0):
    """Shorthand constructor, accepts ints, Fractions or 'p/q' strings."""
    return GaussianRational(re, im)


def merge_trunc(t1, t2):
    """Combine the truncations of two operands.

    Exact (None) is compatible with everything; two finite truncations must
    agree exactly.
    """
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    if t1 != t2:
        raise TruncationMismatch(
            "cannot combine truncations %r and %r" % (t1, t2)
        )
    return t1


def _keep(key, trunc):
    return trunc is None or (key[0] <= trunc[0] and key[1] <= trunc[1])


def _check_laurent(terms, trunc):
    if trunc is not None:
        for key in terms:
            if key[0] < 0:
                raise ScalarDomainError(
                    "negative h-degree %r under finite truncation; "
                    "Laurent coefficients require exact mode" % (key,)
                )


class Scalar:
    """Sparse Laurent polynomial in (h, xi) over Q(i), optionally truncated.

    ``terms`` maps ``(deg_h, deg_xi)`` to a nonzero GaussianRational.
    deg_h may be negative (kappa = h^(-1) coefficients), deg_xi may not.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms=None, trunc=None):
        clean = {}
        if terms:
            for key, val in terms.items():
                if type(key) is not tuple or len(key) != 2:
                    raise ScalarDomainError(
                        "scalar key %r is not a pair (deg_h, deg_xi)" % (key,))
                if not isinstance(val, GaussianRational):
                    val = GaussianRational(val)
                if val and _keep(key, trunc):
                    if key[1] < 0:
                        raise ScalarDomainError(
                            "negative xi-degree %r" % (key,)
                        )
                    clean[key] = val
        _check_laurent(clean, trunc)
        self.terms = clean
        self.trunc = trunc

    @staticmethod
    def _make(terms, trunc):
        # internal fast path: caller guarantees cleaned terms
        s = Scalar.__new__(Scalar)
        s.terms = terms
        s.trunc = trunc
        return s

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, trunc=None):
        return cls._make({}, trunc)

    @classmethod
    def one(cls, trunc=None):
        if trunc is None:
            return ONE
        return cls.monomial(GR_ONE, 0, 0, trunc)

    @classmethod
    def i(cls, trunc=None):
        return cls.monomial(GR_I, 0, 0, trunc)

    @classmethod
    def h(cls, power=1, trunc=None):
        return cls.monomial(GR_ONE, power, 0, trunc)

    @classmethod
    def xi(cls, power=1, trunc=None):
        return cls.monomial(GR_ONE, 0, power, trunc)

    @classmethod
    def rational(cls, value, trunc=None):
        return cls.monomial(GaussianRational(value), 0, 0, trunc)

    @classmethod
    def monomial(cls, coeff, deg_h=0, deg_xi=0, trunc=None):
        c = _as_gr(coeff)
        if c is NotImplemented:
            raise ScalarDomainError(
                "monomial coefficient %r is not an int, Fraction or "
                "GaussianRational" % (coeff,)
            )
        coeff = c
        if deg_xi < 0:
            raise ScalarDomainError("negative xi-degree")
        if not coeff or not _keep((deg_h, deg_xi), trunc):
            return cls._make({}, trunc)
        terms = {(deg_h, deg_xi): coeff}
        _check_laurent(terms, trunc)
        return cls._make(terms, trunc)

    # --- ring operations --------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar and not isinstance(other, Scalar):
            return NotImplemented
        t1 = self.trunc
        t2 = other.trunc
        trunc = t1 if t1 == t2 else merge_trunc(t1, t2)
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = val
            else:
                acc = acc + val
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        if trunc is not None and (t1 is None or t2 is None):
            # either operand may be the exact one
            out = {k: v for k, v in out.items() if _keep(k, trunc)}
            _check_laurent(out, trunc)
        s = _new(Scalar)
        s.terms = out
        s.trunc = trunc
        return s

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Scalar._make({k: -v for k, v in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        if type(other) is not Scalar:
            if type(other) is GaussianRational or isinstance(
                    other, (int, Fraction)):
                c = _as_gr(other)
                if not c:
                    return Scalar._make({}, self.trunc)
                return Scalar._make(
                    {k: v * c for k, v in self.terms.items()}, self.trunc
                )
            if not isinstance(other, Scalar):
                return NotImplemented
        # the exact unit needs no truncation decision: the other operand
        # already satisfies its own truncation and the Laurent rule
        if self is ONE:
            return other
        if other is ONE:
            return self
        t1 = self.trunc
        t2 = other.trunc
        trunc = t1 if t1 == t2 else merge_trunc(t1, t2)
        out = {}
        get = out.get
        right = other.terms.items()
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in right:
                key = (a1 + a2, b1 + b2)
                if trunc is not None and not _keep(key, trunc):
                    continue
                acc = get(key)
                prod = v1 * v2
                # nonzero coefficients have a nonzero product
                if acc is None:
                    out[key] = prod
                else:
                    acc = acc + prod
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        if trunc is not None and (t1 is None or t2 is None):
            _check_laurent(out, trunc)
        s = _new(Scalar)
        s.terms = out
        s.trunc = trunc
        return s

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # --- structure --------------------------------------------------------

    def coeff(self, deg_h, deg_xi):
        return self.terms.get((deg_h, deg_xi), GR_ZERO)

    def shift(self, deg_h, deg_xi=0):
        """Multiply by the monomial h^deg_h * xi^deg_xi."""
        if deg_xi < 0:
            raise ScalarDomainError("negative xi-degree")
        out = {}
        for (a, b), v in self.terms.items():
            key = (a + deg_h, b + deg_xi)
            if _keep(key, self.trunc):
                out[key] = v
        _check_laurent(out, self.trunc)
        return Scalar._make(out, self.trunc)

    def conjugate(self):
        """Complex-conjugate the coefficients; h and xi are real."""
        return Scalar._make(
            {k: v.conjugate() for k, v in self.terms.items()}, self.trunc
        )

    def retrunc(self, new_trunc):
        """Tighten the truncation.  Loosening (or removing) it is an error."""
        if new_trunc is None:
            if self.trunc is None:
                return self
            raise TruncationMismatch("cannot drop a finite truncation")
        if self.trunc is not None:
            if new_trunc[0] > self.trunc[0] or new_trunc[1] > self.trunc[1]:
                raise TruncationMismatch(
                    "cannot loosen truncation %r to %r"
                    % (self.trunc, new_trunc)
                )
        out = {k: v for k, v in self.terms.items() if _keep(k, new_trunc)}
        _check_laurent(out, new_trunc)
        return Scalar._make(out, new_trunc)

    def specialize(self, h_value, xi_value=0):
        """Evaluate at exact rational parameter values; h_value may not be 0
        when negative h-degrees are present."""
        h_value, xi_value = _fraction(h_value), _fraction(xi_value)
        if h_value == 0 and self.has_negative_h():
            raise ScalarDomainError("h = 0 in a negative power of h")
        total = GR_ZERO
        for (a, b), v in self.terms.items():
            total = total + v * (h_value ** a) * (xi_value ** b)
        return total

    def min_h_degree(self):
        if not self.terms:
            return 0
        return min(k[0] for k in self.terms)

    def h_zero_part(self):
        """Keep only deg_h == 0 terms (any xi-degree)."""
        out = {k: v for k, v in self.terms.items() if k[0] == 0}
        return Scalar._make(out, self.trunc)

    def has_negative_h(self):
        return any(k[0] < 0 for k in self.terms)

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0, 0)}

    def constant_value(self):
        if not self.is_constant():
            raise ScalarDomainError("scalar is not constant: %r" % self)
        return self.terms.get((0, 0), GR_ZERO)

    def __repr__(self):
        if not self.terms:
            return "Scalar(0)"
        bits = []
        for (a, b) in sorted(self.terms):
            v = self.terms[(a, b)]
            mono = []
            if a:
                mono.append("h^%d" % a if a != 1 else "h")
            if b:
                mono.append("xi^%d" % b if b != 1 else "xi")
            head = repr(v)
            bits.append("*".join([head] + mono) if mono else head)
        return "Scalar(%s)" % " + ".join(bits)


# the one exact unit; it is shared, so no code may write to its terms
ONE = Scalar._make({(0, 0): GR_ONE}, None)
