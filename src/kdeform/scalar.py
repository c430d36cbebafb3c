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
with truncated ones; the result inherits the finite truncation.  Two
different finite truncations never combine silently, and a finite one can
only be tightened, or lowered in h by a shift by h^-k
(:func:`shifted_trunc`).

Negative h-degrees are allowed only in exact mode.  Truncating a Laurent
series is not a ring quotient (multiplying by h^(-1) re-enters the kept
range), so finite-truncation scalars enforce deg_h >= 0, and a product
refuses an exact factor with a negative h-degree when the other factor is
truncated (:func:`product_trunc`).  Truncated multiplication is then the
quotient of a polynomial ring by the monomials past the truncation, so it
associates.

A Scalar product is the rank-0 graded product: every pair of terms goes to
the one sum, which cuts it to the merged truncation, and a number factor is
an exact constant Scalar first.  A tensor times a Scalar is the outer
product with the Scalar's rank-0 tensor (:mod:`kdeform.ncalg`).  No ring
operation mutates a scalar, so results may share their operands.

``Scalar`` is the API type only: rule coefficients go in as Scalars, and
tensor and wedge coefficients, counits, specialization and the reports read
back as Scalars.  Below that API every kernel -- rewriting, tensor products,
the Hopf leg maps and the wedge calculus -- works on graded rows ``(key,
deg_h, deg_xi, GaussianRational)`` and does no Scalar arithmetic.  This
module owns that format: :func:`accumulate` sums rows into a dict from
``(key, deg_h, deg_xi)``, :func:`graded_sum` first cuts them to a
truncation, and :func:`scalar_view` reads the dict back as Scalars.  A
Scalar's own operations feed rows with the empty key to the same sum.
``_keep`` is the one degree test of a truncation: the kernels read it from
this module at each call, so they test every degree as a Scalar does.

h and xi are real: conjugation acts on the GaussianRational coefficients
only, as the one star structure of the package (:mod:`kdeform.ncalg`) needs.
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


def as_trunc(trunc):
    """``trunc`` when it is a truncation: None, or a pair ``(N_h, N_xi)`` of
    non-negative ints.  Anything else raises ``ScalarDomainError``."""
    if trunc is not None and not (
        type(trunc) is tuple and len(trunc) == 2
        and type(trunc[0]) is type(trunc[1]) is int
        and trunc[0] >= 0 and trunc[1] >= 0
    ):
        raise ScalarDomainError(
            "truncation %r is not None or a pair of non-negative ints"
            % (trunc,)
        )
    return trunc


def check_degrees(deg_h, deg_xi):
    """Refuse the degrees of a monomial unless both are ints and deg_xi is
    non-negative."""
    for n in (deg_h, deg_xi):
        if type(n) is not int:
            raise ScalarDomainError("degree %r is not an int" % (n,))
    if deg_xi < 0:
        raise ScalarDomainError("negative xi-degree %r" % (deg_xi,))


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


def product_trunc(*factors):
    """The merged truncation of a product of ``factors``, each with a
    ``trunc`` and ``terms`` keyed with the h-degree second to last, as
    Scalars and graded terms are.  Where the truncations differ, an exact
    factor with a negative h-degree raises ``ScalarDomainError``: under the
    finite one, multiplying by h^(-1) would bring cut terms back into the
    kept range, and the product would not associate."""
    trunc = None
    for x in factors:
        trunc = merge_trunc(trunc, x.trunc)
    if trunc is not None:
        for x in factors:
            if x.trunc is None and any(k[-2] < 0 for k in x.terms):
                raise ScalarDomainError(
                    "an exact factor with a negative h-degree under the "
                    "finite truncation %r; Laurent factors require exact "
                    "mode" % (trunc,)
                )
    return trunc


def tightened(old, new):
    """The truncation ``new`` that replaces ``old``: a finite one can only be
    tightened, so loosening or dropping it raises ``TruncationMismatch``."""
    new = as_trunc(new)
    if old is not None:
        if new is None:
            raise TruncationMismatch("cannot drop a finite truncation")
        if new[0] > old[0] or new[1] > old[1]:
            raise TruncationMismatch(
                "cannot loosen truncation %r to %r" % (old, new)
            )
    return new


def shifted_trunc(trunc, deg_h):
    """The truncation of a value at ``trunc`` times h^deg_h.  A negative
    shift lowers N_h by as much: the terms it would bring down from past
    N_h were cut, so the lower order is all that is known.  Below 0 it
    raises ``ScalarDomainError``."""
    if trunc is None or deg_h >= 0:
        return trunc
    if trunc[0] + deg_h < 0:
        raise ScalarDomainError(
            "a shift by h^%d leaves no order of the truncation %r"
            % (deg_h, trunc)
        )
    return (trunc[0] + deg_h, trunc[1])


def _keep(key, trunc):
    return trunc is None or (key[0] <= trunc[0] and key[1] <= trunc[1])


# --- the graded format --------------------------------------------------------


def accumulate(out, rows, trunc):
    """Add ``(key, deg_h, deg_xi, coeff)`` rows with nonzero coefficients
    into the graded dict ``out`` in place, dropping cancelled keys.  Under a
    finite ``trunc`` a negative h-degree raises ``ScalarDomainError``.
    Returns ``out``."""
    get = out.get
    for key, a, b, c in rows:
        if a < 0 and trunc is not None:
            raise ScalarDomainError(
                "negative h-degree %r under finite truncation %r; Laurent "
                "coefficients require exact mode" % ((a, b), trunc)
            )
        k = (key, a, b)
        acc = get(k)
        if acc is None:
            out[k] = c
        else:
            acc = acc + c
            if acc:
                out[k] = acc
            else:
                del out[k]
    return out


def graded_sum(rows, trunc):
    """The graded dict of the rows whose degrees ``trunc`` keeps, summed by
    :func:`accumulate`."""
    if trunc is not None:
        rows = [r for r in rows if _keep(r[1:3], trunc)]
    return accumulate({}, rows, trunc)


def scalar_view(terms, trunc):
    """Graded terms read back as a dict from keys to Scalars at ``trunc``."""
    out = {}
    for (k, a, b), c in terms.items():
        out.setdefault(k, {})[(a, b)] = c
    return {k: Scalar._make(row, trunc) for k, row in out.items()}


def _scalar(rows, trunc):
    # the Scalar at ``trunc`` of rank-0 rows ((), deg_h, deg_xi, coeff)
    return Scalar._make(
        {k[1:]: c for k, c in graded_sum(rows, trunc).items()}, trunc
    )


class Scalar:
    """Sparse Laurent polynomial in (h, xi) over Q(i), optionally truncated.

    ``terms`` maps ``(deg_h, deg_xi)`` to a nonzero GaussianRational.
    deg_h may be negative (kappa = h^(-1) coefficients), deg_xi may not.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms=None, trunc=None):
        trunc = as_trunc(trunc)
        rows = []
        for key, val in (terms or {}).items():
            if type(key) is not tuple or len(key) != 2:
                raise ScalarDomainError(
                    "scalar key %r is not a pair (deg_h, deg_xi)" % (key,))
            check_degrees(*key)
            if not isinstance(val, GaussianRational):
                val = GaussianRational(val)
            if val:
                rows.append(((),) + key + (val,))
        self.terms = _scalar(rows, trunc).terms
        self.trunc = trunc

    @staticmethod
    def _make(terms, trunc):
        # internal fast path: caller guarantees cleaned terms
        s = Scalar.__new__(Scalar)
        s.terms = terms
        s.trunc = trunc
        return s

    def _rows(self):
        return (((), a, b, c) for (a, b), c in self.terms.items())

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, trunc=None):
        return cls._make({}, as_trunc(trunc))

    @classmethod
    def one(cls, trunc=None):
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
        check_degrees(deg_h, deg_xi)
        return _scalar([((), deg_h, deg_xi, c)] if c else [], as_trunc(trunc))

    # --- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        trunc = merge_trunc(self.trunc, other.trunc)
        # the exact operand's terms are cut to a finite trunc
        return _scalar((*self._rows(), *other._rows()), trunc)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Scalar._make({k: -v for k, v in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            c = _as_gr(other)
            if c is NotImplemented:
                return NotImplemented
            other = Scalar.monomial(c)
        right = other.terms.items()
        return _scalar((
            ((), a1 + a2, b1 + b2, v1 * v2)
            for (a1, b1), v1 in self.terms.items() for (a2, b2), v2 in right
        ), product_trunc(self, other))

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

    def shift(self, deg_h, deg_xi=0):
        """Multiply by the monomial h^deg_h * xi^deg_xi, at the truncation
        :func:`shifted_trunc` gives."""
        check_degrees(deg_h, deg_xi)
        return _scalar((
            ((), a + deg_h, b + deg_xi, c) for (a, b), c in self.terms.items()
        ), shifted_trunc(self.trunc, deg_h))

    def retrunc(self, new_trunc):
        """Tighten the truncation.  Loosening (or removing) it is an error."""
        new_trunc = tightened(self.trunc, new_trunc)
        return _scalar(self._rows(), new_trunc)

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
