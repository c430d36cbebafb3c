"""Exact linear algebra for rational symmetric metric tensors.

Everything works over ``fractions.Fraction``: no floats, no tolerances.

- Vectors are coerced once, at the boundary (``as_vector``, ``_frac_matrix``);
  a wrong length, a non-rational entry or a float (whose exact value is its
  binary expansion, not the decimal written) raises ``PresentationError``.
- There is one row reduction, ``_row_reduce``, for ranks and the inverse,
  plus the symmetric congruence elimination of ``exact_inertia``, whose
  diagonal signs are exact (Sylvester).
- A non-degenerate metric with a non-zero null vector is indefinite, so a
  null tau needs no separate signature check.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import PresentationError, ScalarDomainError
from .scalar import _fraction


def _fractions(v, n):
    """``v`` as a tuple of ``n`` Fractions; anything else raises."""
    try:
        v = tuple(map(_fraction, v))
    except (TypeError, ScalarDomainError):  # TypeError: v is not a sequence
        raise PresentationError(
            "need exact rational entries (no floats): %r" % (v,)
        ) from None
    if len(v) != n:
        raise PresentationError("need %d entries: %r" % (n, v))
    return v


def _frac_matrix(rows):
    """A square matrix as lists of Fractions; anything else raises."""
    try:
        rows = list(rows)
    except TypeError:
        raise PresentationError("need matrix rows: %r" % (rows,)) from None
    return [list(_fractions(row, len(rows))) for row in rows]


def _mat_vec(mat, v):
    """The product mat . v of a matrix and a coerced vector."""
    return tuple(sum(map(mul, row, v)) for row in mat)


def _row_reduce(rows):
    """``(echelon, pivots)``: the reduced row echelon form of ``rows`` over Q,
    and the column of each leading 1, one per non-zero row."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f != 0:
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


class Metric:
    """A rational symmetric metric tensor with its exact inverse."""

    __slots__ = ("g", "dim", "_inv")

    def __init__(self, rows):
        mat = _frac_matrix(rows)
        n = len(mat)
        for i in range(n):
            for j in range(i):
                if mat[i][j] != mat[j][i]:
                    raise PresentationError("metric matrix must be symmetric")
        self.g = tuple(tuple(row) for row in mat)
        self.dim = n
        self._inv = None

    @classmethod
    def from_signature(cls, signs):
        """Diagonal metric from a sequence of +1/-1 entries."""
        n = len(signs)
        return cls([[signs[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def inverse(self):
        """The exact inverse matrix g^{mu nu}, as tuples of Fractions: the
        right half of the reduced [g | I]."""
        if self._inv is None:
            n = self.dim
            rows, pivots = _row_reduce(
                row + tuple(Fraction(int(i == j)) for j in range(n))
                for i, row in enumerate(self.g)
            )
            if pivots != list(range(n)):
                raise PresentationError("metric is degenerate")
            self._inv = tuple(tuple(row[n:]) for row in rows)
        return self._inv

    def pair(self, u, v):
        """g_{mu nu} u^mu v^nu for contravariant rational vectors."""
        return sum(map(mul, self.lower(u), as_vector(self, v)))

    def square(self, u):
        u = as_vector(self, u)
        return sum(map(mul, _mat_vec(self.g, u), u))

    def lower(self, u):
        """Covariant components u_mu = g_{mu nu} u^nu."""
        return _mat_vec(self.g, as_vector(self, u))

    def raise_index(self, w):
        """Contravariant components w^mu = g^{mu nu} w_nu."""
        return _mat_vec(self.inverse(), as_vector(self, w))

    def inertia(self):
        return exact_inertia(self.g)

    def __repr__(self):
        return "Metric(%r)" % (self.g,)


def as_metric(metric):
    """A Metric, built from its rows unless it is one already."""
    return metric if isinstance(metric, Metric) else Metric(metric)


def as_vector(metric, v):
    """A vector's ``dim`` components as Fractions; anything else raises."""
    return _fractions(v, metric.dim)


def as_tau(metric, tau):
    """The deformation vector tau as ``dim`` Fractions, not all zero."""
    tau = as_vector(metric, tau)
    if not any(tau):
        raise PresentationError("tau must be non-zero")
    return tau


def basis_metric(metric, rows):
    """``(rows, metric~)`` for ``dim`` basis rows (old coordinates): each row
    as ``dim`` Fractions, and metric~_ab = g(rows[a], rows[b])."""
    rows = [as_vector(metric, row) for row in rows]
    if len(rows) != metric.dim:
        raise PresentationError("need %d rows: %r" % (metric.dim, rows))
    return rows, Metric([_mat_vec(rows, _mat_vec(metric.g, u)) for u in rows])


def exact_inertia(rows):
    """Counts (p, q) of positive and negative squares of a rational
    symmetric matrix, by symmetric congruence elimination.

    Congruence transformations A -> E A E^T preserve inertia (Sylvester),
    so the diagonal signs after elimination are exact.
    """
    a = _frac_matrix(rows)
    n = len(a)

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row_col(dst, src, f):
        # row_dst += f*row_src followed by the symmetric column operation
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        for row in a:
            row[dst] = row[dst] + f * row[src]

    p = q = 0
    for k in range(n):
        if a[k][k] == 0:
            moved = False
            for j in range(k + 1, n):
                if a[j][j] != 0:
                    swap(k, j)
                    moved = True
                    break
            if not moved:
                for j in range(k + 1, n):
                    if a[k][j] != 0:
                        # [[0, b], [b, 0]] block: adding the partner row
                        # puts 2b on the diagonal
                        add_row_col(k, j, Fraction(1))
                        moved = True
                        break
            if not moved:
                continue  # zero row, contributes nothing
        pivot = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                add_row_col(i, k, -a[i][k] / pivot)
        if pivot > 0:
            p += 1
        else:
            q += 1
    return (p, q)


def adapted_basis(metric, tau):
    """Basis rows (old coordinates) adapted to a non-zero tau.

    tau^2 != 0: tau, then dim-1 rows spanning its g-orthogonal complement.
    tau^2 == 0: tau, its null partner tau_- with g(tau, tau_-) = 1, then
    dim-2 rows orthogonal to both.  The tail projects the unit vectors in
    order and keeps each projection that raises the rank; the head and the
    projections of all unit vectors always span Q^dim.
    """
    tau = as_tau(metric, tau)
    n = metric.dim
    tau_low = metric.lower(tau)
    t2 = sum(map(mul, tau_low, tau))
    # the projector drops sum(low[mu] * vec) from each unit vector e_mu
    if t2 != 0:
        rows = [tau]
        proj = [(tuple(x / t2 for x in tau_low), tau)]
    else:
        # the first unit vector not orthogonal to tau, made null along tau
        mu = next((mu for mu in range(n) if tau_low[mu] != 0), None)
        if mu is None:
            raise PresentationError("metric is degenerate on tau")
        s = tau_low[mu]
        c = -metric.g[mu][mu] / (2 * s)
        tau_minus = tuple((int(i == mu) + c * x) / s for i, x in enumerate(tau))
        rows = [tau, tau_minus]
        proj = [(metric.lower(tau_minus), tau), (tau_low, tau_minus)]
    for mu in range(n):
        w = tuple(
            int(i == mu) - sum(low[mu] * vec[i] for low, vec in proj)
            for i in range(n)
        )
        if len(_row_reduce(rows + [w])[1]) > len(rows):
            rows.append(w)
    return rows
