"""Exact linear algebra for rational symmetric metric tensors.

Everything here works over ``fractions.Fraction``; no floats, no numerical
tolerances.  The inertia computation uses symmetric congruence elimination,
so signatures come out exact for arbitrary rational symmetric matrices.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PresentationError


def _frac_matrix(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise PresentationError("metric matrix must be square")
    return mat


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
        """The exact inverse matrix g^{mu nu}, as tuples of Fractions."""
        if self._inv is None:
            n = self.dim
            a = [list(row) for row in self.g]
            inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for col in range(n):
                pivot = None
                for row in range(col, n):
                    if a[row][col] != 0:
                        pivot = row
                        break
                if pivot is None:
                    raise PresentationError("metric is degenerate")
                a[col], a[pivot] = a[pivot], a[col]
                inv[col], inv[pivot] = inv[pivot], inv[col]
                p = a[col][col]
                a[col] = [x / p for x in a[col]]
                inv[col] = [x / p for x in inv[col]]
                for row in range(n):
                    if row != col and a[row][col] != 0:
                        f = a[row][col]
                        a[row] = [x - f * y for x, y in zip(a[row], a[col])]
                        inv[row] = [x - f * y for x, y in zip(inv[row], inv[col])]
            self._inv = tuple(tuple(row) for row in inv)
        return self._inv

    def pair(self, u, v):
        """g_{mu nu} u^mu v^nu for contravariant rational vectors."""
        return sum(
            self.g[i][j] * Fraction(u[i]) * Fraction(v[j])
            for i in range(self.dim)
            for j in range(self.dim)
        )

    def square(self, u):
        return self.pair(u, u)

    def lower(self, u):
        """Covariant components u_mu = g_{mu nu} u^nu."""
        return tuple(
            sum(self.g[i][j] * Fraction(u[j]) for j in range(self.dim))
            for i in range(self.dim)
        )

    def raise_index(self, w):
        """Contravariant components w^mu = g^{mu nu} w_nu."""
        inv = self.inverse()
        return tuple(
            sum(inv[i][j] * Fraction(w[j]) for j in range(self.dim))
            for i in range(self.dim)
        )

    def inertia(self):
        return exact_inertia(self.g)

    def __repr__(self):
        return "Metric(%r)" % (self.g,)


def as_metric(metric):
    """A Metric, built from its rows unless it is one already."""
    return metric if isinstance(metric, Metric) else Metric(metric)


def as_vector(metric, v):
    """A vector's ``dim`` components as Fractions; another length raises."""
    v = tuple(Fraction(x) for x in v)
    if len(v) != metric.dim:
        raise PresentationError("need %d components: %r" % (metric.dim, v))
    return v


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
    return rows, Metric([[metric.pair(u, v) for v in rows] for u in rows])


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


def orthogonal_split(metric, tau):
    """Basis adapted to a non-null direction tau.

    Returns ``(basis, blocks)`` where ``basis`` is a list of contravariant
    vectors, basis[0] = tau, and the remaining dim-1 vectors span the
    g-orthogonal complement of tau.  ``blocks`` is the metric in the new
    basis: blocks[0][0] == tau^2 and the first row/column vanish off the
    corner.  The complement block is not diagonalized.
    """
    tau = as_vector(metric, tau)
    t2 = metric.square(tau)
    if t2 == 0:
        raise PresentationError("orthogonal_split needs tau^2 != 0")
    n = metric.dim
    basis = [tau]
    for mu in range(n):
        e = tuple(Fraction(int(i == mu)) for i in range(n))
        w = tuple(e[i] - metric.pair(e, tau) / t2 * tau[i] for i in range(n))
        cand = basis + [w]
        if _rank(cand) == len(cand):
            basis.append(w)
    if len(basis) != n:
        raise PresentationError("failed to complete tau to a basis")
    return basis, basis_metric(metric, basis)[1].g


def null_pair_split(metric, tau):
    """Basis adapted to a null direction tau.

    Returns ``(tau_plus, tau_minus, transverse)`` with tau_plus = tau,
    tau_minus null, g(tau_plus, tau_minus) = 1, and ``transverse`` a list of
    dim-2 vectors orthogonal to both.
    """
    tau = as_vector(metric, tau)
    if metric.square(tau) != 0:
        raise PresentationError("null_pair_split needs tau^2 == 0")
    n = metric.dim
    w = None
    for mu in range(n):
        e = tuple(Fraction(int(i == mu)) for i in range(n))
        if metric.pair(e, tau) != 0:
            w = e
            break
    if w is None:
        raise PresentationError("metric is degenerate on tau")
    s = metric.pair(w, tau)
    c = -metric.square(w) / (2 * s)
    u = tuple(w[i] + c * tau[i] for i in range(n))  # null partner direction
    tau_minus = tuple(x / s for x in u)
    transverse = []
    for mu in range(n):
        e = tuple(Fraction(int(i == mu)) for i in range(n))
        v = tuple(
            e[i]
            - metric.pair(e, tau_minus) * tau[i]
            - metric.pair(e, tau) * tau_minus[i]
            for i in range(n)
        )
        cand = [tau, tau_minus] + transverse + [v]
        if _rank(cand) == len(cand):
            transverse.append(v)
    if len(transverse) != n - 2:
        raise PresentationError("failed to complete null pair to a basis")
    return tau, tau_minus, transverse


def _rank(vectors):
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    n = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < n:
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [x - f * y for x, y in zip(rows[r], pr)]
        rank += 1
        col += 1
    return rank
