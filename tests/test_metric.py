"""Tests for exact metric linear algebra (inverse, inertia, adapted bases)."""

import random
from fractions import Fraction

import pytest

from kdeform.errors import PresentationError
from kdeform.metric import (Metric, _row_reduce, adapted_basis, as_metric,
                            basis_metric, exact_inertia)
from kdeform.model import ModelConfig, transform_tau


LORENTZ = Metric.from_signature([-1, 1, 1, 1])
SKEW = Metric([[2, 1, 0], [1, -1, 0], [0, 0, 1]])


def test_inertia_antidiagonal_block():
    # hyperbolic plane: one positive, one negative square
    assert exact_inertia([[0, 1], [1, 0]]) == (1, 1)


def test_inertia_diagonal_and_lorentz():
    assert exact_inertia([[-1, 0], [0, 1]]) == (1, 1)
    assert LORENTZ.inertia() == (3, 1)
    assert Metric.from_signature([1, 1, 1]).inertia() == (3, 0)


def test_inertia_degenerate():
    assert exact_inertia([[0, 0], [0, 5]]) == (1, 0)


def test_inverse_exact():
    g = Metric([[0, 1, 0], [1, 0, 0], [0, 0, Fraction(1, 3)]])
    inv = g.inverse()
    assert inv[0][1] == 1 and inv[1][0] == 1 and inv[2][2] == 3
    n = g.dim
    for i in range(n):
        for j in range(n):
            s = sum(g.g[i][k] * inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_degenerate_metric_rejected():
    with pytest.raises(PresentationError):
        Metric([[1, 1], [1, 1]]).inverse()
    with pytest.raises(PresentationError):
        Metric([[1, 2], [3, 4]])
    with pytest.raises(PresentationError, match="degenerate on tau"):
        adapted_basis(Metric([[1, 0], [0, 0]]), (0, 1))


def test_lower_raise_roundtrip():
    u = (2, Fraction(-1, 3), 0, 5)
    assert LORENTZ.raise_index(LORENTZ.lower(u)) == tuple(Fraction(x) for x in u)


def test_inertia_congruence_invariance():
    rng = random.Random(424242)
    for _ in range(20):
        n = rng.randint(2, 4)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        # random invertible S built from elementary operations
        s = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                f = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                s[i] = [x + f * y for x, y in zip(s[i], s[j])]
        sas = [
            [
                sum(s[i][k] * a[k][l] * s[j][l] for k in range(n) for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert exact_inertia(a) == exact_inertia(sas)


def _fracs(rows):
    return [tuple(Fraction(x) for x in row) for row in rows]


def _gram(g, rows):
    return basis_metric(g, rows)[1].g


def test_orthogonal_split_timelike():
    tau = (1, 0, 0, 0)
    basis = adapted_basis(LORENTZ, tau)
    blocks = _gram(LORENTZ, basis)
    assert basis[0] == tuple(Fraction(x) for x in tau)
    assert blocks[0][0] == -1
    for j in range(1, 4):
        assert blocks[0][j] == 0 and blocks[j][0] == 0
    assert exact_inertia([row[1:] for row in blocks[1:]]) == (3, 0)


def test_orthogonal_split_spacelike_skew_metric():
    tau = (0, 1, 0)
    blocks = _gram(SKEW, adapted_basis(SKEW, tau))
    assert blocks[0][0] == -1
    for j in range(1, 3):
        assert blocks[0][j] == 0
    with pytest.raises(PresentationError, match="non-zero"):
        adapted_basis(SKEW, (0, 0, 0))
    # (0, 1, 1) is null here, so it takes the light-cone branch
    null = (0, 1, 1)
    assert SKEW.square(null) == 0
    rows = adapted_basis(SKEW, null)
    assert SKEW.square(rows[1]) == 0 and SKEW.pair(null, rows[1]) == 1


def test_null_pair_split():
    tau = (1, 0, 0, 1)
    assert LORENTZ.square(tau) == 0
    tp, tm, *transverse = adapted_basis(LORENTZ, tau)
    assert LORENTZ.square(tp) == 0 and LORENTZ.square(tm) == 0
    assert LORENTZ.pair(tp, tm) == 1
    assert len(transverse) == 2
    for v in transverse:
        assert LORENTZ.pair(v, tp) == 0 and LORENTZ.pair(v, tm) == 0
    gram = [[LORENTZ.pair(u, v) for v in transverse] for u in transverse]
    assert exact_inertia(gram) == (2, 0)


def test_null_pair_split_rejects_non_null():
    # a non-null tau gets no null partner: every later row is orthogonal to it
    rows = adapted_basis(LORENTZ, (1, 0, 0, 0))
    assert all(LORENTZ.pair(rows[0], v) == 0 for v in rows[1:])
    with pytest.raises(PresentationError, match=r"tau\^2 == 0"):
        ModelConfig(LORENTZ, (1, 0, 0, 0), "null_plane", (1, 0))


@pytest.mark.parametrize("g, tau, rows", [
    ([[3, 1, 0], [1, -2, 0], [0, 0, -5]], (1, 0, 0),
     [(1, 0, 0), (Fraction(-1, 3), 1, 0), (0, 0, 1)]),
    (SKEW, (0, 1, 0), [(0, 1, 0), (1, 1, 0), (0, 0, 1)]),
    (LORENTZ, (1, 0, 0, 1),
     [(1, 0, 0, 1), (Fraction(-1, 2), 0, 0, Fraction(1, 2)),
      (0, 1, 0, 0), (0, 0, 1, 0)]),
], ids=["skew3_timelike", "skew_spacelike", "mink4_null"])
def test_adapted_basis_rows_are_pinned(g, tau, rows):
    got = adapted_basis(as_metric(g), tau)
    assert got == _fracs(rows)
    assert all(type(x) is Fraction for row in got for x in row)


def _congruent_metric(rng, base):
    # R g R^T for a random invertible R, with R kept to carry vectors over
    n = base.dim
    while True:
        r = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        if len(_row_reduce(r)[1]) == n:
            return r, basis_metric(base, r)[1]


def test_adapted_basis_blocks_on_random_metrics():
    rng = random.Random(29160)
    for n in range(2, 6):
        base = Metric.from_signature([-1] + [1] * (n - 1))
        for _ in range(3):
            r, g = _congruent_metric(rng, base)
            tau = (0,) * n
            while g.square(tau) == 0:
                tau = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            null = transform_tau(base, r, (1, 1) + (0,) * (n - 2))
            assert g.square(null) == 0
            for t in (tau, null):
                rows = adapted_basis(g, t)
                assert len(rows) == n and len(_row_reduce(rows)[1]) == n
                assert rows[0] == tuple(Fraction(x) for x in t)
                if g.square(t) != 0:
                    assert all(g.pair(t, v) == 0 for v in rows[1:])
                    continue
                tm = rows[1]
                assert g.square(tm) == 0 and g.pair(t, tm) == 1
                for v in rows[2:]:
                    assert g.pair(v, t) == 0 and g.pair(v, tm) == 0
