"""The benchmark's workloads: their items, inputs drawn from a seed, and checks.

An item is one user-visible verification: a set-up step (``Model``,
``build_twist`` or ``change_basis`` construction) followed by the checks it
feeds.  Every item builds its own objects, so the rewriting and Hopf caches
start cold, as they do for a user.  An item passes when nothing raises, every
report it returns is ``ok``, and the sha256 of its rendered output equals the
expected digest.  The rendered output is the report JSON followed, for the
Hopf-algebra items, by the reprs of the coproduct and antipode of every
generator (for ``twist-t1``, the twisted ones), so that a fault which keeps
the checks self-consistent, such as a lowered truncation, still changes it.

Expected digests are pinned in ``digests.json`` from the seed commit.  Only
``exact-small`` draws inputs from the seed; the other two workloads are the
same runs for every seed.  The Schouten items of ``exact-small`` depend on
the seed; for a seed without pins their expected report is predicted from
[[r, r]] = -tau^2 Omega, which fixes every field of that report.

Why these workloads:

* ``hopf-d4`` -- Hopf axioms of the covariant h-adic d=4 Minkowski model at
  truncations (1,0), (2,0), (3,0).  h-only truncated scalars with small
  integer coefficients and the largest rewriting cache; the antipode legs and
  ``merge_legs`` dominate.
* ``twist-t1`` -- the T1 twist of the 1+3 model at (3,2): cocycle check, then
  Delta_F = F Delta F^-1 and S_F on all generators.  Two-parameter scalars
  (h, xi), a 135-term F and rank-3 products; the tensor multiply dominates,
  rewriting is small.
* ``exact-small`` -- 14 short exact-mode items: the timelike and lightlike
  q-analogs in d=3, 4 (Hopf axioms, reality, Casimirs) and the Schouten
  identity on 5 random congruence images of Minkowski space in d=3 and d=4
  each.  Laurent coefficients, product rules and larger rational
  denominators; the wedge calculus runs with no rewriting; fixed per-call
  and set-up costs weigh more.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from kdeform import model as km
from kdeform import rmatrix, twist

MINK3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
MINK4 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
TIME4 = (1, 0, 0, 0)

DIGESTS_FILE = Path(__file__).with_name("digests.json")


class Item:
    """One workload item: ``verify(setup())`` returns (reports, extras)."""

    __slots__ = ("name", "setup", "verify", "expected")

    def __init__(self, name, setup, verify, expected):
        self.name = name
        self.setup = setup
        self.verify = verify
        self.expected = expected


def render(reports, extras=()):
    """The exact output of an item: report JSON, then reprs of extra objects."""
    return "\n".join([r.to_json() for r in reports] + [repr(x) for x in extras])


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    with open(DIGESTS_FILE) as f:
        return json.load(f)


def generator_maps(hopf):
    """The computed coproduct and antipode of every generator, in order."""
    n = len(hopf.pres.generators)
    return ([hopf.coproduct[i] for i in range(n)]
            + [hopf.antipode[i] for i in range(n)])


# --- hopf-d4 -------------------------------------------------------------------


def verify_hopf(m):
    return [km.hopf_axiom_check(m, degree2=True)], generator_maps(m.hopf)


def _hopf_d4(seed, pins):
    items = []
    for trunc in ((1, 0), (2, 0), (3, 0)):
        name = "hopf_axioms%s" % (trunc,)
        items.append(Item(
            name,
            lambda trunc=trunc: km.Model(
                km.ModelConfig(MINK4, TIME4, "covariant_hadic", trunc)),
            verify_hopf,
            pins["items"][name],
        ))
    return items


# --- twist-t1 ------------------------------------------------------------------


def _twist_setup():
    m = km.Model(km.ModelConfig(MINK4, TIME4, "orthog_1_plus", (3, 2)))
    return m, twist.build_twist("T1", m)


def verify_twist(state):
    m, f = state
    rep = twist.cocycle_check(f, m.hopf)
    twisted = twist.twist_hopf(m.hopf, f, check=False)
    return [rep], generator_maps(twisted)


def _twist_t1(seed, pins):
    return [Item("twist_T1(3, 2)", _twist_setup, verify_twist,
                 pins["items"]["twist_T1(3, 2)"])]


# --- exact-small ---------------------------------------------------------------


def _q_verify(m):
    reports = [km.hopf_axiom_check(m), km.reality_check(m), km.casimir_check(m)]
    return reports, generator_maps(m.hopf)


def _pair(g, u, v):
    return sum(u[a] * g[a][b] * v[b] for a in range(len(u)) for b in range(len(v)))


def _det(rows):
    """Exact determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def schouten_inputs(seed):
    """(dim, base metric, rows, tau) for the 10 Schouten items of a seed.

    Rows of a non-degenerate basis and a non-zero tau, drawn as the
    randomized Schouten test of the suite draws them.
    """
    rng = random.Random(seed)
    out = []
    for dim, base in ((3, MINK3), (4, MINK4)):
        for _ in range(5):
            while True:
                rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(dim)] for _ in range(dim)]
                if _det(rows):
                    break
            tau = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(dim)]
            if not any(tau):
                tau[0] = Fraction(1)
            out.append((dim, base, rows, tau))
    return out


def predicted_schouten_report(base, rows, tau):
    """The report JSON that [[r, r]] = -tau^2 Omega fixes for these inputs."""
    g = [[_pair(base, u, v) for v in rows] for u in rows]
    t2 = _pair(g, tau, tau)
    kind = "MYBE" if t2 else "CYBE"
    checks = [
        {"name": "schouten_equals_minus_tau2_omega", "passed": True},
        {"name": "mybe_lambda" if t2 else "null_tau_cybe", "passed": True,
         "detail": kind},
    ]
    doc = {"title": "schouten identity", "header": {"tau2": str(t2)},
           "ok": True, "n_checks": 2, "n_failed": 0, "checks": checks}
    return json.dumps(doc, indent=2, sort_keys=True)


def _exact_small(seed, pins):
    items = []
    for flavor, cases in (
        ("qanalog_timelike", ((MINK3, (1, 0, 0)), (MINK4, TIME4))),
        ("qanalog_lightlike", ((MINK3, (1, 1, 0)), (MINK4, (1, 1, 0, 0)))),
    ):
        for g, tau in cases:
            name = "%s_d%d" % (flavor, len(tau))
            items.append(Item(
                name,
                lambda g=g, tau=tau, flavor=flavor: km.Model(
                    km.ModelConfig(g, tau, flavor, None)),
                _q_verify,
                pins["items"][name],
            ))
    seeded = pins["seeded"].get(str(seed), {})
    for k, (dim, base, rows, tau) in enumerate(schouten_inputs(seed)):
        name = "schouten_d%d_%d" % (dim, k % 5)
        expected = seeded.get(name)
        if expected is None:
            expected = digest(predicted_schouten_report(base, rows, tau))
        items.append(Item(
            name,
            lambda base=base, rows=rows: km.change_basis(km.build_iso(base), rows),
            lambda pres, tau=tau: ([rmatrix.schouten_identity_check(
                pres.iso_data["metric"], tau, pres)], ()),
            expected,
        ))
    return items


WORKLOADS = {
    "hopf-d4": _hopf_d4,
    "twist-t1": _twist_t1,
    "exact-small": _exact_small,
}


def build(workload, seed):
    """The items of a workload for a seed, with their expected digests."""
    return WORKLOADS[workload](seed, load_digests())
