"""Hopf structures on a presented algebra and their verification.

Elements of the algebra and of its tensor powers are one class,
:class:`kdeform.ncalg.TensorElement`, of rank 1 and rank r.  It is imported
here and stays reachable as ``hopf.TensorElement``, the name under which the
benchmark's tracer patches its product and ``merge_legs``; the tracer patches
the same product again under the old element name that ``ncalg`` keeps bound
to the class, so both of its product counters count every product.

:class:`HopfData` holds coproduct, antipode and counit values on generators,
checked at construction, and extends them to arbitrary elements
(multiplicatively, anti-multiplicatively, multiplicatively respectively);
each word's image is memoized by the one helper
:func:`kdeform.ncalg.word_image`, one cache per map.  A word's image is a
tensor: of rank 2 under the coproduct, rank 1 under the antipode and rank 0
under the counit.  The three leg maps share one helper that replaces a
single tensor leg by a word's image, and the coproduct and antipode of an
element are those leg maps at rank 1, and the counit of an element is the
counit leg map down to rank 0, read back as a Scalar.  A truncation is a
ring quotient, so a leg map reads each word's image at the order its term
leaves, from this structure cut to that order; it sums through
``scalar.accumulate`` and does no Scalar arithmetic.  Every map refuses a
tensor over another presentation.

``verify_axioms`` machine-checks the Hopf-algebra axioms: coassociativity,
counit and antipode axioms on generators, well-definedness on every rewrite
rule through the product g_i g_j that the rule rewrites, and (optionally)
counit/antipode axioms on all degree-2 words; one helper gives the counit
and antipode residuals of an element from its coproduct for both sweeps.
The degree-2 sweep computes each normal word's residuals once, the
generators' in the generator sweep, and judges a pair g_i g_j by linearity:
it passes when all its normal words do, and only a pair with a failing word
is computed again from g_i g_j itself.  All residuals are exact; a check
passes only when the residual is identically zero at the working
truncation.
``verify_reality`` checks the one star structure of :mod:`kdeform.ncalg`:
self-adjoint generators, real h.
"""

from __future__ import annotations

from .errors import KdeformError, PresentationError
from .ncalg import EMPTY_WORD, TensorElement, word_image
from .report import Report
from .scalar import Scalar, accumulate, merge_trunc


def otimes(a, b):
    """The rank-2 tensor a (x) b of two rank-1 elements."""
    return TensorElement.from_legs(a, b)


class HopfData:
    """Coproduct, antipode and counit on generators, extended on demand.

    ``coproduct``: dict gen index -> rank-2 TensorElement over ``pres``
    ``antipode``:  dict gen index -> rank-1 TensorElement over ``pres``
    ``counit``:    dict gen index -> Scalar

    A key that names no generator, a missing generator or a value of
    another kind raises ``PresentationError``.  The working truncation
    ``trunc`` is the merged truncation of the coproduct and antipode values;
    two different finite ones raise ``TruncationMismatch``.
    """

    def __init__(self, pres, coproduct, antipode, counit):
        self.pres = pres
        self.coproduct = dict(coproduct)
        self.antipode = dict(antipode)
        self.counit = dict(counit)
        n = len(pres.generators)
        for table, what, rank in (
            (self.coproduct, "coproduct", 2),
            (self.antipode, "antipode", 1),
            (self.counit, "counit", None),
        ):
            for i, value in table.items():
                lab = pres.label(i)  # refuses a key outside the generators
                if rank is None:
                    if not isinstance(value, Scalar):
                        raise PresentationError(
                            "counit of %s must be a Scalar" % lab
                        )
                elif not (isinstance(value, TensorElement)
                          and value.pres is pres and value.rank == rank):
                    raise PresentationError(
                        "%s of %s must be a rank-%d tensor over %s"
                        % (what, lab, rank, pres.name)
                    )
            missing = [i for i in range(n) if i not in table]
            if missing:
                raise PresentationError(
                    "%s missing for generators %s"
                    % (what, [pres.label(i) for i in missing])
                )
        trunc = None
        for value in (*self.coproduct.values(), *self.antipode.values()):
            trunc = merge_trunc(trunc, value.trunc)
        self.trunc = trunc
        self._cop_cache = {EMPTY_WORD: TensorElement.one(pres, 2, trunc)}
        self._antipode_cache = {EMPTY_WORD: TensorElement.one(pres, 1, trunc)}
        self._counit_cache = {EMPTY_WORD: TensorElement.one(pres, 0, trunc)}
        self._lower = {}  # lower order -> this structure cut to it
        # each map's step from a word's head image and last letter, built once
        cop, antip, eps = self.coproduct, self.antipode, self.counit
        self._cop_step = lambda head, g: head * cop[g]
        self._antipode_step = lambda head, g: antip[g] * head
        self._counit_step = lambda head, g: head and head * eps[g]

    def _at(self, trunc):
        """This structure at the order ``trunc``: itself at its own
        truncation, otherwise a structure whose coproduct and antipode
        tables, and its truncated counits, are cut to ``trunc`` by
        ``retrunc``, built at the first call and kept in ``_lower``."""
        if trunc == self.trunc:
            return self
        low = self._lower.get(trunc)
        if low is None:
            low = self._lower[trunc] = HopfData(
                self.pres,
                {i: v.retrunc(trunc) for i, v in self.coproduct.items()},
                {i: v.retrunc(trunc) for i, v in self.antipode.items()},
                {i: v if v.trunc is None else v.retrunc(trunc)
                 for i, v in self.counit.items()},
            )
        return low

    # --- word-level extensions ---------------------------------------------

    def cop_word(self, word):
        """Delta on a word, extended multiplicatively; memoized."""
        return word_image(self._cop_cache, word, self.cop_word, self._cop_step)

    def antipode_word(self, word):
        """S on a word, extended anti-multiplicatively; memoized."""
        return word_image(self._antipode_cache, word, self.antipode_word,
                          self._antipode_step)

    def counit_word(self, word):
        """epsilon on a word, extended multiplicatively, as a rank-0
        tensor; memoized."""
        return word_image(self._counit_cache, word, self.counit_word,
                          self._counit_step)

    # --- element-level maps -------------------------------------------------

    @staticmethod
    def _rank_one(elt):
        if not isinstance(elt, TensorElement):
            raise PresentationError(
                "needs a rank-1 element, not %s" % type(elt).__name__
            )
        if elt.rank != 1:
            raise PresentationError(
                "needs a rank-1 element, not rank %d" % elt.rank
            )
        return elt

    def cop(self, elt):
        """Delta of a rank-1 element: the coproduct leg map at rank 1."""
        return self.apply_cop_leg(self._rank_one(elt), 0)

    def antipode_of(self, elt):
        """S of a rank-1 element: the antipode leg map at rank 1."""
        return self.apply_antipode_leg(self._rank_one(elt), 0)

    def counit_of(self, elt):
        """epsilon of a rank-1 element, a Scalar: the counit leg map down to
        rank 0."""
        return self._leg_map(
            self._rank_one(elt), 0, 0, HopfData.counit_word
        ).coeff(())

    # --- tensor-leg applications --------------------------------------------

    def _leg_map(self, tensor, leg, rank, image):
        """``tensor`` with leg ``leg`` replaced by its image, of rank ``rank``
        and at the truncation of both.

        ``image(hopf, word)`` is the word's image, a tensor of rank 0, 1 or
        2 whose legs take the place of the one word.  A word in a term of
        bigrade (a, b) is read at the order (N_h - a, N_xi - b) the term
        leaves, so every image term lands in range.  A tensor over another
        presentation, or a ``leg`` outside ``range(tensor.rank)``, raises.
        """
        if tensor.pres is not self.pres:
            raise PresentationError(
                "a Hopf map needs a tensor over its own presentation %s"
                % self.pres.name
            )
        if leg not in range(tensor.rank):
            raise PresentationError(
                "no leg %r in a rank-%d tensor" % (leg, tensor.rank)
            )
        trunc = merge_trunc(self.trunc, tensor.trunc)
        kept = []
        for (key, a, b), c in tensor.terms.items():
            pre, word, post = key[:leg], key[leg], key[leg + 1:]
            hopf = (self if trunc is None
                    else self._at((trunc[0] - a, trunc[1] - b)))
            for (legs, ai, bi), ci in image(hopf, word).terms.items():
                kept.append((pre + legs + post, a + ai, b + bi, c * ci))
        out = accumulate({}, kept, trunc)
        return TensorElement._make(self.pres, rank, out, trunc)

    def apply_cop_leg(self, tensor, leg):
        """(.. (x) Delta (x) ..): rank grows by one at position ``leg``."""
        return self._leg_map(tensor, leg, tensor.rank + 1, HopfData.cop_word)

    def apply_antipode_leg(self, tensor, leg):
        return self._leg_map(tensor, leg, tensor.rank, HopfData.antipode_word)

    def apply_counit_leg(self, tensor, leg):
        """Contract one leg of a tensor of rank >= 2 with epsilon; rank drops
        by one.  The counit of a rank-1 element is ``counit_of``."""
        if tensor.rank < 2:
            raise PresentationError("counit leg map needs rank >= 2")
        return self._leg_map(tensor, leg, tensor.rank - 1,
                             HopfData.counit_word)


def verify_axioms(hopf, degree2=True):
    """Machine-check the Hopf axioms; returns a list of report checks.

    Generators: coassociativity, both counit axioms, both antipode axioms.
    Rules: Delta, S and epsilon respect every commutator and product rule
    (well-definedness on the quotient), checked through x = g_i g_j, which
    the product rewrites by the rule: Delta(g_i) Delta(g_j), S(g_j) S(g_i)
    and epsilon(g_i) epsilon(g_j) equal Delta(x), S(x) and epsilon(x).
    With ``degree2`` the counit and antipode axioms also run on all ordered
    degree-2 words.  Coassociativity needs no such sweep: Delta respects
    every rule, so (Delta (x) id)Delta and (id (x) Delta)Delta are algebra
    maps, and they agree on generators.

    The sweep computes each normal word's residuals once: the generator
    checks give the generators', the empty word's are zero, and any other
    word's are computed at its first use.  Every residual is linear in its
    element, with exact coefficients and a truncation that is a ring
    quotient, so a pair g_i g_j whose normal words all have zero residuals
    passes.  A pair with a word whose residuals are not zero is computed
    from g_i g_j itself, as its residual may still cancel, and the pairs
    that fail are listed as before.
    """
    pres = hopf.pres
    rep = Report("hopf axioms")
    n = len(pres.generators)
    one = TensorElement.one(pres, 1, hopf.trunc)

    def gen(i):
        return TensorElement.gen(pres, i, hopf.trunc)

    def axiom_residuals(x, cop):
        # the counit residuals, then the antipode residuals, of x from its
        # coproduct, each as (leg 0, leg 1)
        eps_x = one * hopf.counit_of(x)
        return (
            [hopf.apply_counit_leg(cop, leg) - x for leg in (0, 1)],
            [hopf.apply_antipode_leg(cop, leg).merge_legs() - eps_x
             for leg in (0, 1)],
        )

    def all_zero(residuals):
        return not any(r for rs in residuals for r in rs)

    # normal word -> whether its four axiom residuals are zero: the generator
    # loop enters the generators, and the empty word's are zero, as
    # Delta(1), S(1) and epsilon(1) are units
    clean = {EMPTY_WORD: True}

    def is_clean(word):
        if word not in clean:
            w = TensorElement._unit(pres, 1, (word,), hopf.trunc)
            clean[word] = all_zero(axiom_residuals(w, hopf.cop(w)))
        return clean[word]

    for i in range(n):
        g = gen(i)
        lab = pres.label(i)
        cop = hopf.cop(g)
        rep.zero(
            "coassoc[%s]" % lab,
            hopf.apply_cop_leg(cop, 0) - hopf.apply_cop_leg(cop, 1),
        )
        residuals = axiom_residuals(g, cop)
        clean[(i,)] = all_zero(residuals)
        for axiom, rs in zip(("counit", "antipode"), residuals):
            for side, r in zip(("left", "right"), rs):
                rep.zero("%s_%s[%s]" % (axiom, side, lab), r)

    for form, rules in (("[%s,%s]", pres.comm_rules),
                        ("%s*%s", pres.product_rules)):
        for i, j in rules:
            tag = form % (pres.label(i), pres.label(j))
            gi, gj = gen(i), gen(j)
            x = gi * gj
            rep.zero("cop_respects_%s" % tag,
                     hopf.cop(gi) * hopf.cop(gj) - hopf.cop(x))
            rep.zero("antipode_respects_%s" % tag,
                     hopf.antipode_of(gj) * hopf.antipode_of(gi)
                     - hopf.antipode_of(x))
            rep.zero("counit_respects_%s" % tag,
                     one * hopf.counit_of(x)
                     - one * hopf.counit_of(gi) * hopf.counit_of(gj))

    if degree2:
        bad = ([], [])
        for i in range(n):
            for j in range(n):
                x = gen(i) * gen(j)
                # the residuals are linear in x, so x passes when each of
                # its normal words does; otherwise x itself is checked
                if all(is_clean(legs[0]) for legs, _, _ in x.terms):
                    continue
                for pairs, residuals in zip(bad,
                                            axiom_residuals(x, hopf.cop(x))):
                    if not all(r.is_zero() for r in residuals):
                        pairs.append((pres.label(i), pres.label(j)))
        for axiom, pairs in zip(("counit", "antipode"), bad):
            rep.add("%s_axiom_degree2_all_pairs" % axiom, not pairs,
                    "" if not pairs else repr(pairs[:4]))
    return rep.checks


def verify_reality(hopf, conjugator):
    """Star-structure compatibility checks; returns report checks.

    For every generator g, with ``conjugator = (A, A_inv)``:
      * Delta(g*) == (* tensor *) Delta(g)
      * S((S(g*))*) == g
      * S(S(g)) == A g A_inv
    """
    pres = hopf.pres
    a, a_inv = conjugator
    rep = Report("reality conditions")
    for i in range(len(pres.generators)):
        g = TensorElement.gen(pres, i, hopf.trunc)
        lab = pres.label(i)
        rep.zero(
            "cop_star_compatible[%s]" % lab,
            hopf.cop(g.star()) - hopf.cop(g).star(),
        )
        rep.zero(
            "antipode_star_involutive[%s]" % lab,
            hopf.antipode_of(hopf.antipode_of(g.star()).star()) - g,
        )
        rep.zero(
            "antipode_square_conjugation[%s]" % lab,
            hopf.antipode_of(hopf.antipode_of(g)) - a * g * a_inv,
        )
    return rep.checks


def check_rmatrix_intertwiner(hopf, rmat):
    """Checks that ``rmat`` intertwines the coproduct with its flip:
    R Delta(g) = Delta(g)_21 R for every generator, together with the
    triangularity relation R_21 R = 1 (x) 1, the quantum Yang-Baxter
    equation R_12 R_13 R_23 = R_23 R_13 R_12 in the tensor cube, and
    counit normalization.

    ``rmat`` must be a unital perturbation in the tensor square (1 (x) 1
    plus positive-bigrade terms); anything else raises.
    """
    from .series import perturbation_part, unital_inverse

    try:
        perturbation_part(rmat)
    except KdeformError as exc:
        raise KdeformError("R is not a unital perturbation: %s" % exc)

    rep = Report(
        "R-matrix intertwiner",
        {"rank": str(rmat.rank), "trunc": str(rmat.trunc)},
    )

    pres = hopf.pres
    one2 = TensorElement.one(pres, 2, rmat.trunc)
    rep.zero("invertible", rmat * unital_inverse(rmat) - one2)
    rep.zero("triangular", rmat.swap() * rmat - one2)
    r12 = TensorElement.from_legs(rmat, TensorElement.one(pres, 1))
    r13 = r12.permute_legs((0, 2, 1))
    r23 = r12.permute_legs((2, 0, 1))
    rep.zero("qybe", r12 * r13 * r23 - r23 * r13 * r12)
    one1 = TensorElement.one(pres, 1, rmat.trunc)
    rep.zero("counit_left", hopf.apply_counit_leg(rmat, 0) - one1)
    rep.zero("counit_right", hopf.apply_counit_leg(rmat, 1) - one1)
    for i in range(len(pres.generators)):
        cop = hopf.cop(TensorElement.gen(pres, i, rmat.trunc))
        rep.zero("intertwines[%s]" % pres.label(i),
                 rmat * cop - cop.swap() * rmat)
    return rep
