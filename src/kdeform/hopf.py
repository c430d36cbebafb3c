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
counit leg map down to rank 0, read back as a Scalar.  A leg map reads a
word's image in rising h-degree, its memoized ``TensorElement.by_h``, tests
each term pair's degrees with ``scalar._keep`` and stops the row at the
first pair out of range in h, as the product kernel of :mod:`kdeform.ncalg`
does; it sums through ``ncalg.accumulate`` and does no Scalar arithmetic.

``verify_axioms`` machine-checks the Hopf-algebra axioms: coassociativity,
counit and antipode axioms on generators, well-definedness on every rewrite
rule, and (optionally) counit/antipode axioms on all degree-2 words; one
helper gives the counit and antipode residuals of an element from its
coproduct for both sweeps.  All residuals are exact; a check passes only
when the residual is identically zero at the working truncation.
``verify_reality`` checks the one star structure of :mod:`kdeform.ncalg`:
self-adjoint generators, real h.
"""

from __future__ import annotations

from . import scalar
from .errors import KdeformError, PresentationError
from .ncalg import EMPTY_WORD, TensorElement, accumulate, word_image
from .report import Report
from .scalar import Scalar, merge_trunc


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

    # --- word-level extensions ---------------------------------------------

    def cop_word(self, word):
        """Delta on a word, extended multiplicatively; memoized."""
        return word_image(self._cop_cache, word, self.cop_word,
                          lambda head, g: head * self.coproduct[g])

    def antipode_word(self, word):
        """S on a word, extended anti-multiplicatively; memoized."""
        return word_image(self._antipode_cache, word, self.antipode_word,
                          lambda head, g: self.antipode[g] * head)

    def counit_word(self, word):
        """epsilon on a word, extended multiplicatively, as a rank-0
        tensor; memoized."""
        return word_image(self._counit_cache, word, self.counit_word,
                          lambda head, g: head and head * self.counit[g])

    # --- element-level maps -------------------------------------------------

    @staticmethod
    def _rank_one(elt):
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
            self._rank_one(elt), 0, 0, self.counit_word
        ).coeff(())

    # --- tensor-leg applications --------------------------------------------

    def _leg_map(self, tensor, leg, rank, image):
        """``tensor`` with leg ``leg`` replaced by its image, of rank ``rank``
        and at the truncation of both.

        ``image(word)`` is the word's image, a tensor of rank 0, 1 or 2
        whose legs take the place of the one word; its terms are read in
        rising h-degree.  A ``leg`` outside ``range(tensor.rank)`` raises.
        """
        if leg not in range(tensor.rank):
            raise PresentationError(
                "no leg %r in a rank-%d tensor" % (leg, tensor.rank)
            )
        trunc = merge_trunc(self.trunc, tensor.trunc)
        keep = scalar._keep
        kept = []
        for (key, a, b), c in tensor.terms.items():
            pre, word, post = key[:leg], key[leg], key[leg + 1:]
            for legs, ai, bi, ci in image(word).by_h():
                ah = a + ai
                bh = b + bi
                if trunc is not None and not keep((ah, bh), trunc):
                    if keep((ah, 0), trunc):
                        continue
                    # the image terms come in rising h-degree
                    break
                kept.append((pre + legs + post, ah, bh, c * ci))
        out = accumulate({}, kept, trunc)
        return TensorElement._make(self.pres, rank, out, trunc)

    def apply_cop_leg(self, tensor, leg):
        """(.. (x) Delta (x) ..): rank grows by one at position ``leg``."""
        return self._leg_map(tensor, leg, tensor.rank + 1, self.cop_word)

    def apply_antipode_leg(self, tensor, leg):
        return self._leg_map(tensor, leg, tensor.rank, self.antipode_word)

    def apply_counit_leg(self, tensor, leg):
        """Contract one leg of a tensor of rank >= 2 with epsilon; rank drops
        by one.  The counit of a rank-1 element is ``counit_of``."""
        if tensor.rank < 2:
            raise PresentationError("counit leg map needs rank >= 2")
        return self._leg_map(tensor, leg, tensor.rank - 1, self.counit_word)


def verify_axioms(hopf, degree2=True):
    """Machine-check the Hopf axioms; returns a list of report checks.

    Generators: coassociativity, both counit axioms, both antipode axioms.
    Rules: Delta, S and epsilon respect every commutator and product rule
    (well-definedness on the quotient).  With ``degree2`` the counit and
    antipode axioms also run on all ordered degree-2 words.  Coassociativity
    needs no such sweep: Delta respects every rule, so (Delta (x) id)Delta
    and (id (x) Delta)Delta are algebra maps, and they agree on generators.
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

    for i in range(n):
        g = gen(i)
        lab = pres.label(i)
        cop = hopf.cop(g)
        rep.zero(
            "coassoc[%s]" % lab,
            hopf.apply_cop_leg(cop, 0) - hopf.apply_cop_leg(cop, 1),
        )
        for axiom, residuals in zip(("counit", "antipode"),
                                    axiom_residuals(g, cop)):
            for side, r in zip(("left", "right"), residuals):
                rep.zero("%s_%s[%s]" % (axiom, side, lab), r)

    rules = [(ij, rhs, True) for ij, rhs in pres.comm_rules.items()] + [
        (ij, rhs, False) for ij, rhs in pres.product_rules.items()
    ]
    for (i, j), rhs, is_comm in rules:
        li, lj = pres.label(i), pres.label(j)
        gi, gj = gen(i), gen(j)
        rhs_elt = TensorElement.from_words(pres, rhs) * Scalar.one(hopf.trunc)
        ci, cj = hopf.cop(gi), hopf.cop(gj)
        si, sj = hopf.antipode_of(gi), hopf.antipode_of(gj)
        if is_comm:
            tag = "[%s,%s]" % (li, lj)
            drec = ci * cj - cj * ci - hopf.cop(rhs_elt)
            srec = sj * si - si * sj - hopf.antipode_of(rhs_elt)
            erec = one * hopf.counit_of(rhs_elt)
        else:
            tag = "%s*%s" % (li, lj)
            drec = ci * cj - hopf.cop(rhs_elt)
            srec = sj * si - hopf.antipode_of(rhs_elt)
            erec = (one * hopf.counit_of(gi) * hopf.counit_of(gj)
                    - one * hopf.counit_of(rhs_elt))
        rep.zero("cop_respects_%s" % tag, drec)
        rep.zero("antipode_respects_%s" % tag, srec)
        rep.zero("counit_respects_%s" % tag, erec)

    if degree2:
        bad = ([], [])
        for i in range(n):
            for j in range(n):
                x = gen(i) * gen(j)
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
