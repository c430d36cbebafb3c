"""Hopf structures on a presented algebra and their verification.

Elements of the algebra and of its tensor powers are one class,
:class:`kdeform.ncalg.TensorElement`, of rank 1 and rank r.  It is imported
here and stays reachable as ``hopf.TensorElement``, the name under which the
benchmark's tracer patches its product and ``merge_legs``; the tracer patches
the same product again under the old element name that ``ncalg`` keeps bound
to the class, so both of its product counters count every product.

:class:`HopfData` holds coproduct, antipode and counit values on generators
and extends them to arbitrary elements (multiplicatively,
anti-multiplicatively, multiplicatively respectively), with memoized
word-level caches; the three leg maps share one helper that replaces a
single tensor leg by a word's image, and the coproduct and antipode of an
element are those leg maps at rank 1.  The coproduct and antipode leg maps
skip the image terms that vanish against the tensor term's coefficient;
those images are indexed by floor (``ncalg.FloorIndex``) once per word,
alongside their memoized values.

``verify_axioms`` machine-checks the Hopf-algebra axioms: coassociativity,
counit and antipode axioms on generators, well-definedness on every rewrite
rule, and (optionally) counit/antipode axioms on all degree-2 words.  All
residuals are exact; a check passes only when the residual is identically
zero at the working truncation.
"""

from __future__ import annotations

from .errors import KdeformError, PresentationError
from .ncalg import EMPTY_WORD, FloorIndex, TensorElement, accumulate
from .report import Report
from .scalar import Scalar, merge_trunc


def otimes(a, b):
    """The rank-2 tensor a (x) b of two rank-1 elements."""
    return TensorElement.from_legs(a, b)


class HopfData:
    """Coproduct, antipode and counit on generators, extended on demand.

    ``coproduct``: dict gen index -> rank-2 TensorElement
    ``antipode``:  dict gen index -> rank-1 TensorElement
    ``counit``:    dict gen index -> Scalar
    """

    def __init__(self, pres, coproduct, antipode, counit, trunc=None):
        self.pres = pres
        self.coproduct = dict(coproduct)
        self.antipode = dict(antipode)
        self.counit = dict(counit)
        self.trunc = trunc
        n = len(pres.generators)
        for table, what in (
            (self.coproduct, "coproduct"),
            (self.antipode, "antipode"),
            (self.counit, "counit"),
        ):
            missing = [i for i in range(n) if i not in table]
            if missing:
                raise PresentationError(
                    "%s missing for generators %s"
                    % (what, [pres.label(i) for i in missing])
                )
        self._cop_cache = {EMPTY_WORD: TensorElement.one(pres, 2, trunc)}
        self._antipode_cache = {EMPTY_WORD: TensorElement.one(pres, 1, trunc)}
        self._counit_cache = {EMPTY_WORD: Scalar.one(trunc)}
        # word -> FloorIndex of its image's terms, keyed by legs
        self._cop_index = {}
        self._antipode_index = {}

    # --- word-level extensions ---------------------------------------------

    def cop_word(self, word):
        """Delta on a word, extended multiplicatively; memoized."""
        word = tuple(word)
        cached = self._cop_cache.get(word)
        if cached is not None:
            return cached
        head = word[:-1]
        out = self.cop_word(head) * self.coproduct[word[-1]]
        self._cop_cache[word] = out
        return out

    def antipode_word(self, word):
        """S on a word, extended anti-multiplicatively; memoized."""
        word = tuple(word)
        cached = self._antipode_cache.get(word)
        if cached is not None:
            return cached
        head = word[:-1]
        out = self.antipode[word[-1]] * self.antipode_word(head)
        self._antipode_cache[word] = out
        return out

    def counit_word(self, word):
        """epsilon on a word, extended multiplicatively; memoized."""
        word = tuple(word)
        cached = self._counit_cache.get(word)
        if cached is not None:
            return cached
        out = self.counit_word(word[:-1])
        if out:
            out = out * self.counit[word[-1]]
        self._counit_cache[word] = out
        return out

    # --- element-level maps -------------------------------------------------

    def cop(self, elt):
        """Delta of an element: the coproduct leg map at rank 1."""
        return self.apply_cop_leg(elt, 0)

    def antipode_of(self, elt):
        """S of an element: the antipode leg map at rank 1."""
        return self.apply_antipode_leg(elt, 0)

    def counit_of(self, elt):
        """epsilon of a rank-1 element, a Scalar."""
        total = Scalar.zero(merge_trunc(self.trunc, elt.trunc))
        for (w,), c in elt.terms.items():
            total = total + self.counit_word(w) * c
        return total

    # --- tensor-leg applications --------------------------------------------

    @staticmethod
    def _leg_map(tensor, leg, image):
        """Terms of ``tensor`` with leg ``leg`` replaced by its image.

        ``image(word, c)`` yields the (legs, coeff) terms of the word's image
        to pair with a tensor term of coefficient ``c``, where ``legs`` is a
        tuple of 0, 1 or 2 words that takes the place of the one word.
        """
        return accumulate({}, (
            (key[:leg] + legs + key[leg + 1:], c * ci)
            for key, c in tensor.terms.items()
            for legs, ci in image(key[leg], c)
        ))

    @staticmethod
    def _live(memo, word, terms, c):
        # the terms of a memoized word image whose product with c the floor
        # rule does not rule out; the image's FloorIndex is built once per word
        index = memo.get(word)
        if index is None:
            index = memo[word] = FloorIndex(terms)
        return index.live(c)

    def apply_cop_leg(self, tensor, leg):
        """(.. (x) Delta (x) ..): rank grows by one at position ``leg``."""
        out = self._leg_map(tensor, leg, lambda w, c: self._live(
            self._cop_index, w, self.cop_word(w).terms, c
        ))
        return TensorElement._make(
            self.pres, tensor.rank + 1, out, merge_trunc(self.trunc, tensor.trunc)
        )

    def apply_antipode_leg(self, tensor, leg):
        out = self._leg_map(tensor, leg, lambda w, c: self._live(
            self._antipode_index, w, self.antipode_word(w).terms, c
        ))
        return TensorElement._make(
            self.pres, tensor.rank, out, merge_trunc(self.trunc, tensor.trunc)
        )

    def apply_counit_leg(self, tensor, leg):
        """Contract one leg of a tensor of rank >= 2 with epsilon; rank drops
        by one.  The counit of a rank-1 element is ``counit_of``."""
        if tensor.rank < 2:
            raise PresentationError("counit leg map needs rank >= 2")
        # a word's counit is one memoized scalar, so the leg map takes no
        # floor index: its test would cost more than the product it skips
        out = self._leg_map(
            tensor, leg, lambda w, c: (((), self.counit_word(w)),)
        )
        return TensorElement._make(
            self.pres, tensor.rank - 1, out, merge_trunc(self.trunc, tensor.trunc)
        )


def verify_axioms(hopf, degree2=True, coassoc_pairs=False):
    """Machine-check the Hopf axioms; returns a list of report checks.

    Generators: coassociativity, both counit axioms, both antipode axioms.
    Rules: Delta, S and epsilon respect every commutator and product rule
    (well-definedness on the quotient).  With ``degree2`` the counit and
    antipode axioms also run on all ordered degree-2 words; with
    ``coassoc_pairs`` coassociativity does too (slower).
    """
    pres = hopf.pres
    rep = Report("hopf axioms")
    n = len(pres.generators)
    one = TensorElement.one(pres, 1, hopf.trunc)

    def gen(i):
        return TensorElement.gen(pres, i, hopf.trunc)

    for i in range(n):
        g = gen(i)
        lab = pres.label(i)
        cop = hopf.cop(g)
        rep.zero(
            "coassoc[%s]" % lab,
            hopf.apply_cop_leg(cop, 0) - hopf.apply_cop_leg(cop, 1),
        )
        rep.zero("counit_left[%s]" % lab, hopf.apply_counit_leg(cop, 0) - g)
        rep.zero("counit_right[%s]" % lab, hopf.apply_counit_leg(cop, 1) - g)
        eps_g = one * hopf.counit_of(g)
        rep.zero(
            "antipode_left[%s]" % lab,
            hopf.apply_antipode_leg(cop, 0).merge_legs() - eps_g,
        )
        rep.zero(
            "antipode_right[%s]" % lab,
            hopf.apply_antipode_leg(cop, 1).merge_legs() - eps_g,
        )

    def rule_items():
        for (i, j), rhs in pres.comm_rules.items():
            yield i, j, rhs, True
        for (i, j), rhs in pres.product_rules.items():
            yield i, j, rhs, False

    for i, j, rhs, is_comm in rule_items():
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
            erec = one * (
                hopf.counit_of(gi) * hopf.counit_of(gj)
                - hopf.counit_of(rhs_elt)
            )
        rep.zero("cop_respects_%s" % tag, drec)
        rep.zero("antipode_respects_%s" % tag, srec)
        rep.zero("counit_respects_%s" % tag, erec)

    if degree2:
        # (check name, residuals of its axiom on a degree-2 word x)
        table = [
            ("counit_axiom_degree2_all_pairs", lambda x, cop: [
                hopf.apply_counit_leg(cop, leg) - x for leg in (0, 1)
            ]),
            ("antipode_axiom_degree2_all_pairs", lambda x, cop: [
                hopf.apply_antipode_leg(cop, leg).merge_legs() - eps_x
                for eps_x in (one * hopf.counit_of(x),)
                for leg in (0, 1)
            ]),
        ]
        if coassoc_pairs:
            table.append(("coassoc_degree2_all_pairs", lambda x, cop: [
                hopf.apply_cop_leg(cop, 0) - hopf.apply_cop_leg(cop, 1)
            ]))
        bad = {name: [] for name, _ in table}
        for i in range(n):
            for j in range(n):
                x = gen(i) * gen(j)
                cop = hopf.cop(x)
                for name, residuals in table:
                    if not all(r.is_zero() for r in residuals(x, cop)):
                        bad[name].append((pres.label(i), pres.label(j)))
        for name, _ in table:
            rep.add(name, not bad[name],
                    "" if not bad[name] else repr(bad[name][:4]))
    return rep.checks


def verify_reality(hopf, h_sign=1, conjugator=None):
    """Star-structure compatibility checks; returns report checks.

    For every generator g:
      * Delta(g*) == (* tensor *) Delta(g)
      * S((S(g*))*) == g
    With ``conjugator=(A, A_inv)`` also checks S(S(g)) == A g A_inv.
    """
    pres = hopf.pres
    rep = Report("reality conditions")
    for i in range(len(pres.generators)):
        g = TensorElement.gen(pres, i, hopf.trunc)
        lab = pres.label(i)
        rep.zero(
            "cop_star_compatible[%s]" % lab,
            hopf.cop(g.star(h_sign=h_sign)) - hopf.cop(g).star(h_sign=h_sign),
        )
        rep.zero(
            "antipode_star_involutive[%s]" % lab,
            hopf.antipode_of(hopf.antipode_of(g.star(h_sign=h_sign)).star(h_sign=h_sign))
            - g,
        )
        if conjugator is not None:
            a, a_inv = conjugator
            rep.zero(
                "antipode_square_conjugation[%s]" % lab,
                hopf.antipode_of(hopf.antipode_of(g)) - a * g * a_inv,
            )
    return rep.checks


def check_rmatrix_intertwiner(hopf, hopf_universal, rmat):
    """Checks that ``rmat`` intertwines two coproducts on the same algebra:
    R Delta(g) = Delta'(g) R for every generator, together with the
    triangularity relation R_21 R = 1 (x) 1 and counit normalization.

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
    one1 = TensorElement.one(pres, 1, rmat.trunc)
    rep.zero("counit_left", hopf.apply_counit_leg(rmat, 0) - one1)
    rep.zero("counit_right", hopf.apply_counit_leg(rmat, 1) - one1)
    for i in range(len(pres.generators)):
        g = TensorElement.gen(pres, i, rmat.trunc)
        rep.zero(
            "intertwines[%s]" % pres.label(i),
            rmat * hopf.cop(g) - hopf_universal.cop(g) * rmat,
        )
    return rep
