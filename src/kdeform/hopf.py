"""Tensor products over a presented algebra and Hopf-structure verification.

A :class:`TensorElement` of rank r stores terms as dicts mapping r-tuples of
normal words to Scalar coefficients, summed with ``ncalg.accumulate`` like
the element layer's.  Products act legwise through the presentation's
normalize cache.  :class:`HopfData` holds coproduct, antipode and counit
values on generators and extends them to arbitrary elements
(multiplicatively, anti-multiplicatively, multiplicatively respectively),
with memoized word-level caches; the three leg maps share one helper that
replaces a single tensor leg by a word's image.

``verify_axioms`` machine-checks the Hopf-algebra axioms: coassociativity,
counit and antipode axioms on generators, well-definedness on every rewrite
rule, and (optionally) counit/antipode axioms on all degree-2 words.  All
residuals are exact; a check passes only when the residual is identically
zero at the working truncation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import KdeformError, PresentationError
from .ncalg import EMPTY_WORD, AlgElement, accumulate
from .report import Report
from .scalar import GaussianRational, Scalar, merge_trunc


class TensorElement:
    """An element of the rank-fold tensor power of a presented algebra."""

    __slots__ = ("pres", "rank", "terms", "trunc")

    def __init__(self, pres, rank, terms=None, trunc=None):
        self.pres = pres
        self.rank = rank
        clean = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple(tuple(w) for w in key)
                if len(key) != rank:
                    raise PresentationError(
                        "tensor key %r has wrong rank (expected %d)" % (key, rank)
                    )
                if coeff:
                    clean[key] = coeff
        self.terms = clean
        self.trunc = trunc

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, pres, trunc=None, rank=2):
        return cls(pres, rank, {}, trunc)

    @classmethod
    def one(cls, pres, trunc=None, rank=2):
        key = (EMPTY_WORD,) * rank
        return cls(pres, rank, {key: Scalar.one(trunc)}, trunc)

    @classmethod
    def from_legs(cls, *legs):
        """Outer product of AlgElements, one per leg."""
        pres = legs[0].pres
        trunc = None
        for leg in legs:
            if leg.pres is not pres:
                raise PresentationError("tensor legs in different presentations")
            trunc = merge_trunc(trunc, leg.trunc)
        terms = {(): Scalar.one()}
        for leg in legs:
            new = {}
            for key, c in terms.items():
                for w, cw in leg.terms.items():
                    cc = c * cw
                    if cc:
                        new[key + (w,)] = cc
            terms = new
        return cls(pres, len(legs), terms, trunc)

    # --- arithmetic -------------------------------------------------------

    def _require_like(self, other):
        if self.pres is not other.pres or self.rank != other.rank:
            raise PresentationError("tensor rank/presentation mismatch")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        trunc = merge_trunc(self.trunc, other.trunc)
        out = accumulate(dict(self.terms), other.terms.items())
        return TensorElement(self.pres, self.rank, out, trunc)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TensorElement(
            self.pres, self.rank, {k: -c for k, c in self.terms.items()}, self.trunc
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            trunc = self.trunc
            if isinstance(other, Scalar):
                trunc = merge_trunc(self.trunc, other.trunc)
            return TensorElement(
                self.pres,
                self.rank,
                {k: c * other for k, c in self.terms.items()},
                trunc,
            )
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        trunc = merge_trunc(self.trunc, other.trunc)
        norm = self.pres.normalize_word
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c12 = c1 * c2
                if not c12:
                    continue
                # legwise products through the shared normalize cache; the
                # keys of one term pair never repeat, so zeros are only dropped
                partial = [((), c12)]
                for leg in range(self.rank):
                    legterms = norm(k1[leg] + k2[leg]).items()
                    partial = [
                        (key + (w,), cc)
                        for key, c in partial
                        for w, cw in legterms
                        for cc in (c * cw,) if cc
                    ]
                    if not partial:
                        break
                accumulate(out, partial)
        return TensorElement(self.pres, self.rank, out, trunc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.pres is other.pres
            and self.rank == other.rank
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # --- structure --------------------------------------------------------

    def coeff(self, key):
        return self.terms.get(
            tuple(tuple(w) for w in key), Scalar.zero(self.trunc)
        )

    def retrunc(self, new_trunc):
        out = {}
        for k, c in self.terms.items():
            c2 = c.retrunc(new_trunc)
            if c2:
                out[k] = c2
        return TensorElement(self.pres, self.rank, out, new_trunc)

    def permute_legs(self, perm):
        """Reorder legs: new key[j] = old key[perm[j]]."""
        if sorted(perm) != list(range(self.rank)):
            raise PresentationError("bad leg permutation %r" % (perm,))
        out = accumulate({}, (
            (tuple(key[p] for p in perm), c) for key, c in self.terms.items()
        ))
        return TensorElement(self.pres, self.rank, out, self.trunc)

    def swap(self):
        """The flip a (x) b -> b (x) a on rank-2 tensors."""
        if self.rank != 2:
            raise PresentationError("swap is for rank 2; use permute_legs")
        return self.permute_legs((1, 0))

    def merge_legs(self):
        """Multiply all legs together: a (x) b (x) ... -> a*b*...; returns an
        AlgElement."""
        norm = self.pres.normalize_word
        out = accumulate({}, (
            (nw, c * nc)
            for key, c in self.terms.items()
            for nw, nc in norm(sum(key, ())).items()
        ))
        return AlgElement(self.pres, out, self.trunc)

    def star(self, h_sign=1):
        """Legwise adjoint (no leg reversal): (a (x) b)* = a* (x) b*."""
        out = TensorElement.zero(self.pres, self.trunc, self.rank)
        star_cache = {}
        for key, c in self.terms.items():
            legs = []
            for w in key:
                img = star_cache.get(w)
                if img is None:
                    img = AlgElement(
                        self.pres, {w: Scalar.one(self.trunc)}, self.trunc
                    ).star(h_sign=h_sign)
                    star_cache[w] = img
                legs.append(img)
            piece = TensorElement.from_legs(*legs) * c.conjugate(h_sign=h_sign)
            out = out + piece
        return out

    def map_scalars(self, fn):
        out = {}
        for k, c in self.terms.items():
            c2 = fn(c)
            if c2:
                out[k] = c2
        return TensorElement(self.pres, self.rank, out, self.trunc)

    def __repr__(self):
        if not self.terms:
            return "0(x)" + str(self.rank)
        bits = []
        for key in sorted(self.terms):
            legs = " (x) ".join(self.pres._word_str(w) for w in key)
            bits.append("(%r)*[%s]" % (self.terms[key], legs))
        return " + ".join(bits)


def otimes(a, b):
    """The rank-2 tensor a (x) b of two AlgElements."""
    return TensorElement.from_legs(a, b)


def promote(elt, rank=2, leg=0):
    """Embed an AlgElement into one leg of a rank-r tensor, units elsewhere."""
    legs = []
    for j in range(rank):
        if j == leg:
            legs.append(elt)
        else:
            legs.append(AlgElement.one(elt.pres, elt.trunc))
    return TensorElement.from_legs(*legs)


class HopfData:
    """Coproduct, antipode and counit on generators, extended on demand.

    ``coproduct``: dict gen index -> rank-2 TensorElement
    ``antipode``:  dict gen index -> AlgElement
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
        self._cop_cache = {
            EMPTY_WORD: TensorElement.one(pres, trunc, rank=2)
        }
        self._antipode_cache = {EMPTY_WORD: AlgElement.one(pres, trunc)}

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
        total = Scalar.one(self.trunc)
        for letter in word:
            total = total * self.counit[letter]
            if not total:
                break
        return total

    # --- element-level maps -------------------------------------------------

    def cop(self, elt):
        trunc = merge_trunc(self.trunc, elt.trunc)
        out = accumulate({}, (
            (key, c * ci)
            for w, c in elt.terms.items()
            for key, ci in self.cop_word(w).terms.items()
        ))
        return TensorElement(self.pres, 2, out, trunc)

    def antipode_of(self, elt):
        trunc = merge_trunc(self.trunc, elt.trunc)
        out = accumulate({}, (
            (nw, c * ci)
            for w, c in elt.terms.items()
            for nw, ci in self.antipode_word(w).terms.items()
        ))
        return AlgElement(self.pres, out, trunc)

    def counit_of(self, elt):
        total = Scalar.zero(merge_trunc(self.trunc, elt.trunc))
        for w, c in elt.terms.items():
            total = total + self.counit_word(w) * c
        return total

    # --- tensor-leg applications --------------------------------------------

    @staticmethod
    def _leg_map(tensor, leg, image):
        """Terms of ``tensor`` with leg ``leg`` replaced by its image.

        ``image(word)`` yields (legs, coeff) pairs, where ``legs`` is a tuple
        of 0, 1 or 2 words that takes the place of the one word.
        """
        return accumulate({}, (
            (key[:leg] + legs + key[leg + 1:], c * ci)
            for key, c in tensor.terms.items()
            for legs, ci in image(key[leg])
        ))

    def apply_cop_leg(self, tensor, leg):
        """(.. (x) Delta (x) ..): rank grows by one at position ``leg``."""
        out = self._leg_map(
            tensor, leg, lambda w: self.cop_word(w).terms.items()
        )
        return TensorElement(
            self.pres,
            tensor.rank + 1,
            out,
            merge_trunc(self.trunc, tensor.trunc),
        )

    def apply_antipode_leg(self, tensor, leg):
        out = self._leg_map(tensor, leg, lambda w: (
            ((nw,), ci) for nw, ci in self.antipode_word(w).terms.items()
        ))
        return TensorElement(
            self.pres,
            tensor.rank,
            out,
            merge_trunc(self.trunc, tensor.trunc),
        )

    def apply_counit_leg(self, tensor, leg):
        """Contract one leg with epsilon; rank drops by one.  A rank-1 result
        is returned as an AlgElement."""
        out = self._leg_map(
            tensor, leg, lambda w: (((), self.counit_word(w)),)
        )
        if tensor.rank == 2:
            return AlgElement(
                self.pres, {k[0]: v for k, v in out.items()}, tensor.trunc
            )
        return TensorElement(self.pres, tensor.rank - 1, out, tensor.trunc)


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
    one = AlgElement.one(pres, hopf.trunc)

    for i in range(n):
        g = AlgElement.gen(pres, i, hopf.trunc)
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
        gi = AlgElement.gen(pres, i, hopf.trunc)
        gj = AlgElement.gen(pres, j, hopf.trunc)
        rhs_elt = AlgElement(
            pres, {w: c * Scalar.one(hopf.trunc) for w, c in rhs.items()},
            hopf.trunc,
        )
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
        bad_counit = []
        bad_antipode = []
        bad_coassoc = []
        for i in range(n):
            for j in range(n):
                x = AlgElement.gen(pres, i, hopf.trunc) * AlgElement.gen(
                    pres, j, hopf.trunc
                )
                cop = hopf.cop(x)
                r1 = hopf.apply_counit_leg(cop, 0) - x
                r2 = hopf.apply_counit_leg(cop, 1) - x
                if not (r1.is_zero() and r2.is_zero()):
                    bad_counit.append((pres.label(i), pres.label(j)))
                eps_x = one * hopf.counit_of(x)
                a1 = hopf.apply_antipode_leg(cop, 0).merge_legs() - eps_x
                a2 = hopf.apply_antipode_leg(cop, 1).merge_legs() - eps_x
                if not (a1.is_zero() and a2.is_zero()):
                    bad_antipode.append((pres.label(i), pres.label(j)))
                if coassoc_pairs:
                    c3 = hopf.apply_cop_leg(cop, 0) - hopf.apply_cop_leg(cop, 1)
                    if not c3.is_zero():
                        bad_coassoc.append((pres.label(i), pres.label(j)))
        rep.add(
            "counit_axiom_degree2_all_pairs",
            not bad_counit,
            "" if not bad_counit else repr(bad_counit[:4]),
        )
        rep.add(
            "antipode_axiom_degree2_all_pairs",
            not bad_antipode,
            "" if not bad_antipode else repr(bad_antipode[:4]),
        )
        if coassoc_pairs:
            rep.add(
                "coassoc_degree2_all_pairs",
                not bad_coassoc,
                "" if not bad_coassoc else repr(bad_coassoc[:4]),
            )
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
        g = AlgElement.gen(pres, i, hopf.trunc)
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
    one2 = TensorElement.one(pres, rmat.trunc)
    rep.zero("invertible", rmat * unital_inverse(rmat) - one2)
    rep.zero("triangular", rmat.swap() * rmat - one2)
    one1 = AlgElement.one(pres, rmat.trunc)
    rep.zero("counit_left", hopf.apply_counit_leg(rmat, 0) - one1)
    rep.zero("counit_right", hopf.apply_counit_leg(rmat, 1) - one1)
    for i in range(len(pres.generators)):
        g = AlgElement.gen(pres, i, rmat.trunc)
        rep.zero(
            "intertwines[%s]" % pres.label(i),
            rmat * hopf.cop(g) - hopf_universal.cop(g) * rmat,
        )
    return rep
