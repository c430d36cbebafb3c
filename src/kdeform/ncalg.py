"""Noncommutative PBW algebra with exact straightening rules, and its
tensor powers.

A :class:`Presentation` holds an ordered list of generators and two kinds of
length-2 rewrite rules:

* commutator rules ``g_i g_j = g_j g_i + rhs`` for ``i > j`` (rhs is the
  normal-ordered expansion of ``[g_i, g_j]``); unlisted pairs commute;
* product rules ``g_i g_j = rhs`` that replace the pair outright (used for
  inverse pairs like ``Pi Pi^{-1} = 1``).

Words are tuples of generator indices.  A word is normal when no adjacent
pair triggers a rule.  A rule goes in only through ``set_commutator`` or
``set_product`` with exact Scalar coefficients, which refuse a letter that
names no generator and drop the caches.  The rule tables ``comm_rules`` and
``product_rules`` map words to those Scalars, as read-only views
(``types.MappingProxyType``), so a stray write raises.  Below them each
rule's rhs is converted once, at install, to graded rows
``(word, deg_h, deg_xi, coeff)`` with a nonzero GaussianRational coeff, the
one coefficient format of the rewriting and tensor kernels.  ``step_at`` and
``normalize_terms`` rewrite on rows, and ``normalize_word`` returns a word's
normal form as a list of exact rows with distinct ``(word, deg_h,
deg_xi)``; it rewrites the leftmost violation first and memoizes whole
words, so one cache serves every working truncation.

:meth:`Presentation.structure_constants` is the one reader of a Lie
presentation's brackets, for :mod:`kdeform.rmatrix` and
:mod:`kdeform.twist`: graded rows of the real brackets, built at its first
call and dropped with the normalize cache whenever a rule is installed.

A :class:`TensorElement` of rank r is an element of the r-fold tensor power
U^{(x) r} of the presented algebra U.  Rank 1 is the algebra itself, so an
algebra element is a rank-1 tensor whose legs are 1-tuples ``(word,)``;
rank 0 is the ring of coefficients, where the counit lands.  Its terms are
graded: a dict from ``(legs, deg_h, deg_xi)``, with legs an r-tuple of
normal words, to nonzero GaussianRationals.  Products act legwise through
the normalize cache.  The class is bound to a second name at the end of this
module only because the benchmark's tracer patches the product through that
name; the package itself does not use it.

The package has one star structure, with every generator self-adjoint and h
real: :meth:`TensorElement.star` reverses words and conjugates coefficients.

Sparse combinations are in the graded format of :mod:`kdeform.scalar`,
which owns it: ``scalar.accumulate`` sums ``(key, deg_h, deg_xi, coeff)``
rows and drops cancelled keys, ``scalar.graded_sum`` cuts rows to a
truncation before it sums them, and ``scalar.scalar_view`` reads the terms
back as Scalars.  ``shift`` and ``retrunc`` cut a tensor's own terms so.

Truncation is a degree test on the key: a term pair's degrees are added and
``scalar._keep`` decides, read from :mod:`kdeform.scalar` at each call, at
the merged truncation of the operands, which ``scalar.product_trunc``
decides for a product.  Only a kept pair pays for its coefficient product,
and a row of a normal form that shifts the degrees is tested again.  A
tensor times a Scalar is the outer product with the Scalar's rank-0 tensor,
through :meth:`TensorElement.from_legs`.  A unit needs no test, since every
truncation keeps the degrees (0, 0).  A right operand sorts its terms by
h-degree once, in :meth:`TensorElement.by_h`, so the product kernel and the
leg maps of :mod:`kdeform.hopf` stop a row at the first term whose h-degree
alone puts the pair out of range.

Associativity of the resulting product is equivalent to local confluence of
the rules, which :meth:`Presentation.associativity_check` verifies on all
generator triples by resolving each word two ways.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from types import MappingProxyType

from . import scalar
from .errors import PresentationError, RewriteError, TruncationMismatch
from .scalar import (
    GR_I, GR_ONE, GaussianRational, Scalar, accumulate, as_trunc,
    check_degrees, graded_sum, merge_trunc, product_trunc, scalar_view,
    shifted_trunc, tightened,
)

EMPTY_WORD = ()

# the longest word ``normalize_word`` rewrites; a longer one raises
MAX_WORD_LEN = 12

# the stored brackets of self-adjoint generators are i times the real ones
_MINUS_I = -GR_I


def word_image(cache, word, head_image, step):
    """The image of ``word`` under a map given on generators and extended
    to words, ``step(head_image(word[:-1]), word[-1])``, memoized in
    ``cache``.  ``cache`` holds the empty word's image, and ``head_image``
    is the extended map itself, so the recursion runs through it."""
    word = tuple(word)
    out = cache.get(word)
    if out is None:
        out = cache[word] = step(head_image(word[:-1]), word[-1])
    return out


def _spread(kept, forms, a, b, c, trunc):
    """Append to ``kept`` the ``(legs, deg_h, deg_xi, coeff)`` rows of
    c*h^a*xi^b times the tensor product of ``forms``, one normal form per
    leg.  A row that shifts the degrees is tested against ``trunc`` before
    its product is paid; a normal word's own row, unshifted with the unit
    coefficient, costs no product."""
    keep = scalar._keep
    partial = [((), a, b, c)]
    for form in forms:
        grown = []
        for legs, a0, b0, c0 in partial:
            for w, da, db, cw in form:
                if da or db:
                    a1 = a0 + da
                    b1 = b0 + db
                    if trunc is None or keep((a1, b1), trunc):
                        grown.append((legs + (w,), a1, b1, c0 * cw))
                else:
                    grown.append((legs + (w,), a0, b0,
                                  c0 if cw is GR_ONE else c0 * cw))
        partial = grown
    kept += partial


def _rank(rank):
    # a tensor rank is a non-negative int
    if type(rank) is not int or rank < 0:
        raise PresentationError(
            "tensor rank %r is not a non-negative int" % (rank,)
        )
    return rank


class Generator:
    """A named generator; ``weight`` is its momentum count, the grade of
    the rescaling and h-polynomial checks of :mod:`kdeform.model`."""

    __slots__ = ("label", "weight")

    def __init__(self, label, weight=0):
        self.label = label
        self.weight = weight

    def __repr__(self):
        return "Generator(%r)" % self.label


def _validate_terms(terms):
    out = {}
    for word, coeff in terms.items():
        word = tuple(word)
        if not isinstance(coeff, Scalar):
            raise PresentationError("rule coefficients must be Scalar")
        if coeff.trunc is not None:
            raise PresentationError("rule coefficients must be exact")
        if coeff:
            out[word] = coeff
    return out


class Presentation:
    """Generators plus exact straightening rules, with a shared normalize cache."""

    def __init__(self, name):
        self.name = name
        self.generators = []
        self._comm = {}      # (hi, lo) -> terms, hi > lo
        self._product = {}   # (i, j) -> terms, replaces the pair
        self.comm_rules = MappingProxyType(self._comm)  # read-only views
        self.product_rules = MappingProxyType(self._product)
        self._rows = {}      # the pair of either table -> its rhs as rows
        self._reset_cache()
        self._in_progress = set()

    # --- construction -----------------------------------------------------

    def add_generator(self, label, weight=0):
        if any(g.label == label for g in self.generators):
            raise PresentationError(
                "duplicate generator label %r in %s" % (label, self.name)
            )
        self.generators.append(Generator(label, weight))
        return len(self.generators) - 1

    def gen_index(self, label):
        for i, g in enumerate(self.generators):
            if g.label == label:
                return i
        raise PresentationError("no generator named %r" % label)

    def label(self, i):
        if type(i) is not int or i not in range(len(self.generators)):
            raise PresentationError("no generator %r in %s" % (i, self.name))
        return self.generators[i].label

    def _require_letters(self, what, words):
        # refuses a letter of the tuple of words ``words`` that is no
        # generator index; ``what`` names the words in the message
        letters = range(len(self.generators))
        for w in words:
            for x in w:
                if x not in letters:
                    raise PresentationError(
                        "letter %r of %s %r names no generator of %s"
                        % (x, what, words, self.name)
                    )

    def set_commutator(self, i, j, terms):
        """Install [g_i, g_j] = terms.  Stored under (max, min)."""
        if i == j:
            raise PresentationError("commutator of a generator with itself")
        terms = _validate_terms(terms)
        if i < j:
            i, j = j, i
            terms = {w: -c for w, c in terms.items()}
        self._install(self._comm, i, j, terms)

    def set_product(self, i, j, terms):
        """Install the replacement g_i g_j -> terms."""
        self._install(self._product, i, j, _validate_terms(terms))

    def _install(self, table, i, j, terms):
        # one rule per pair of generators, over both tables, with a
        # normal-ordered rhs of generator letters, converted to rows once;
        # every cached normal form may change with it
        li, lj = self.label(i), self.label(j)
        if (i, j) in self._comm or (i, j) in self._product:
            raise PresentationError(
                "duplicate rule for pair (%s, %s)" % (li, lj)
            )
        self._require_letters("rule rhs", tuple(terms))
        for w in terms:
            if not self.is_normal_word(w):
                raise PresentationError(
                    "rule rhs word %r is not normal-ordered" % (self._word_str(w),)
                )
        table[(i, j)] = MappingProxyType(terms)
        self._rows[(i, j)] = [(w, a, b, g) for w, c in terms.items()
                              for (a, b), g in c.terms.items()]
        self._reset_cache()

    def _reset_cache(self):
        self._norm_cache = {EMPTY_WORD: [(EMPTY_WORD, 0, 0, GR_ONE)]}
        self._brackets = None

    def structure_constants(self):
        """The real brackets of a Lie presentation, (i, j) -> rows
        [(k, deg_h, deg_xi, f)] with [g_i, g_j] = i sum f h^deg_h xi^deg_xi
        g_k, in both orientations; commuting pairs are absent.  The stored
        coefficient of a rule is i f, as a bracket of self-adjoint
        generators is.  The table is shared, so callers must not change it.
        A product rule or a non-linear commutator raises
        ``PresentationError``."""
        if self._brackets is None:
            if self.product_rules or any(
                len(w) != 1 for rhs in self.comm_rules.values() for w in rhs
            ):
                raise PresentationError("%s is not a Lie algebra" % self.name)
            table = self._brackets = {}
            for (i, j), rhs in self.comm_rules.items():
                rows = [(w[0], a, b, g * _MINUS_I) for w, c in rhs.items()
                        for (a, b), g in c.terms.items()]
                if rows:
                    table[(i, j)] = rows
                    table[(j, i)] = [(k, a, b, -f) for k, a, b, f in rows]
        return self._brackets

    # --- rewriting --------------------------------------------------------

    def _first_violation(self, word):
        """Position of the leftmost pair of ``word`` that a rule rewrites,
        or None when the word is normal."""
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if (a, b) in self._product or a > b:
                return k
        return None

    def is_normal_word(self, word):
        return self._first_violation(word) is None

    def step_at(self, word, k):
        """One rewrite step applied to the pair at position k, as a list of
        exact rows ``(word, deg_h, deg_xi, coeff)``.  If the pair is already
        normal the word is its own row."""
        a, b = word[k], word[k + 1]
        pre, post = word[:k], word[k + 2:]
        out = [(pre + w + post, da, db, c)
               for w, da, db, c in self._rows.get((a, b), ())]
        if (a, b) in self._product:
            return out
        if a > b:
            return [(pre + (b, a) + post, 0, 0, GR_ONE), *out]
        return [(word, 0, 0, GR_ONE)]

    def normalize_word(self, word):
        """Normal-order a word: a list of exact rows ``(normal word, deg_h,
        deg_xi, coeff)`` with distinct ``(word, deg_h, deg_xi)``;
        memoized."""
        word = tuple(word)
        cached = self._norm_cache.get(word)
        if cached is not None:
            return cached
        if len(word) > MAX_WORD_LEN:
            raise RewriteError(
                "word length %d exceeds cap %d in %s"
                % (len(word), MAX_WORD_LEN, self.name)
            )
        if word in self._in_progress:
            raise RewriteError(
                "rewriting cycle at word %s" % self._word_str(word)
            )
        violation = self._first_violation(word)
        if violation is None:
            result = self._norm_cache[word] = [(word, 0, 0, GR_ONE)]
            return result
        self._in_progress.add(word)
        try:
            out = self.normalize_terms(self.step_at(word, violation))
        finally:
            self._in_progress.discard(word)
        self._norm_cache[word] = out
        return out

    def normalize_terms(self, rows):
        """The normal form of exact rows, in the format of
        ``normalize_word``."""
        out = accumulate({}, (
            (nw, a + da, b + db,
             nc if c is GR_ONE else c if nc is GR_ONE else c * nc)
            for w, a, b, c in rows for nw, da, db, nc in self.normalize_word(w)
        ), None)
        return [key + (c,) for key, c in out.items()]

    # --- consistency ------------------------------------------------------

    def associativity_check(self):
        """Local-confluence sweep.

        For each generator triple (a, b, c) the word is resolved two ways:
        first rewriting at position 0, then at position 1, each followed by
        full normalization.  All rules have length 2, so these overlaps are
        the only ambiguities; agreement on all of them is equivalent to
        associativity of the induced product (and to the Jacobi identity for
        pure commutator rules).  Returns a list of (triple, residual) pairs,
        the residual an exact rank-1 element, empty when the presentation is
        consistent.
        """
        failures = []
        for t in product(range(len(self.generators)), repeat=3):
            left, right = (
                TensorElement._make(self, 1, {
                    ((w,), a, b): c
                    for w, a, b, c in self.normalize_terms(self.step_at(t, k))
                }, None)
                for k in (0, 1)
            )
            residual = left - right
            if residual:
                failures.append((t, residual))
        return failures

    def _word_str(self, word):
        if not word:
            return "1"
        return "*".join(self.generators[i].label for i in word)

    def __repr__(self):
        return "Presentation(%r, %d generators, %d rules)" % (
            self.name,
            len(self.generators),
            len(self._comm) + len(self._product),
        )


class TensorElement:
    """An element of the rank-fold tensor power of a presented algebra;
    rank 1 is the algebra itself.

    ``terms`` maps graded keys ``(legs, deg_h, deg_xi)`` to nonzero
    GaussianRationals, so a coefficient c*h^a*xi^b of the legs is one entry;
    :meth:`by_legs` reads the terms back as Scalars.  The constructor takes
    a dict from legs to Scalars.  With a finite ``trunc`` an exact
    coefficient is cut to it, as ``Scalar.retrunc`` does: terms beyond it are
    dropped and a negative h-degree raises ``ScalarDomainError``.  A finite
    coefficient at any other truncation, in an exact tensor too, raises
    ``TruncationMismatch``.  The terms must not change after the first
    product that uses the tensor as its right operand, whose terms
    :meth:`by_h` sorts once and keeps in ``_by_h``.
    """

    __slots__ = ("pres", "rank", "terms", "trunc", "_by_h")

    def __init__(self, pres, rank, terms=None, trunc=None):
        self.pres = pres
        self.rank = _rank(rank)
        self.trunc = trunc = as_trunc(trunc)
        rows = []
        for key, coeff in (terms or {}).items():
            key = self._key(key)
            if coeff.trunc not in (None, trunc):
                raise TruncationMismatch(
                    "coefficient at truncation %r in a tensor at %r"
                    % (coeff.trunc, trunc)
                )
            rows += [(key, a, b, c) for (a, b), c in coeff.terms.items()]
        self.terms = graded_sum(rows, trunc)
        self._by_h = None

    def _key(self, key):
        # a key is a tuple of ``rank`` words of generator letters; a bare
        # word given as a rank-1 key is refused here with the key in the
        # message
        key = tuple(key)
        if len(key) != self.rank or not all(
            isinstance(w, (tuple, list)) for w in key
        ):
            raise PresentationError(
                "tensor key %r is not a tuple of %d words" % (key, self.rank)
            )
        key = tuple(map(tuple, key))
        self.pres._require_letters("tensor key", key)
        return key

    @staticmethod
    def _make(pres, rank, terms, trunc):
        # internal fast path: caller guarantees graded keys of rank-long
        # tuples of word tuples, nonzero coefficients, and degrees that
        # ``trunc`` keeps, as a tensor's own terms and ``accumulate`` leave
        # them
        t = TensorElement.__new__(TensorElement)
        t.pres = pres
        t.rank = rank
        t.terms = terms
        t.trunc = trunc
        t._by_h = None
        return t

    def by_h(self):
        """The terms as ``(legs, deg_h, deg_xi, coeff)`` tuples in rising
        h-degree, sorted at the first call and kept."""
        if self._by_h is None:
            self._by_h = sorted((k + (c,) for k, c in self.terms.items()),
                                key=lambda t: t[1])
        return self._by_h

    def by_legs(self):
        """The terms as a dict from legs to Scalars at the tensor's
        truncation."""
        return scalar_view(self.terms, self.trunc)

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, pres, rank, trunc=None):
        return cls._make(pres, _rank(rank), {}, as_trunc(trunc))

    @classmethod
    def one(cls, pres, rank, trunc=None):
        return cls._unit(pres, rank, (EMPTY_WORD,) * _rank(rank), trunc)

    @classmethod
    def gen(cls, pres, i, trunc=None):
        """The generator g_i as a rank-1 element."""
        pres.label(i)  # refuses an index outside the generators
        return cls._unit(pres, 1, ((i,),), trunc)

    @staticmethod
    def _unit(pres, rank, legs, trunc):
        # legs of known generators with coefficient 1; every truncation
        # keeps the degrees (0, 0)
        return TensorElement._make(pres, rank, {(legs, 0, 0): GR_ONE},
                                   as_trunc(trunc))

    @classmethod
    def from_words(cls, pres, terms):
        """The exact rank-1 element of a dict from words to Scalars, the
        format of the rule tables."""
        return cls(pres, 1, {(w,): c for w, c in terms.items()})

    @classmethod
    def from_legs(cls, *legs):
        """Outer product: the legs of each factor, in order, side by side."""
        if not legs:
            raise PresentationError("an outer product needs at least one leg")
        first = legs[0]
        pres, trunc = first.pres, product_trunc(*legs)
        keep = scalar._keep
        rows = [k + (c,) for k, c in first.terms.items()]
        for leg in legs[1:]:
            if leg.pres is not pres:
                raise PresentationError("tensor legs in different presentations")
            rows = [
                (key + k, a + da, b + db, c * g)
                for key, a, b, c in rows
                for (k, da, db), g in leg.terms.items()
                if trunc is None or keep((a + da, b + db), trunc)
            ]
        out = accumulate({}, rows, trunc)
        return TensorElement._make(pres, sum(leg.rank for leg in legs), out,
                                   trunc)

    # --- arithmetic -------------------------------------------------------

    def _require_like(self, other):
        if self.pres is not other.pres or self.rank != other.rank:
            raise PresentationError("tensor rank/presentation mismatch")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        trunc = merge_trunc(self.trunc, other.trunc)
        if self.trunc == other.trunc:
            out = accumulate(dict(self.terms), (
                k + (c,) for k, c in other.terms.items()
            ), trunc)
        else:
            # the exact operand's terms are cut to the finite trunc
            out = graded_sum((
                k + (c,) for x in (self, other) for k, c in x.terms.items()
            ), trunc)
        return TensorElement._make(self.pres, self.rank, out, trunc)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TensorElement._make(
            self.pres, self.rank, {k: -c for k, c in self.terms.items()}, self.trunc
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if type(other) is GaussianRational:
            if not other:
                return TensorElement.zero(self.pres, self.rank, self.trunc)
            out = {k: c * other for k, c in self.terms.items()}
            return TensorElement._make(self.pres, self.rank, out, self.trunc)
        if isinstance(other, Scalar):
            return TensorElement.from_legs(
                self, TensorElement(self.pres, 0, {(): other}, other.trunc))
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        trunc = product_trunc(self, other)
        keep = scalar._keep
        norm = self.pres.normalize_word
        legs = range(self.rank)
        right = other.by_h()
        out = {}
        for (k1, a1, b1), c1 in self.terms.items():
            kept = []
            for k2, a2, b2, c2 in right:
                a = a1 + a2
                b = b1 + b2
                if trunc is not None and not keep((a, b), trunc):
                    if keep((a, 0), trunc):
                        continue
                    # the right terms come in rising h-degree
                    break
                # legwise products through the shared normalize cache
                _spread(kept, [norm(k1[leg] + k2[leg]) for leg in legs],
                        a, b, c1 * c2, trunc)
            accumulate(out, kept, trunc)
        return TensorElement._make(self.pres, self.rank, out, trunc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            return self * other
        return NotImplemented

    def commutator(self, other):
        return self * other - other * self

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
        """The Scalar coefficient of a key of ``rank`` words, ``(w,)`` at
        rank 1; a key of another length raises."""
        return self.by_legs().get(self._key(key), Scalar.zero(self.trunc))

    def shift(self, deg_h):
        """Multiply by h^deg_h, at the truncation ``scalar.shifted_trunc``
        gives."""
        check_degrees(deg_h, 0)
        trunc = shifted_trunc(self.trunc, deg_h)
        return TensorElement._make(self.pres, self.rank, graded_sum((
            (k, a + deg_h, b, c) for (k, a, b), c in self.terms.items()
        ), trunc), trunc)

    def retrunc(self, new_trunc):
        """Tighten the truncation, as ``Scalar.retrunc`` does."""
        trunc = tightened(self.trunc, new_trunc)
        return TensorElement._make(self.pres, self.rank, graded_sum((
            k + (c,) for k, c in self.terms.items()
        ), trunc), trunc)

    def permute_legs(self, perm):
        """Reorder legs: new key[j] = old key[perm[j]]."""
        if sorted(perm) != list(range(self.rank)):
            raise PresentationError("bad leg permutation %r" % (perm,))
        out = {
            (tuple(key[p] for p in perm), a, b): c
            for (key, a, b), c in self.terms.items()
        }
        return TensorElement._make(self.pres, self.rank, out, self.trunc)

    def swap(self):
        """The flip a (x) b -> b (x) a on rank-2 tensors."""
        if self.rank != 2:
            raise PresentationError("swap is for rank 2; use permute_legs")
        return self.permute_legs((1, 0))

    def _relegged(self, rank, forms, coeff):
        # each term's legs replaced by the normal forms ``forms(legs)`` and
        # its coefficient by ``coeff(c)``, at the tensor's truncation
        kept = []
        for (key, a, b), c in self.terms.items():
            _spread(kept, forms(key), a, b, coeff(c), self.trunc)
        out = accumulate({}, kept, self.trunc)
        return TensorElement._make(self.pres, rank, out, self.trunc)

    def merge_legs(self):
        """Multiply all legs together: a (x) b (x) ... -> a*b*..., of rank 1."""
        norm = self.pres.normalize_word
        return self._relegged(1, lambda key: (norm(sum(key, ())),),
                              lambda c: c)

    def star(self):
        """The adjoint, legwise and without reversing the legs:
        (a (x) b)* = a* (x) b*.  Generators are self-adjoint, so on one leg
        the word is reversed and normal-ordered, and the coefficient is
        conjugated."""
        norm = self.pres.normalize_word
        return self._relegged(
            self.rank, lambda key: [norm(w[::-1]) for w in key],
            GaussianRational.conjugate,
        )

    def __repr__(self):
        # rank 1 prints as an algebra element, higher ranks with [legs]
        if not self.terms:
            return "0" if self.rank == 1 else "0(x)%d" % self.rank
        form = "(%r)*%s" if self.rank == 1 else "(%r)*[%s]"
        view = self.by_legs()
        return " + ".join(
            form % (view[k], " (x) ".join(map(self.pres._word_str, k)))
            for k in sorted(view)
        )


# The benchmark's tracer patches the product under the old name of the
# rank-1 case as well as under ``hopf.TensorElement``, and the benchmark
# directory changes only with a new benchmark version, so that name stays
# bound to the one class.  Nothing in the package or its tests uses it.
AlgElement = TensorElement
