"""Noncommutative PBW algebra with exact straightening rules, and its
tensor powers.

A :class:`Presentation` holds an ordered list of generators and two kinds of
length-2 rewrite rules:

* commutator rules ``g_i g_j = g_j g_i + rhs`` for ``i > j`` (rhs is the
  normal-ordered expansion of ``[g_i, g_j]``); unlisted pairs commute;
* product rules ``g_i g_j = rhs`` that replace the pair outright (used for
  inverse pairs like ``Pi Pi^{-1} = 1``).

Words are tuples of generator indices.  A word is normal when no adjacent
pair triggers a rule.  ``normalize_word`` rewrites the leftmost violation
first and memoizes whole-word results; rule coefficients are stored exact
(``trunc=None``) so one cache serves every working truncation.  The rule
tables map words to Scalars.  They and each rule's rhs are read-only views
(``types.MappingProxyType``): a rule goes in only through ``set_commutator``
or ``set_product``, which drop the caches, so a stray write raises.

:meth:`Presentation.structure_constants` is the one reader of a Lie
presentation's brackets, for :mod:`kdeform.rmatrix` and
:mod:`kdeform.twist`.  It is built at its first call and dropped with the
normalize cache whenever a rule is installed.

A :class:`TensorElement` of rank r is an element of the r-fold tensor power
U^{(x) r} of the presented algebra U: a dict from r-tuples of normal words
to Scalars.  Rank 1 is the algebra itself, so an algebra element is a
rank-1 tensor whose keys are 1-tuples ``(word,)``.  Products act legwise
through the normalize cache.  The class is bound to a second name at the
end of this module only because the benchmark's tracer patches the product
through that name; the package itself does not use it.

The package has one star structure, with every generator self-adjoint and h
real: :meth:`TensorElement.star` reverses words and conjugates coefficients.

Sparse combinations, here and in the wedge layer, are dicts from keys to
nonzero Scalars; :func:`accumulate` is the one place where terms are summed
into such a dict and cancelled terms dropped.

This module is the only one that prunes products, by the *floor rule*.  The
floor of a nonzero scalar is the pair (lowest deg_h, lowest deg_xi), each
minimum taken separately.  Every term of a product c1*c2 has bigrade at
least floor(c1) + floor(c2), so when the pair's truncation T is finite and
that sum exceeds T in either parameter, the product is exactly the zero
scalar.  Every coefficient of a tensor carries the tensor's truncation, so T
is the merged truncation of the two operands, which ``scalar.merge_trunc``
alone decides.  :meth:`TensorElement.live` gives the terms of a right
operand that the rule keeps against a left coefficient, and keeps that row
on the tensor for the next left coefficient of the same floor.  The product
kernel and the coproduct and antipode leg maps of :mod:`kdeform.hopf` ask
the right operand, so an operand used many times, such as a memoized word
image, filters its terms once per row.

Associativity of the resulting product is equivalent to local confluence of
the rules, which :meth:`Presentation.associativity_check` verifies on all
generator triples by resolving each word two ways.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from types import MappingProxyType

from .errors import PresentationError, RewriteError, TruncationMismatch
from .scalar import GaussianRational, Scalar, merge_trunc

EMPTY_WORD = ()

# the longest word ``normalize_word`` rewrites; a longer one raises
MAX_WORD_LEN = 12


def accumulate(out, pairs):
    """Add each ``(key, coeff)`` pair into the dict ``out`` in place.

    Zero coefficients are skipped and keys whose coefficients cancel are
    deleted, so ``out`` keeps only nonzero coefficients.  Returns ``out``.
    """
    get = out.get
    for key, c in pairs:
        if not c:
            continue
        acc = get(key)
        if acc is None:
            out[key] = c
        else:
            c = acc + c
            if c:
                out[key] = c
            else:
                del out[key]
    return out


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


def _floor(s):
    """The lowest h-degree and the lowest xi-degree of a nonzero Scalar,
    each taken over all its terms."""
    terms = s.terms
    if len(terms) == 1:
        return next(iter(terms))
    return min(a for a, _ in terms), min(b for _, b in terms)


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
        self._reset_cache()
        self._in_progress = set()

    # --- construction -----------------------------------------------------

    def add_generator(self, label, weight=0):
        self.generators.append(Generator(label, weight))
        return len(self.generators) - 1

    def gen_index(self, label):
        for i, g in enumerate(self.generators):
            if g.label == label:
                return i
        raise PresentationError("no generator named %r" % label)

    def label(self, i):
        return self.generators[i].label

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
        # one rule per pair, over both tables, with a normal-ordered rhs;
        # every cached normal form may change with the new rule
        if (i, j) in self._comm or (i, j) in self._product:
            raise PresentationError(
                "duplicate rule for pair (%s, %s)" % (self.label(i), self.label(j))
            )
        for w in terms:
            if not self.is_normal_word(w):
                raise PresentationError(
                    "rule rhs word %r is not normal-ordered" % (self._word_str(w),)
                )
        table[(i, j)] = MappingProxyType(terms)
        self._reset_cache()

    def _reset_cache(self):
        self._norm_cache = {EMPTY_WORD: {EMPTY_WORD: Scalar.one()}}
        self._brackets = None

    def structure_constants(self):
        """The brackets of a Lie presentation, (i, j) -> [(k, c)] with
        [g_i, g_j] = sum c g_k and c the stored rule coefficient, in both
        orientations; commuting pairs are absent.  The table is shared, so
        callers must not change it.  A product rule or a non-linear
        commutator raises ``PresentationError``."""
        if self._brackets is None:
            if self.product_rules or any(
                len(w) != 1 for rhs in self.comm_rules.values() for w in rhs
            ):
                raise PresentationError("%s is not a Lie algebra" % self.name)
            table = self._brackets = {}
            for (i, j), rhs in self.comm_rules.items():
                if rhs:
                    table[(i, j)] = [(w[0], c) for w, c in rhs.items()]
                    table[(j, i)] = [(w[0], -c) for w, c in rhs.items()]
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
        """One rewrite step applied to the pair at position k.

        Returns terms (dict word -> exact Scalar).  If the pair is already
        normal the word is returned unchanged.
        """
        a, b = word[k], word[k + 1]
        pre, post = word[:k], word[k + 2:]
        if (a, b) in self._product:
            return {
                pre + w + post: c for w, c in self._product[(a, b)].items()
            }
        if a > b:
            out = {pre + (b, a) + post: Scalar.one()}
            rhs = self._comm.get((a, b))
            if rhs:
                accumulate(out, ((pre + w + post, c) for w, c in rhs.items()))
            return out
        return {word: Scalar.one()}

    def normalize_word(self, word):
        """Normal-order a word; returns dict of normal words to exact Scalars."""
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
            result = {word: Scalar.one()}
            self._norm_cache[word] = result
            return result
        self._in_progress.add(word)
        try:
            out = self.normalize_terms(self.step_at(word, violation))
        finally:
            self._in_progress.discard(word)
        self._norm_cache[word] = out
        return out

    def normalize_terms(self, terms):
        return accumulate({}, (
            (nw, coeff * nc)
            for word, coeff in terms.items() if coeff
            for nw, nc in self.normalize_word(word).items()
        ))

    # --- consistency ------------------------------------------------------

    def associativity_check(self):
        """Local-confluence sweep.

        For each generator triple (a, b, c) the word is resolved two ways:
        first rewriting at position 0, then at position 1, each followed by
        full normalization.  All rules have length 2, so these overlaps are
        the only ambiguities; agreement on all of them is equivalent to
        associativity of the induced product (and to the Jacobi identity for
        pure commutator rules).  Returns a list of (triple, residual) pairs,
        empty when the presentation is consistent.
        """
        failures = []
        for t in product(range(len(self.generators)), repeat=3):
            left = self.normalize_terms(self.step_at(t, 0))
            right = self.normalize_terms(self.step_at(t, 1))
            residual = accumulate(left, ((w, -c) for w, c in right.items()))
            if residual:
                failures.append((t, residual))
        return failures

    def _word_str(self, word):
        if not word:
            return "1"
        return "*".join(self.label(i) for i in word)

    def __repr__(self):
        return "Presentation(%r, %d generators, %d rules)" % (
            self.name,
            len(self.generators),
            len(self._comm) + len(self._product),
        )


class TensorElement:
    """An element of the rank-fold tensor power of a presented algebra;
    rank 1 is the algebra itself.

    Every coefficient carries the tensor's truncation.  With a finite
    ``trunc`` an exact coefficient is cut to it, as ``Scalar.retrunc`` does:
    terms beyond it are dropped and a negative h-degree raises
    ``ScalarDomainError``.  A finite coefficient at any other truncation,
    in an exact tensor too, raises ``TruncationMismatch``.  The terms must
    not change after the first product that uses the tensor as its right
    operand, whose rows of surviving terms ``live`` keeps in ``_rows``.
    """

    __slots__ = ("pres", "rank", "terms", "trunc", "_rows")

    def __init__(self, pres, rank, terms=None, trunc=None):
        self.pres = pres
        self.rank = rank
        clean = {}
        if terms:
            for key, coeff in terms.items():
                key = self._key(key)
                if coeff.trunc != trunc:
                    if coeff.trunc is not None:
                        raise TruncationMismatch(
                            "coefficient at truncation %r in a tensor at %r"
                            % (coeff.trunc, trunc)
                        )
                    coeff = coeff.retrunc(trunc)
                if coeff:
                    clean[key] = coeff
        self.terms = clean
        self.trunc = trunc
        self._rows = None

    def _key(self, key):
        # a key is a tuple of ``rank`` words; a bare word given as a rank-1
        # key is refused here with the key in the message
        key = tuple(key)
        if len(key) != self.rank or not all(
            isinstance(w, (tuple, list)) for w in key
        ):
            raise PresentationError(
                "tensor key %r is not a tuple of %d words" % (key, self.rank)
            )
        return tuple(map(tuple, key))

    @staticmethod
    def _make(pres, rank, terms, trunc):
        # internal fast path: caller guarantees rank-long tuple keys of word
        # tuples and nonzero coefficients at ``trunc``, as a tensor's own
        # keys and ``accumulate`` leave them
        t = TensorElement.__new__(TensorElement)
        t.pres = pres
        t.rank = rank
        t.terms = terms
        t.trunc = trunc
        t._rows = None
        return t

    def live(self, c):
        """The ``(key, coeff)`` terms whose coefficient product with the
        Scalar ``c`` the floor rule does not rule out, in dict order.  The
        pair's truncation is ``c``'s, or the tensor's when ``c`` is exact;
        the callers merge the two tensor truncations, so a mismatch still
        raises.  Each row of survivors, per floor of ``c`` and finite
        truncation, is built once and kept in ``_rows``."""
        t = self.trunc if c.trunc is None else c.trunc
        if t is None:
            return self.terms.items()
        rows = self._rows
        if rows is None:
            rows = self._rows = {}
        f1 = _floor(c)
        row = rows.get((f1, t))
        if row is None:
            room_h, room_xi = t[0] - f1[0], t[1] - f1[1]
            row = [
                item for item in self.terms.items()
                for a, b in (_floor(item[1]),)
                if a <= room_h and b <= room_xi
            ]
            if len(row) == len(self.terms):
                row = self.terms.items()
            rows[(f1, t)] = row
        return row

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, pres, rank, trunc=None):
        return cls(pres, rank, {}, trunc)

    @classmethod
    def one(cls, pres, rank, trunc=None):
        key = (EMPTY_WORD,) * rank
        return cls(pres, rank, {key: Scalar.one(trunc)}, trunc)

    @classmethod
    def gen(cls, pres, i, trunc=None):
        """The generator g_i as a rank-1 element."""
        return cls(pres, 1, {((i,),): Scalar.one(trunc)}, trunc)

    @classmethod
    def from_words(cls, pres, terms):
        """The exact rank-1 element of a dict from words to Scalars, the
        format of the rule tables and of ``normalize_word``."""
        return cls(pres, 1, {(w,): c for w, c in terms.items()})

    @classmethod
    def from_legs(cls, *legs):
        """Outer product: the legs of each factor, in order, side by side."""
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
                for k, cw in leg.terms.items():
                    cc = c * cw
                    if cc:
                        new[key + k] = cc
            terms = new
        return cls(pres, sum(leg.rank for leg in legs), terms, trunc)

    # --- arithmetic -------------------------------------------------------

    def _require_like(self, other):
        if self.pres is not other.pres or self.rank != other.rank:
            raise PresentationError("tensor rank/presentation mismatch")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        trunc = merge_trunc(self.trunc, other.trunc)
        if self.trunc != other.trunc:
            # the exact operand's coefficients are cut to the finite trunc
            self, other = (
                TensorElement(x.pres, x.rank, x.terms, trunc)
                for x in (self, other)
            )
        out = accumulate(dict(self.terms), other.terms.items())
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
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            trunc = self.trunc
            if isinstance(other, Scalar):
                trunc = merge_trunc(self.trunc, other.trunc)
            out = {}
            for k, c in self.terms.items():
                c = c * other
                if c:
                    out[k] = c
            return TensorElement._make(self.pres, self.rank, out, trunc)
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_like(other)
        trunc = merge_trunc(self.trunc, other.trunc)
        norm = self.pres.normalize_word
        rank = self.rank
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.live(c1):
                c12 = c1 * c2
                if not c12:
                    continue
                # legwise products through the shared normalize cache; the
                # keys of one term pair never repeat, so zeros are only dropped
                partial = [
                    ((w,), cc)
                    for w, cw in norm(k1[0] + k2[0]).items()
                    for cc in (c12 * cw,) if cc
                ]
                for leg in range(1, rank):
                    if not partial:
                        break
                    legterms = norm(k1[leg] + k2[leg]).items()
                    partial = [
                        (key + (w,), cc)
                        for key, c in partial
                        for w, cw in legterms
                        for cc in (c * cw,) if cc
                    ]
                accumulate(out, partial)
        return TensorElement._make(self.pres, rank, out, trunc)

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
        """The coefficient of a key of ``rank`` words, ``(w,)`` at rank 1;
        a key of another length raises."""
        return self.terms.get(self._key(key), Scalar.zero(self.trunc))

    def retrunc(self, new_trunc):
        out = {
            k: c2 for k, c in self.terms.items()
            for c2 in (c.retrunc(new_trunc),) if c2
        }
        return TensorElement._make(self.pres, self.rank, out, new_trunc)

    def permute_legs(self, perm):
        """Reorder legs: new key[j] = old key[perm[j]]."""
        if sorted(perm) != list(range(self.rank)):
            raise PresentationError("bad leg permutation %r" % (perm,))
        out = accumulate({}, (
            (tuple(key[p] for p in perm), c) for key, c in self.terms.items()
        ))
        return TensorElement._make(self.pres, self.rank, out, self.trunc)

    def swap(self):
        """The flip a (x) b -> b (x) a on rank-2 tensors."""
        if self.rank != 2:
            raise PresentationError("swap is for rank 2; use permute_legs")
        return self.permute_legs((1, 0))

    def merge_legs(self):
        """Multiply all legs together: a (x) b (x) ... -> a*b*..., of rank 1."""
        norm = self.pres.normalize_word
        out = accumulate({}, (
            ((nw,), c * nc)
            for key, c in self.terms.items()
            for nw, nc in norm(sum(key, ())).items()
        ))
        return TensorElement._make(self.pres, 1, out, self.trunc)

    def star(self):
        """The adjoint, legwise and without reversing the legs:
        (a (x) b)* = a* (x) b*.  Generators are self-adjoint, so on one leg
        the word is reversed and normal-ordered, and the coefficient is
        conjugated."""
        pres = self.pres
        out = {}
        for key, c in self.terms.items():
            piece = TensorElement.from_legs(*(
                TensorElement.from_words(pres, pres.normalize_word(w[::-1]))
                for w in key
            ))
            cc = c.conjugate()
            accumulate(out, ((k, cw * cc) for k, cw in piece.terms.items()))
        return TensorElement._make(pres, self.rank, out, self.trunc)

    def map_scalars(self, fn):
        out = {}
        for k, c in self.terms.items():
            c2 = fn(c)
            if c2:
                out[k] = c2
        return TensorElement._make(self.pres, self.rank, out, self.trunc)

    def __repr__(self):
        # rank 1 prints as an algebra element, higher ranks with [legs]
        if not self.terms:
            return "0" if self.rank == 1 else "0(x)%d" % self.rank
        form = "(%r)*%s" if self.rank == 1 else "(%r)*[%s]"
        return " + ".join(
            form % (self.terms[k], " (x) ".join(map(self.pres._word_str, k)))
            for k in sorted(self.terms)
        )


# The benchmark's tracer patches the product under the old name of the
# rank-1 case as well as under ``hopf.TensorElement``, and the benchmark
# directory changes only with a new benchmark version, so that name stays
# bound to the one class.  Nothing in the package or its tests uses it.
AlgElement = TensorElement
