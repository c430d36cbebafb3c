"""Noncommutative PBW algebra with exact straightening rules.

A :class:`Presentation` holds an ordered list of generators and two kinds of
length-2 rewrite rules:

* commutator rules ``g_i g_j = g_j g_i + rhs`` for ``i > j`` (rhs is the
  normal-ordered expansion of ``[g_i, g_j]``); unlisted pairs commute;
* product rules ``g_i g_j = rhs`` that replace the pair outright (used for
  inverse pairs like ``Pi Pi^{-1} = 1``).

Words are tuples of generator indices.  A word is normal when no adjacent
pair triggers a rule.  ``normalize_word`` rewrites the leftmost violation
first and memoizes whole-word results; rule coefficients are stored exact
(``trunc=None``) so one cache serves every working truncation.

Sparse combinations, here and in the tensor and wedge layers, are dicts from
keys to nonzero Scalars; :func:`accumulate` is the one place where terms are
summed into such a dict and cancelled terms dropped.

Associativity of the resulting product is equivalent to local confluence of
the rules, which :meth:`Presentation.associativity_check` verifies on all
generator triples by resolving each word two ways.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PresentationError, RewriteError
from .scalar import GaussianRational, Scalar, merge_trunc

EMPTY_WORD = ()


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


class Generator:
    """A named generator; ``weight`` feeds the termination bookkeeping."""

    __slots__ = ("label", "kind", "weight")

    def __init__(self, label, kind="", weight=0):
        self.label = label
        self.kind = kind
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

    def __init__(self, name, max_word_len=12):
        self.name = name
        self.generators = []
        self.comm_rules = {}      # (hi, lo) -> terms, hi > lo
        self.product_rules = {}   # (i, j) -> terms, replaces the pair
        self.star_table = {}      # i -> terms for the adjoint of g_i
        self.max_word_len = max_word_len
        self._norm_cache = {EMPTY_WORD: {EMPTY_WORD: Scalar.one()}}
        self._in_progress = set()

    # --- construction -----------------------------------------------------

    def add_generator(self, label, kind="", weight=0):
        self.generators.append(Generator(label, kind, weight))
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
        if (i, j) in self.comm_rules or (i, j) in self.product_rules:
            raise PresentationError(
                "duplicate rule for pair (%s, %s)" % (self.label(i), self.label(j))
            )
        for w in terms:
            if not self.is_normal_word(w):
                raise PresentationError(
                    "rule rhs word %r is not normal-ordered" % (self._word_str(w),)
                )
        self.comm_rules[(i, j)] = terms
        self._norm_cache = {EMPTY_WORD: {EMPTY_WORD: Scalar.one()}}

    def set_product(self, i, j, terms):
        """Install the replacement g_i g_j -> terms."""
        terms = _validate_terms(terms)
        if (i, j) in self.comm_rules or (i, j) in self.product_rules:
            raise PresentationError(
                "duplicate rule for pair (%s, %s)" % (self.label(i), self.label(j))
            )
        for w in terms:
            if not self.is_normal_word(w):
                raise PresentationError(
                    "rule rhs word %r is not normal-ordered" % (self._word_str(w),)
                )
        self.product_rules[(i, j)] = terms
        self._norm_cache = {EMPTY_WORD: {EMPTY_WORD: Scalar.one()}}

    def set_star(self, i, terms):
        """Adjoint of g_i as element terms (default when absent: g_i itself)."""
        self.star_table[i] = _validate_terms(terms)

    # --- rewriting --------------------------------------------------------

    def is_normal_word(self, word):
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if (a, b) in self.product_rules or a > b:
                return False
        return True

    def step_at(self, word, k):
        """One rewrite step applied to the pair at position k.

        Returns terms (dict word -> exact Scalar).  If the pair is already
        normal the word is returned unchanged.
        """
        a, b = word[k], word[k + 1]
        pre, post = word[:k], word[k + 2:]
        if (a, b) in self.product_rules:
            return {
                pre + w + post: c for w, c in self.product_rules[(a, b)].items()
            }
        if a > b:
            out = {pre + (b, a) + post: Scalar.one()}
            rhs = self.comm_rules.get((a, b))
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
        if len(word) > self.max_word_len:
            raise RewriteError(
                "word length %d exceeds cap %d in %s"
                % (len(word), self.max_word_len, self.name)
            )
        if word in self._in_progress:
            raise RewriteError(
                "rewriting cycle at word %s" % self._word_str(word)
            )
        violation = None
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if (a, b) in self.product_rules or a > b:
                violation = k
                break
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

    def associativity_check(self, triples=None):
        """Local-confluence sweep.

        For each generator triple (a, b, c) the word is resolved two ways:
        first rewriting at position 0, then at position 1, each followed by
        full normalization.  All rules have length 2, so these overlaps are
        the only ambiguities; agreement on all of them is equivalent to
        associativity of the induced product (and to the Jacobi identity for
        pure commutator rules).  Returns a list of (triple, residual) pairs,
        empty when the presentation is consistent.
        """
        n = len(self.generators)
        if triples is None:
            triples = [
                (a, b, c)
                for a in range(n)
                for b in range(n)
                for c in range(n)
            ]
        failures = []
        for t in triples:
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
            len(self.comm_rules) + len(self.product_rules),
        )


class AlgElement:
    """An element of a presented algebra: normal words with Scalar coefficients."""

    __slots__ = ("pres", "terms", "trunc")

    def __init__(self, pres, terms=None, trunc=None):
        self.pres = pres
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    clean[tuple(word)] = coeff
        self.terms = clean
        self.trunc = trunc

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, pres, trunc=None):
        return cls(pres, {}, trunc)

    @classmethod
    def one(cls, pres, trunc=None):
        return cls(pres, {EMPTY_WORD: Scalar.one(trunc)}, trunc)

    @classmethod
    def gen(cls, pres, i, trunc=None):
        return cls(pres, {(i,): Scalar.one(trunc)}, trunc)

    @classmethod
    def from_scalar(cls, pres, s, trunc=None):
        trunc = merge_trunc(trunc, s.trunc)
        return cls(pres, {EMPTY_WORD: s}, trunc)

    # --- arithmetic -------------------------------------------------------

    def _require_same(self, other):
        if self.pres is not other.pres:
            raise PresentationError("elements live in different presentations")

    def __add__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        self._require_same(other)
        trunc = merge_trunc(self.trunc, other.trunc)
        out = accumulate(dict(self.terms), other.terms.items())
        return AlgElement(self.pres, out, trunc)

    def __sub__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgElement(
            self.pres, {w: -c for w, c in self.terms.items()}, self.trunc
        )

    def __mul__(self, other):
        if isinstance(other, Scalar):
            trunc = merge_trunc(self.trunc, other.trunc)
            return AlgElement(
                self.pres, {w: c * other for w, c in self.terms.items()}, trunc
            )
        if isinstance(other, (int, Fraction, GaussianRational)):
            return AlgElement(
                self.pres,
                {w: c * other for w, c in self.terms.items()},
                self.trunc,
            )
        if not isinstance(other, AlgElement):
            return NotImplemented
        self._require_same(other)
        trunc = merge_trunc(self.trunc, other.trunc)
        norm = self.pres.normalize_word
        out = accumulate({}, (
            (nw, c12 * nc)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
            for c12 in (c1 * c2,) if c12
            for nw, nc in norm(w1 + w2).items()
        ))
        return AlgElement(self.pres, out, trunc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            return self * other
        return NotImplemented

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return (
            self.pres is other.pres
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # --- structure --------------------------------------------------------

    def coeff(self, word):
        return self.terms.get(tuple(word), Scalar.zero(self.trunc))

    def retrunc(self, new_trunc):
        out = {}
        for w, c in self.terms.items():
            c2 = c.retrunc(new_trunc)
            if c2:
                out[w] = c2
        return AlgElement(self.pres, out, new_trunc)

    def star(self, h_sign=1):
        """The adjoint: reverse each word, conjugate coefficients, map each
        letter through the presentation's star table (default: letter fixed)."""
        pres = self.pres
        total = AlgElement.zero(pres, self.trunc)
        for word, coeff in self.terms.items():
            factor = AlgElement.one(pres, self.trunc)
            for letter in reversed(word):
                entry = pres.star_table.get(letter)
                if entry is None:
                    img = AlgElement.gen(pres, letter)
                else:
                    # the table stores the adjoint itself, coefficients literal
                    img = AlgElement(pres, dict(entry))
                factor = factor * img
            total = total + factor * coeff.conjugate(h_sign=h_sign)
        return total

    def map_scalars(self, fn):
        out = {}
        for w, c in self.terms.items():
            c2 = fn(c)
            if c2:
                out[w] = c2
        return AlgElement(self.pres, out, self.trunc)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            bits.append("(%r)*%s" % (self.terms[w], self.pres._word_str(w)))
        return " + ".join(bits)
