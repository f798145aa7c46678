"""Core value types of the extraction kernel.

Semantics mirror the reference library (see /root/reference/yargy/span.py,
token.py, morph.py for the behavioral contract); the implementation here is
original and tuned for use inside Ray Data ``map_batches`` workers: plain
slotted classes, ``Span`` as a NamedTuple so it compares equal to bare
``(start, stop)`` tuples, and no third-party dependencies.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple


class Span(NamedTuple):
    """Half-open character span ``[start, stop)``."""

    start: int
    stop: int

    def __repr__(self):  # pragma: no cover - debug aid
        return f'[{self.start}, {self.stop})'


# ---------------------------------------------------------------------------
# Morphology values
# ---------------------------------------------------------------------------

CASES = ('nomn', 'gent', 'datv', 'accs', 'ablt', 'loct', 'voct')


class GenderTrait(NamedTuple):
    male: bool
    female: bool
    neutral: bool
    bi: bool        # common gender (Ms-f)
    general: bool   # GNdr


class NumberTrait(NamedTuple):
    single: bool
    plural: bool
    only_single: bool   # singularia tantum
    only_plural: bool   # pluralia tantum


class CaseTrait(NamedTuple):
    mask: tuple
    fixed: bool


class Grams:
    """An immutable set of grammeme strings with typed agreement views."""

    __slots__ = ('values',)

    def __init__(self, values):
        self.values = frozenset(values)

    def __contains__(self, item):
        return item in self.values

    def __eq__(self, other):
        return isinstance(other, Grams) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return 'Grams({})'.format(','.join(sorted(self.values)))

    @property
    def gender(self):
        v = self.values
        return GenderTrait(
            'masc' in v, 'femn' in v, 'neut' in v,
            'Ms-f' in v or 'ms-f' in v, 'GNdr' in v,
        )

    @property
    def number(self):
        v = self.values
        return NumberTrait(
            'sing' in v, 'plur' in v, 'Sgtm' in v, 'Pltm' in v,
        )

    @property
    def case(self):
        v = self.values
        return CaseTrait(
            tuple(c in v for c in CASES),
            'Fixd' in v,
        )


class Form:
    """One morphological reading of a word: lemma + grammemes.

    ``paradigm`` is an opaque handle the analyzer uses to re-inflect the
    lemma (``inflect``); it does not participate in equality.
    """

    __slots__ = ('normalized', 'grams', 'paradigm')

    def __init__(self, normalized, grams, paradigm=None):
        self.normalized = normalized
        self.grams = grams
        self.paradigm = paradigm

    def inflect(self, grams=frozenset({'nomn', 'sing'})):
        if self.paradigm is None:
            return self.normalized
        return self.paradigm.inflect(self, grams)

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.normalized == other.normalized
            and self.grams == other.grams
        )

    def __hash__(self):
        return hash((self.normalized, self.grams))

    def __repr__(self):
        return f'Form({self.normalized!r}, {self.grams!r})'


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

class Token:
    __slots__ = ('value', 'span', 'type')

    def __init__(self, value, span, type):
        self.value = value
        self.span = span
        self.type = type

    @property
    def normalized(self):
        return self.value.lower()

    @property
    def forms(self):
        return None

    def key(self):
        return (self.value, self.span, self.type)

    def __eq__(self, other):
        return type(self) is type(other) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f'{type(self).__name__}({self.value!r}, {self.span!r}, {self.type!r})'

    def morphed(self, forms):
        return MorphToken(self.value, self.span, self.type, forms)

    def tagged(self, tag):
        return TagToken(self.value, self.span, self.type, tag)


class MorphToken(Token):
    __slots__ = ('forms_',)

    def __init__(self, value, span, type, forms):
        # Token.__init__ inlined: the lexer and constrain() build one per
        # Russian word
        self.value = value
        self.span = span
        self.type = type
        self.forms_ = forms

    @property
    def forms(self):
        return self.forms_

    @property
    def normalized(self):
        return self.forms_[0].normalized

    def key(self):
        return (self.value, self.span, self.type, tuple(self.forms_))

    def tagged(self, tag):
        return MorphTagToken(self.value, self.span, self.type, tag, self.forms_)

    def constrained(self, forms):
        return MorphToken(self.value, self.span, self.type, forms)


class TagToken(Token):
    __slots__ = ('tag',)

    def __init__(self, value, span, type, tag):
        Token.__init__(self, value, span, type)
        self.tag = tag

    def key(self):
        return (self.value, self.span, self.type, self.tag)


class MorphTagToken(MorphToken):
    __slots__ = ('tag',)

    def __init__(self, value, span, type, tag, forms):
        MorphToken.__init__(self, value, span, type, forms)
        self.tag = tag

    def key(self):
        return (self.value, self.span, self.type, self.tag, tuple(self.forms_))

    def constrained(self, forms):
        return MorphTagToken(self.value, self.span, self.type, self.tag, forms)


def is_morph_token(token):
    return isinstance(token, MorphToken)


def is_tag_token(token):
    return isinstance(token, (TagToken, MorphTagToken))


# ---------------------------------------------------------------------------
# Token joining / normalization helpers
# ---------------------------------------------------------------------------

def join_tokens(tokens):
    """Concatenate token values, collapsing any inter-token gap to one space."""
    parts = []
    prev_stop = None
    for token in tokens:
        if prev_stop is not None and token.span.start > prev_stop:
            parts.append(' ')
        parts.append(token.value)
        prev_stop = token.span.stop
    return ''.join(parts)


def join_lemmas(tokens):
    """Like join_tokens but each token replaced by its normal form."""
    parts = []
    prev_stop = None
    for token in tokens:
        if prev_stop is not None and token.span.start > prev_stop:
            parts.append(' ')
        parts.append(token.normalized)
        prev_stop = token.span.stop
    return ''.join(parts)


def join_inflected(tokens, grams):
    """Join tokens with each morph token re-inflected to target grammemes."""
    parts = []
    prev_stop = None
    for token in tokens:
        if prev_stop is not None and token.span.start > prev_stop:
            parts.append(' ')
        if is_morph_token(token):
            parts.append(token.forms_[0].inflect(grams))
        else:
            parts.append(token.normalized)
        prev_stop = token.span.stop
    return ''.join(parts)


def tokens_span(tokens):
    return Span(tokens[0].span.start, tokens[-1].span.stop)


# ---------------------------------------------------------------------------
# Maximum-coverage non-overlapping span selection
# ---------------------------------------------------------------------------

def best_nonoverlapping(spans):
    """Pick the subset of spans maximizing total covered characters.

    ``spans`` must already be ordered (start asc, stop desc — the parser's
    deterministic tree order) and non-empty (start < stop). Classic
    weighted-interval DP scanned right to left; ties broken toward the
    later suffix exactly like the reference (strictly-smaller cover
    switches to the suffix solution).
    """
    n = len(spans)
    if n < 2:
        return list(spans)
    if n == 2:
        # the DP below on two spans (two thirds of the calls over the
        # benchmark corpora): both when they do not overlap, else the
        # first unless the second is strictly longer
        (start, stop), (start2, stop2) = spans
        if start2 >= stop:
            return list(spans)
        return [spans[1] if stop - start < stop2 - start2 else spans[0]]
    starts = [start for start, _ in spans]
    # nxt[i]: first index j with spans[j].start >= spans[i].stop (n: none)
    nxt = [bisect_left(starts, stop) for _, stop in spans]
    cover = [0] * (n + 1)
    take = [False] * n
    for i in range(n - 1, -1, -1):
        start, stop = spans[i]
        size = stop - start + cover[nxt[i]]
        if size < cover[i + 1]:
            cover[i] = cover[i + 1]
        else:
            cover[i] = size
            take[i] = True

    out = []
    i = 0
    while i < n:
        if take[i]:
            out.append(spans[i])
            i = nxt[i]
        else:
            i += 1
    return out
