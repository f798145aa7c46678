"""Pluggable morphology backend.

Interface contract (reference: /root/reference/yargy/morph.py:118-143):
``analyzer(word) -> list[Form]``, ``analyzer.normalized(word) -> set[str]``,
``analyzer.check_gram(gram)`` raising ``ValueError`` for unknown grammemes,
and ``Form.inflect(grams)`` re-inflecting the lemma to target grammemes.

Two implementations:

* :class:`LexiconAnalyzer` — deterministic embedded paradigm table
  (``lexicon.py`` conformance vocabulary + ``declensions.py`` generated
  frequent-lemma paradigms); the default in this sandbox.
  Out-of-vocabulary Cyrillic words get suffix-GUESSED readings (POS +
  case/number from the ending, lemma = lowercased surface) mirroring
  pymorphy2's predictor, which parses everything (ref morph.py:118-130);
  non-Cyrillic OOV keeps a single gram-less reading.
* :class:`Pymorphy2Analyzer` — thin adapter used automatically when
  pymorphy2 + dictionaries are importable (parity runs outside the sandbox).

Analyzers are built once per Ray worker process (on first use by the
extraction callable) and memoize parses in a per-process LRU — token
frequency is Zipfian so independent per-worker caches hit nearly as well
as a shared one.
"""

from __future__ import annotations

from functools import lru_cache

from .lexicon import KNOWN_GRAMS, PARADIGMS
from .records import Form, Grams

CACHE_SIZE = 10000

# ---------------------------------------------------------------------------
# OOV suffix guesser (deterministic, pymorphy2-predictor-like)
# ---------------------------------------------------------------------------

_CYR = set('абвгдеёжзийклмнопрстуфхцчшщъыьэюя')

_ADJ_ENDINGS = {
    'ый': ['ADJF masc sing nomn', 'ADJF masc sing accs'],
    'ий': ['ADJF masc sing nomn', 'ADJF masc sing accs'],
    # stressed-ending hard adjectives share -ой with feminine oblique
    # nouns (большой vs женой) — both readings
    'ой': ['ADJF masc sing nomn', 'NOUN inan femn sing ablt',
           'NOUN inan femn sing gent'],
    'ая': ['ADJF femn sing nomn'],
    'яя': ['ADJF femn sing nomn'],
    'ое': ['ADJF neut sing nomn', 'ADJF neut sing accs'],
    'ее': ['ADJF neut sing nomn', 'ADJF neut sing accs'],
    'ые': ['ADJF plur nomn', 'ADJF plur accs'],
    'ого': ['ADJF masc sing gent', 'ADJF neut sing gent'],
    'его': ['ADJF masc sing gent', 'ADJF neut sing gent'],
    'ому': ['ADJF masc sing datv', 'ADJF neut sing datv'],
    'ему': ['ADJF masc sing datv', 'ADJF neut sing datv'],
    'ую': ['ADJF femn sing accs'],
    'юю': ['ADJF femn sing accs'],
    'ыми': ['ADJF plur ablt'],
    'ими': ['ADJF plur ablt'],
    'ых': ['ADJF plur gent', 'ADJF plur loct'],
    'их': ['ADJF plur gent', 'ADJF plur loct'],
    'ым': ['ADJF masc sing ablt', 'ADJF plur datv'],
    'им': ['ADJF masc sing ablt', 'ADJF plur datv'],
}

# Finite-verb endings (checked before ADJ/NOUN, longest first). Short
# suffixes that real nouns also carry (кабинет, институт, вокзал)
# return BOTH readings — pymorphy2's predictor does the same; gram()
# predicates see the union.
_VERB_ENDINGS = {
    # reflexive present, 3rd person
    'ется': ['VERB sing 3per pres'], 'ится': ['VERB sing 3per pres'],
    'ётся': ['VERB sing 3per pres'],
    'ются': ['VERB plur 3per pres'], 'утся': ['VERB plur 3per pres'],
    'атся': ['VERB plur 3per pres'], 'ятся': ['VERB plur 3per pres'],
    # reflexive past
    'ался': ['VERB masc sing past'], 'ился': ['VERB masc sing past'],
    'елся': ['VERB masc sing past'], 'улся': ['VERB masc sing past'],
    'ялся': ['VERB masc sing past'],
    'лась': ['VERB femn sing past'], 'лось': ['VERB neut sing past'],
    'лись': ['VERB plur past'],
    # plain present, 3rd person (3-char thematic stems: unambiguous)
    'ает': ['VERB sing 3per pres'], 'яет': ['VERB sing 3per pres'],
    'ует': ['VERB sing 3per pres'], 'еет': ['VERB sing 3per pres'],
    # plain past, feminine/plural/neuter (noun homographs exist: скала)
    'ала': ['VERB femn sing past', 'NOUN inan femn sing nomn'],
    'ила': ['VERB femn sing past', 'NOUN inan femn sing nomn'],
    'ела': ['VERB femn sing past', 'NOUN inan femn sing nomn'],
    'яла': ['VERB femn sing past', 'NOUN inan femn sing nomn'],
    'ула': ['VERB femn sing past', 'NOUN inan femn sing nomn'],
    'ыла': ['VERB femn sing past', 'NOUN inan femn sing nomn'],
    'али': ['VERB plur past', 'NOUN inan plur nomn'],
    'или': ['VERB plur past', 'NOUN inan plur nomn'],
    'ели': ['VERB plur past', 'NOUN inan plur nomn'],
    'яли': ['VERB plur past', 'NOUN inan plur nomn'],
    'ули': ['VERB plur past', 'NOUN inan plur nomn'],
    'ыли': ['VERB plur past', 'NOUN inan plur nomn'],
    'ало': ['VERB neut sing past', 'NOUN inan neut sing nomn'],
    'ило': ['VERB neut sing past', 'NOUN inan neut sing nomn'],
    'ело': ['VERB neut sing past', 'NOUN inan neut sing nomn'],
    'яло': ['VERB neut sing past', 'NOUN inan neut sing nomn'],
    'уло': ['VERB neut sing past', 'NOUN inan neut sing nomn'],
    'ыло': ['VERB neut sing past', 'NOUN inan neut sing nomn'],
    # 2-char present (ё is verb-only; plain е/и/у/ю/а/я also end nouns)
    'ёт': ['VERB sing 3per pres'],
    'ет': ['VERB sing 3per pres', 'NOUN inan masc sing nomn',
           'NOUN inan masc sing accs'],
    'ит': ['VERB sing 3per pres', 'NOUN inan masc sing nomn',
           'NOUN inan masc sing accs'],
    'ут': ['VERB plur 3per pres', 'NOUN inan masc sing nomn'],
    'ют': ['VERB plur 3per pres', 'NOUN inan masc sing nomn'],
    'ат': ['VERB plur 3per pres', 'NOUN inan masc sing nomn'],
    'ят': ['VERB plur 3per pres', 'NOUN inan masc sing nomn'],
    # 2-char masculine past (вокзал/журнал are nouns)
    'ал': ['VERB masc sing past', 'NOUN inan masc sing nomn'],
    'ил': ['VERB masc sing past', 'NOUN inan masc sing nomn'],
    'ел': ['VERB masc sing past', 'NOUN inan masc sing nomn'],
    'ял': ['VERB masc sing past', 'NOUN inan masc sing nomn'],
    'ул': ['VERB masc sing past', 'NOUN inan masc sing nomn'],
    'ыл': ['VERB masc sing past', 'NOUN inan masc sing nomn'],
}

_NOUN_ENDINGS = {
    'ами': ['NOUN plur ablt'], 'ями': ['NOUN plur ablt'],
    'ах': ['NOUN plur loct'], 'ях': ['NOUN plur loct'],
    'ам': ['NOUN plur datv'], 'ям': ['NOUN plur datv'],
    'ов': ['NOUN masc plur gent'], 'ев': ['NOUN masc plur gent'],
    'ей': ['NOUN plur gent', 'NOUN femn sing ablt'],
    'ом': ['NOUN masc sing ablt', 'NOUN neut sing ablt'],
    'ем': ['NOUN masc sing ablt', 'NOUN neut sing ablt'],
    'ой': ['NOUN femn sing ablt', 'NOUN femn sing gent'],
    'у': ['NOUN sing datv', 'NOUN femn sing accs'],
    'ю': ['NOUN sing datv', 'NOUN femn sing accs'],
    'ы': ['NOUN femn sing gent', 'NOUN plur nomn'],
    'и': ['NOUN femn sing gent', 'NOUN plur nomn'],
    'е': ['NOUN sing loct', 'NOUN sing datv'],
    'а': ['NOUN femn sing nomn', 'NOUN masc sing gent'],
    'я': ['NOUN femn sing nomn', 'NOUN masc sing gent'],
    'о': ['NOUN inan neut sing nomn', 'NOUN inan neut sing accs',
          'ADVB'],
    'ь': ['NOUN sing nomn', 'NOUN sing accs'],
}


def guess_grams(word):
    """Grammeme-set guesses for an OOV Cyrillic word, by suffix.

    Returns a list of frozensets (possibly empty list = no guess).
    Deliberately NEVER guesses Name/Surn/Abbr — proper-noun predicates
    stay dictionary-gated so grammars cannot hallucinate persons.
    """
    if len(word) < 3 or not set(word) <= _CYR:
        return []
    if word.endswith('ться') or word.endswith('ть') or word.endswith('чь'):
        return [frozenset({'INFN', 'impf'})]
    for size in (4, 3, 2):
        suffix = word[-size:]
        if suffix in _VERB_ENDINGS:
            return [frozenset(g.split()) for g in _VERB_ENDINGS[suffix]]
    for size in (3, 2):
        suffix = word[-size:]
        if suffix in _ADJ_ENDINGS:
            return [frozenset(g.split()) for g in _ADJ_ENDINGS[suffix]]
    for size in (3, 2, 1):
        suffix = word[-size:]
        if suffix in _NOUN_ENDINGS:
            return [frozenset(g.split() + ['inan'])
                    if 'NOUN' in g.split()
                    and 'inan' not in g and 'anim' not in g
                    else frozenset(g.split())
                    for g in _NOUN_ENDINGS[suffix]]
    return [frozenset({'NOUN', 'inan', 'sing', 'nomn'})]


class Paradigm:
    """One lexeme: lemma plus its list of (surface, grams) cells."""

    __slots__ = ('lemma', 'cells')

    def __init__(self, lemma, cells):
        self.lemma = lemma
        self.cells = cells  # list[(surface, frozenset)]

    def inflect(self, form, target):
        """Surface of the cell containing all target grammemes.

        Falls back to the lemma when no cell fits (pymorphy2 returns the
        normal form when ``inflect`` fails — reference morph.py:99-103).
        """
        target = frozenset(target)
        for surface, grams in self.cells:
            if target <= grams:
                return surface
        return self.lemma


class LexiconAnalyzer:
    """Deterministic embedded-lexicon analyzer."""

    def __init__(self, paradigms=None):
        if paradigms is None:
            from .declensions import generated_paradigms
            hand = list(PARADIGMS)
            hand_lemmas = {p[0] for p in hand}
            # hand-written conformance paradigms win over generated ones
            paradigms = hand + [p for p in generated_paradigms()
                                if p[0] not in hand_lemmas]
        index = {}
        for lemma, base, forms in paradigms:
            cells = [(surface, base | grams) for surface, grams in forms]
            paradigm = Paradigm(lemma, cells)
            for surface, grams in cells:
                index.setdefault(surface, []).append(
                    Form(lemma, Grams(grams), paradigm))
        self.index = index
        self._parse = lru_cache(CACHE_SIZE)(self._parse_uncached)

    def check_gram(self, gram):
        if gram not in KNOWN_GRAMS:
            raise ValueError(gram)

    def _parse_uncached(self, word):
        forms = self.index.get(word)
        if forms is None:
            # OOV: suffix-guessed readings (lemma = lowercased surface);
            # non-Cyrillic words keep one gram-less reading.
            guessed = guess_grams(word)
            if guessed:
                forms = [Form(word, Grams(g)) for g in guessed]
            else:
                forms = [Form(word, Grams(frozenset()))]
        return forms

    def __call__(self, word):
        return self._parse(word.lower())

    def normalized(self, word):
        return {form.normalized for form in self(word)}


class _PymorphyParadigm:
    __slots__ = ('raw',)

    def __init__(self, raw):
        self.raw = raw

    def inflect(self, form, target):
        record = self.raw.inflect(set(target))
        if not record:
            return form.normalized
        return record.word


class Pymorphy2Analyzer:
    """Adapter over a real pymorphy2 MorphAnalyzer (parity runs only)."""

    def __init__(self):
        import pymorphy2  # noqa: F401 - optional dependency
        self.raw = pymorphy2.MorphAnalyzer()
        self._parse = lru_cache(CACHE_SIZE)(self._parse_uncached)

    def check_gram(self, gram):
        if not self.raw.TagClass.grammeme_is_known(gram):
            raise ValueError(gram)

    def _parse_uncached(self, word):
        return [
            Form(p.normal_form, Grams(p.tag.grammemes), _PymorphyParadigm(p))
            for p in self.raw.parse(word)
        ]

    def __call__(self, word):
        return self._parse(word)

    def normalized(self, word):
        return {form.normalized for form in self(word)}


_DEFAULT = None


def default_analyzer():
    """Process-wide analyzer singleton (cheap to share: read-only + LRU)."""
    global _DEFAULT
    if _DEFAULT is None:
        try:
            _DEFAULT = Pymorphy2Analyzer()
        except ImportError:
            _DEFAULT = LexiconAnalyzer()
    return _DEFAULT
