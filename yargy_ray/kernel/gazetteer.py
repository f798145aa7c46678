"""Phrase gazetteers ("pipelines" in the reference nomenclature).

Behavioral contract: /root/reference/yargy/pipelines.py — a gazetteer is a
set of multi-token keys compiled to productions whose first token indexes
into a dict, turning the Earley predict step into an O(1) lookup.

Semantically this is a broadcast semi-join of the token stream against a
small phrase table. In the Ray engine the phrase list lives inside the
grammar factory; each extraction worker compiles it once in ``__init__``
and the object store shares the underlying block data across workers.

``morph_gazetteer`` is the entity-linking primitive: the matched
production's canonical ``key`` short-circuits ``normalized()``
interpretation to the canonical phrase (reference normalizer.py:25-32).
"""

from __future__ import annotations

from .grammar import BNFRule, GazNode, Prod
from .predicates import LemmaIn, caseless, eq
from .records import is_morph_token


class GazKey:
    __slots__ = ('value', 'terms')

    def __init__(self, value, terms):
        self.value = value
        self.terms = terms


class GazProd(Prod):
    """Production carrying the canonical key of its source phrase."""

    __slots__ = ('value',)

    def __init__(self, value, terms):
        super().__init__(terms)
        self.value = value


class GazBNFRule(BNFRule):
    """Gazetteer BNF rule with a first-token index for O(1) prediction."""

    abbr = 'pipeline'

    def __init__(self, productions):
        super().__init__(list(productions))
        self.index = self._build_index(self.productions)

    def _build_index(self, productions):
        index = {}
        for prod in productions:
            index.setdefault(prod.terms[0].value, []).append(prod)
        return index

    def predict(self, token):
        return self.index.get(token.value, ())

    def __str__(self):
        return f'{self.label} -> {self.abbr}'


class CaselessGazBNFRule(GazBNFRule):
    abbr = 'caseless_pipeline'

    def predict(self, token):
        return self.index.get(token.value.lower(), ())


class MorphGazBNFRule(GazBNFRule):
    abbr = 'morph_pipeline'

    def _build_index(self, productions):
        index = {}
        for prod in productions:
            for lemma in prod.terms[0].lemmas:
                index.setdefault(lemma, []).append(prod)
        return index

    def predict(self, token):
        if is_morph_token(token):
            # lemmas iterated in sorted order: unlike the reference (which
            # iterates a Python set), prediction rank must be deterministic
            # across processes so distributed results == serial results
            out = []
            seen = set()
            for lemma in sorted({f.normalized for f in token.forms}):
                for prod in self.index.get(lemma, ()):
                    if id(prod) not in seen:
                        seen.add(id(prod))
                        out.append(prod)
            return out
        return self.index.get(token.normalized, ())


class Gazetteer:
    """Activated gazetteer: canonical keys + per-token predicate terms."""

    term_predicate = staticmethod(eq)
    bnf_rule = GazBNFRule

    def __init__(self, keys):
        self.keys = list(keys)

    def activate(self, context):
        return self

    @property
    def as_bnf(self):
        return self.bnf_rule(
            GazProd(key.value, [self.term_predicate(t) for t in key.terms])
            for key in self.keys
        )

    @property
    def label(self):
        return type(self).__name__


class CaselessGazetteer(Gazetteer):
    term_predicate = staticmethod(caseless)
    bnf_rule = CaselessGazBNFRule


class MorphGazetteer(Gazetteer):
    term_predicate = staticmethod(LemmaIn)
    bnf_rule = MorphGazBNFRule


class GazScheme:
    """Unactivated gazetteer: plain phrase lines, tokenized at activation."""

    gazetteer = Gazetteer
    label = '[pipeline]'

    def __init__(self, lines):
        self.lines = [str(line) for line in lines]

    def _key(self, line, tokenizer):
        return GazKey(line, tokenizer.split(line))

    def activate(self, context):
        return self.gazetteer(
            self._key(line, context.tokenizer) for line in self.lines)


class CaselessGazScheme(GazScheme):
    gazetteer = CaselessGazetteer
    label = '[caseless_pipeline]'


class MorphGazScheme(GazScheme):
    gazetteer = MorphGazetteer
    label = '[morph_pipeline]'

    def _key(self, line, tokenizer):
        parts = tokenizer.split(line)
        return GazKey(line, [tokenizer.morph.normalized(p) for p in parts])


def gazetteer(lines):
    """Exact multi-token phrase matcher (reference ``pipeline``)."""
    return GazNode(GazScheme(lines))


def caseless_gazetteer(lines):
    return GazNode(CaselessGazScheme(lines))


def morph_gazetteer(lines):
    """Lemma-level phrase matcher — the entity-linking primitive."""
    return GazNode(MorphGazScheme(lines))


# reference-compatible aliases
pipeline = gazetteer
caseless_pipeline = caseless_gazetteer
morph_pipeline = morph_gazetteer
