"""Regex tokenizer.

Behavioral contract follows the reference tokenizer
(/root/reference/yargy/tokenizer.py:40-126): six default token classes
(RU / LATIN / INT / PUNCT / EOL / OTHER) compiled into a single
case-insensitive alternation; Russian words additionally carry
morphological readings when tokenized by :class:`MorphTokenizer`.

Designed to be built once per Ray worker (``__init__``) and reused across
batches — compilation cost is amortized.
"""

from __future__ import annotations

import re

from .records import Span, Token

RU = 'RU'
LATIN = 'LATIN'
INT = 'INT'
PUNCT = 'PUNCT'
EOL = 'EOL'
OTHER = 'OTHER'

LEFT_QUOTES = '«„ʼ'
RIGHT_QUOTES = '»“ʻ'
QUOTES = LEFT_QUOTES + '"\'”' + RIGHT_QUOTES

# (type, pattern) pairs; order matters — first match wins.
DEFAULT_RULES = (
    (RU, r'[а-яё]+'),
    (LATIN, r'[a-z]+'),
    (INT, r'\d+'),
    (PUNCT, r'[-\\/!#$%&()\[\]\*\+,\.:;<=>?@^_`{|}~№…"\'«»„“ʼʻ”]'),
    (EOL, r'[\n\r]+'),
    (OTHER, r'\S'),
)

EMAIL_RULE = ('EMAIL', r'[a-zA-Z0-9_.+-]+@[a-zA-Z0-9-]+\.[a-zA-Z0-9-.]+')
PHONE_RULE = ('PHONE', r'(?:\+)?(?:[-\s_()]?\d[-\s_()]?){10,14}')


def _compile(rules):
    named = []
    mapping = {}
    for i, (type_, pattern) in enumerate(rules):
        group = f'g{i}'
        named.append(f'(?P<{group}>{pattern})')
        mapping[group] = type_
    regexp = re.compile('|'.join(named), re.UNICODE | re.IGNORECASE)
    return regexp, mapping


class Tokenizer:
    def __init__(self, rules=DEFAULT_RULES):
        self.rules = list(rules)
        self.regexp, self.mapping = _compile(self.rules)
        self.types = {t for t, _ in self.rules}

    def add_rules(self, *rules):
        return type(self)(list(rules) + self.rules)

    def remove_types(self, *types):
        for t in types:
            self.check_type(t)
        return type(self)([r for r in self.rules if r[0] not in types])

    def check_type(self, type_):
        if type_ not in self.types:
            raise ValueError(type_)

    def __call__(self, text):
        for match in self.regexp.finditer(text):
            start, stop = match.span()
            yield Token(
                match.group(0),
                Span(start, stop),
                self.mapping[match.lastgroup],
            )

    def split(self, text):
        return [t.value for t in self(text)]


class MorphTokenizer(Tokenizer):
    """Tokenizer that attaches morphological readings to Russian tokens."""

    def __init__(self, rules=DEFAULT_RULES, morph=None):
        super().__init__(rules)
        if morph is None:
            from .morpho import default_analyzer
            morph = default_analyzer()
        self.morph = morph

    def add_rules(self, *rules):
        return MorphTokenizer(list(rules) + self.rules, self.morph)

    def remove_types(self, *types):
        for t in types:
            self.check_type(t)
        return MorphTokenizer(
            [r for r in self.rules if r[0] not in types], self.morph)

    def __call__(self, text):
        for token in Tokenizer.__call__(self, text):
            if token.type == RU:
                yield token.morphed(self.morph(token.value))
            else:
                yield token
