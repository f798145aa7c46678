"""Tagger stage: token stream -> tagged token stream.

Behavioral contract: /root/reference/yargy/tagger.py. A tagger runs
between tokenization and parsing (e.g. external NER BIO tags); the
``tag()`` predicate consumes the tags. In the Ray engine a model-backed
tagger would itself be a ``stages/compute.map_cached`` stage upstream of
extraction, with tags travelling as a ``list<string>`` column.
"""

from __future__ import annotations


class Tagger:
    tags = ()

    def __call__(self, tokens):
        raise NotImplementedError

    def check_tag(self, tag):
        if tag not in self.tags:
            raise ValueError(tag)
        return True


class PassTagger(Tagger):
    def __call__(self, tokens):
        return tokens

    def check_tag(self, tag):
        raise ValueError(f'no tagger provides tag {tag!r}')


class TaggerChain(Tagger):
    def __init__(self, taggers):
        self.taggers = list(taggers)

    def __call__(self, tokens):
        for tagger in self.taggers:
            tokens = tagger(tokens)
        return tokens

    def check_tag(self, tag):
        if not any(tag in t.tags for t in self.taggers):
            raise ValueError(tag)
        return True
