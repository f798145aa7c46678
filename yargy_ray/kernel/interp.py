"""Fact schemas, attribute/normalizer chains and match interpretation.

Behavioral contract: /root/reference/yargy/interpretation/ — a match's
parse tree is folded bottom-up: leaves yield tokens, interpretation-
bearing nodes apply their interpretator (fact assembly, attribute
capture, normalization), gazetteer productions pass the canonical key so
``normalized()`` returns the canonical phrase.

Facts serialize to plain dicts (``as_json``) — in the Ray engine these
become the ``fact_json`` column of the mentions table, later projected to
(subj, pred, obj) triple rows.
"""

from __future__ import annotations

from inspect import isclass

from .records import (
    Token,
    join_inflected,
    join_lemmas,
    join_tokens,
    tokens_span,
)


# ---------------------------------------------------------------------------
# Fact schema declaration
# ---------------------------------------------------------------------------

class Fact:
    __attributes__ = ()
    _raw = None

    def __init__(self, **kwargs):
        for key in kwargs:
            if key not in self.__attributes__:
                raise KeyError(key)
        for key in self.__attributes__:
            if key in kwargs:
                value = kwargs[key]
            else:
                spec = getattr(type(self), key)
                value = [] if isinstance(spec, RepeatableAttribute) else spec.default
            setattr(self, key, value)

    def __eq__(self, other):
        return (
            type(self).__name__ == type(other).__name__
            and isinstance(other, Fact)
            and all(
                getattr(self, k) == getattr(other, k)
                for k in self.__attributes__
            )
        )

    def __hash__(self):
        return hash(tuple(
            repr(getattr(self, k)) for k in self.__attributes__))

    def __repr__(self):
        args = ', '.join(
            f'{k}={getattr(self, k)!r}' for k in self.__attributes__)
        return f'{type(self).__name__}({args})'

    @property
    def as_json(self):
        return self._raw.as_json

    @property
    def spans(self):
        return sorted(self._raw.spans, key=lambda s: s.start)


class AttributeScheme:
    """Declared attribute: name + default; ``.repeatable()`` for lists."""

    def __init__(self, name, default=None):
        self.name = name
        self.default = default
        self.is_repeatable = False

    def repeatable(self):
        if self.default is not None:
            raise ValueError('repeatable attribute cannot have a default')
        out = AttributeScheme(self.name)
        out.is_repeatable = True
        return out

    def bind(self, fact_cls):
        if self.is_repeatable:
            return RepeatableAttribute(fact_cls, self.name)
        return Attribute(fact_cls, self.name, self.default)


attribute = AttributeScheme


def fact(name, attrs):
    """Declare a fact class: ``fact('Date', ['year', 'month', 'day'])``."""
    if isinstance(attrs, str):
        attrs = [attrs]
    cls = type(str(name), (Fact,), {'__attributes__': [], '_raw': None})
    for item in attrs:
        scheme = item if isinstance(item, AttributeScheme) else AttributeScheme(item)
        cls.__attributes__.append(scheme.name)
        setattr(cls, scheme.name, scheme.bind(cls))
    return cls


# --- bound attributes (what ``F.a`` evaluates to) ---------------------------

class BoundAttribute:
    def __init__(self, fact_cls, name):
        self.fact = fact_cls
        self.name = name

    @property
    def label(self):
        return f'{self.fact.__name__}.{self.name}'


class Attribute(BoundAttribute):
    def __init__(self, fact_cls, name, default):
        super().__init__(fact_cls, name)
        self.default = default

    def normalized(self):
        return PipedAttribute(self, NormalizedNormalizer())

    def inflected(self, grams=frozenset({'nomn', 'sing'})):
        return PipedAttribute(self, InflectedNormalizer(grams))

    def const(self, value):
        return PipedAttribute(self, ConstNormalizer(value))

    def custom(self, function):
        return PipedAttribute(self, FunctionNormalizer(function))


class RepeatableAttribute(BoundAttribute):
    pass


class PipedAttribute(BoundAttribute):
    """Attribute + normalizer chain (``F.a.normalized().custom(fn)``...)."""

    def __init__(self, attribute, normalizer):
        super().__init__(attribute.fact, attribute.name)
        self.attribute = attribute
        self.normalizer = normalizer

    def custom(self, function):
        return PipedAttribute(self.attribute, self.normalizer.custom(function))

    @property
    def label(self):
        return f'{self.attribute.label}.{self.normalizer.label}'


# ---------------------------------------------------------------------------
# Normalizers
# ---------------------------------------------------------------------------

class Normalizer:
    def __call__(self, item):
        raise NotImplementedError

    def custom(self, function):
        return ComposedNormalizer(self, function)

    label = 'normalizer'


class NormalizedNormalizer(Normalizer):
    """Lemma-join; a gazetteer canonical key short-circuits the join."""

    label = 'normalized()'

    def __call__(self, item):
        if not isinstance(item, Chain):
            raise TypeError(type(item))
        if item.key:
            return item.key
        return join_lemmas(item.tokens)


class InflectedNormalizer(Normalizer):
    def __init__(self, grams=None):
        self.grams = grams

    def __call__(self, item):
        if not isinstance(item, Chain):
            raise TypeError(type(item))
        return join_inflected(item.tokens, self.grams)

    @property
    def label(self):
        # sorted: a frozenset's order changes with the string hash seed
        return 'inflected({})'.format(', '.join(sorted(self.grams or ())))


class ConstNormalizer(Normalizer):
    def __init__(self, value):
        self.value = value

    def __call__(self, item):
        return self.value

    @property
    def label(self):
        return f'const({self.value!r})'


class FunctionNormalizer(Normalizer):
    def __init__(self, function):
        self.function = function

    def __call__(self, item):
        return self.function(item.normalized)

    @property
    def label(self):
        return f'custom({self.function.__name__})'


class ComposedNormalizer(Normalizer):
    """first normalizer / function, then a plain function on its output."""

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def __call__(self, item):
        if isinstance(self.first, Normalizer):
            value = self.first(item)
        else:
            value = self.first(item.normalized)
        return self.second(value)

    @property
    def label(self):
        first = (
            self.first.label
            if isinstance(self.first, Normalizer)
            else f'custom({self.first.__name__})'
        )
        return f'{first}.custom({self.second.__name__})'


# reference-compatible constructors
normalized = NormalizedNormalizer
inflected = InflectedNormalizer
const = ConstNormalizer


def custom(function):
    return FunctionNormalizer(function)


# ---------------------------------------------------------------------------
# Interpretation results (intermediate fold values)
# ---------------------------------------------------------------------------

class Chain:
    """A run of matched tokens, optionally carrying a gazetteer key."""

    def __init__(self, tokens, key=None):
        self.tokens = tokens
        self.key = key

    @property
    def normalized(self):
        return join_tokens(self.tokens)

    @property
    def spans(self):
        yield tokens_span(self.tokens)

    @property
    def as_json(self):
        return self.normalized


class FactResult:
    def __init__(self, builder):
        self.builder = builder

    @property
    def normalized(self):
        return self.builder.normalized

    @property
    def spans(self):
        return self.builder.spans

    @property
    def as_json(self):
        return self.builder.as_json


class AttributeResult:
    def __init__(self, value, attribute):
        self.value = value
        self.attribute = attribute

    @property
    def normalized(self):
        return self.value.normalized

    @property
    def spans(self):
        return self.value.spans

    @property
    def as_json(self):
        return self.value.as_json


class NormalizerResult:
    def __init__(self, value, source):
        self.value = value
        self.source = source

    @property
    def normalized(self):
        return self.value

    @property
    def spans(self):
        return self.source.spans

    @property
    def as_json(self):
        if isinstance(self.value, (Chain, FactResult, AttributeResult,
                                   NormalizerResult)):
            return self.value.as_json
        return self.value


def _layout(scheme):
    """``(repeatable, defaults)`` of a fact class: the frozenset of its
    repeatable attribute names, and each attribute's default in
    ``__attributes__`` order (None for a repeatable one, whose builder
    gets a fresh list). Computed once per class, kept in its
    ``__dict__``."""
    layout = scheme.__dict__.get('_layout')
    if layout is None:
        repeatable = set()
        defaults = {}
        for key in scheme.__attributes__:
            spec = getattr(scheme, key)
            if isinstance(spec, RepeatableAttribute):
                repeatable.add(key)
                defaults[key] = None
            else:
                defaults[key] = spec.default
        layout = (frozenset(repeatable), defaults)
        scheme._layout = layout
    return layout


class FactBuilder:
    """Mutable fact under construction during the interpretation fold."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.repeatable, defaults = _layout(scheme)
        self.modified = set()
        self.attributes = dict(defaults)
        for key in self.repeatable:
            self.attributes[key] = []

    def put(self, key, value):
        if key in self.repeatable:
            self.attributes[key].append(value)
        else:
            self.attributes[key] = value
        self.modified.add(key)

    def merge(self, other):
        for key in other.modified:
            self.attributes[key] = other.attributes[key]
            self.modified.add(key)

    @property
    def normalized(self):
        kwargs = {}
        for key, value in self.attributes.items():
            if key in self.repeatable:
                value = [v.normalized for v in value]
            elif key in self.modified:
                value = value.normalized
            kwargs[key] = value
        out = self.scheme(**kwargs)
        out._raw = self
        return out

    @property
    def spans(self):
        for key, value in self.attributes.items():
            if key in self.repeatable:
                for item in value:
                    yield from item.spans
            elif key in self.modified:
                yield from value.spans

    @property
    def as_json(self):
        data = {}
        for key in self.scheme.__attributes__:
            value = self.attributes[key]
            if key in self.repeatable:
                value = [v.as_json for v in value]
            elif key in self.modified:
                value = value.as_json
            if value is not None:
                data[key] = value
        return data


# ---------------------------------------------------------------------------
# Interpretators (annotations attached to BNF rules)
# ---------------------------------------------------------------------------

class Interpretator:
    label = 'interp'

    def __call__(self, items, key=None):
        raise NotImplementedError


class FactInterpretator(Interpretator):
    def __init__(self, fact_cls):
        self.fact = fact_cls

    def __call__(self, items, key=None):
        builder = FactBuilder(self.fact)
        for item in items:
            if isinstance(item, AttributeResult) and issubclass(
                    self.fact, item.attribute.fact):
                builder.put(item.attribute.name, item.value)
            elif isinstance(item, FactResult) and issubclass(
                    item.builder.scheme, self.fact):
                builder.merge(item.builder)
        return FactResult(builder)

    @property
    def label(self):
        return self.fact.__name__


def _chain_or_single(items, key):
    """Shared input-shaping: all tokens -> Chain; single result passes."""
    for item in items:
        if not isinstance(item, Token):
            break
    else:
        return Chain(items, key)
    if len(items) == 1:
        return items[0]
    raise TypeError(
        'mixed interpretation input: {}'.format([type(i) for i in items]))


class AttributeInterpretator(Interpretator):
    def __init__(self, attribute):
        self.attribute = attribute

    def __call__(self, items, key=None):
        value = _chain_or_single(items, key)
        if isinstance(value, AttributeResult):
            value = value.value
        elif not isinstance(value, (Chain, NormalizerResult, FactResult)):
            raise TypeError(type(value))
        return AttributeResult(value, self.attribute)

    @property
    def label(self):
        return self.attribute.label


class NormalizerInterpretator(Interpretator):
    def __init__(self, normalizer):
        self.normalizer = normalizer
        self.const = isinstance(normalizer, ConstNormalizer)

    def __call__(self, items, key=None):
        if self.const:
            source = Chain([], key)
            value = self.normalizer.value
        else:
            source = _chain_or_single(items, key)
            value = self.normalizer(source)
        return NormalizerResult(value, source)

    @property
    def label(self):
        return self.normalizer.label


class AttributeNormalizerInterpretator(Interpretator):
    def __init__(self, attribute, normalizer):
        self.attribute = attribute
        self.inner = NormalizerInterpretator(normalizer)

    def __call__(self, items, key=None):
        return AttributeResult(self.inner(items, key), self.attribute)

    @property
    def label(self):
        return f'{self.attribute.label}.{self.inner.normalizer.label}'


def token_interpretator(item):
    """Interpretator for predicate-level ``.interpretation(...)``."""
    if isinstance(item, PipedAttribute):
        return AttributeNormalizerInterpretator(item.attribute, item.normalizer)
    if isinstance(item, BoundAttribute):
        return AttributeInterpretator(item)
    if isinstance(item, Normalizer):
        return NormalizerInterpretator(item)
    raise TypeError(type(item))


def rule_interpretator(item):
    """Interpretator for rule-level ``.interpretation(...)``."""
    if isinstance(item, Interpretator):
        return item
    if isclass(item) and issubclass(item, Fact):
        return FactInterpretator(item)
    return token_interpretator(item)
