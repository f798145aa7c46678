"""Fact schemas, attribute/normalizer chains and match interpretation.

Behavioral contract: /root/reference/yargy/interpretation/ — a match's
parse tree is folded bottom-up: leaves yield tokens, interpretation-
bearing nodes apply their interpretator (fact assembly, attribute
capture, normalization), gazetteer productions pass the canonical key so
``normalized()`` returns the canonical phrase.

Facts serialize to plain dicts (``as_json``) — in the Ray engine these
become the ``fact_json`` column of the mentions table, later projected to
(subj, pred, obj) triple rows. The extraction path folds them through
payload plans (``payload_plan``, bottom of this module): the same fold
compiled once per interpretator, giving the payload with no result
object.
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


# ---------------------------------------------------------------------------
# Payload plans: the fold of the extraction path, with no result objects
# ---------------------------------------------------------------------------
#
# ``payload_plan(interpretator)`` compiles an interpretator once into a
# ``fold(values, key)`` that takes what ``Interpretator.__call__`` takes
# (tokens and the fold values of interpreted children) and gives a fold
# value standing for the result object, as a tuple:
#
# * ``(ATTR, attribute, json, plain)`` for an ``AttributeResult``: the
#   JSON of its value, and whether that JSON is also its ``normalized``
#   (true unless the value is a fact);
# * ``(NORM, value)`` for a ``NormalizerResult``: its value is its JSON;
# * ``(FACT, plan, state)`` for a ``FactResult``: ``state`` maps each
#   modified attribute to its JSON (a list of them when repeatable),
#   ``plan.json(state)`` is its ``FactBuilder.as_json``.
#
# ``plan_payload`` turns a root value into the payload the extraction
# stage keeps: ``result_payload`` of the result object. A fold raises
# what the object fold raises (``TypeError`` on mixed input) and
# ``Unplanned`` where a value would need what the tuple does not keep (a
# custom function over a fact, a normalizer output that is itself a fact
# or result, a fact merged into a parent subclass); the caller then folds
# the match through result objects, running its custom functions again.

ATTR, NORM, FACT = 0, 1, 2


class Unplanned(Exception):
    """A payload plan met a case it does not model."""


def fact_payload(value):
    """Interpretation result's ``normalized`` value -> JSON-serializable
    payload: a fact's ``as_json``, any other value as it is."""
    if isinstance(value, Fact):
        return value.as_json
    return value


def result_payload(result):
    """``fact_payload`` of an interpretation result's ``normalized``
    value; a ``FactResult`` gives its ``as_json`` without building the
    fact."""
    if isinstance(result, FactResult):
        return result.as_json
    return fact_payload(result.normalized)


def plan_payload(value):
    """``result_payload`` of the result a root fold value stands for."""
    if value[0] == ATTR:
        return value[2]
    if value[0] == NORM:
        return value[1]
    return value[1].json(value[2])


_OPAQUE = (Fact, Chain, FactResult, AttributeResult, NormalizerResult)


def _checked(value):
    # a normalizer output whose JSON or normalized view is not itself
    if isinstance(value, _OPAQUE):
        raise Unplanned(type(value))
    return value


def _plain(value):
    """``.normalized`` of the result a fold value stands for."""
    if value[0] == NORM:
        return value[1]
    if value[0] == ATTR and value[3]:
        return value[2]
    raise Unplanned('normalized view of a fact')


def _chain_normalizer(normalizer):
    """``normalizer(Chain(tokens, key))`` as a function of ``(tokens,
    key)``."""
    kind = type(normalizer)
    if kind is NormalizedNormalizer:
        return lambda tokens, key: key or join_lemmas(tokens)
    if kind is InflectedNormalizer:
        grams = normalizer.grams
        return lambda tokens, key: join_inflected(tokens, grams)
    if kind is ConstNormalizer:
        value = normalizer.value
        return lambda tokens, key: value
    if kind is FunctionNormalizer:
        function = normalizer.function
        return lambda tokens, key: function(join_tokens(tokens))
    if kind is ComposedNormalizer:
        first, second = normalizer.first, normalizer.second
        if isinstance(first, Normalizer):
            first = _chain_normalizer(first)
            return lambda tokens, key: second(first(tokens, key))
        return lambda tokens, key: second(first(join_tokens(tokens)))
    return lambda tokens, key: normalizer(Chain(tokens, key))


def _value_normalizer(normalizer, value):
    """``normalizer(result)`` for the result fold value ``value`` stands
    for."""
    kind = type(normalizer)
    if kind is NormalizedNormalizer or kind is InflectedNormalizer:
        raise TypeError('normalizer input is not a token chain')
    if kind is ConstNormalizer:
        return normalizer.value
    if kind is FunctionNormalizer:
        return normalizer.function(_plain(value))
    if kind is ComposedNormalizer:
        first = normalizer.first
        if isinstance(first, Normalizer):
            return normalizer.second(_value_normalizer(first, value))
        return normalizer.second(first(_plain(value)))
    raise Unplanned(kind)


class FactPlan:
    """``FactInterpretator``: the fact's layout, and per attribute or
    child fact class met, whether it lands in this fact, decided once."""

    def __init__(self, fact_cls):
        self.fact = fact_cls
        self.repeatable, defaults = _layout(fact_cls)
        self.layout = [(key, defaults[key], key in self.repeatable)
                       for key in fact_cls.__attributes__]
        # attribute -> (name, repeatable here), or None when ignored
        self.targets = {}

    def _target(self, attribute):
        target = None
        if issubclass(self.fact, attribute.fact):
            target = (attribute.name, attribute.name in self.repeatable)
        self.targets[attribute] = target
        return target

    def fold(self, values, key):
        state = {}
        targets = self.targets
        for item in values:
            if type(item) is not tuple:
                continue
            tag = item[0]
            if tag == ATTR:
                target = targets.get(item[1], False)
                if target is False:
                    target = self._target(item[1])
                if target is not None:
                    name, repeatable = target
                    if repeatable:
                        found = state.get(name)
                        if found is None:
                            state[name] = [item[2]]
                        else:
                            found.append(item[2])
                    else:
                        state[name] = item[2]
            elif tag == FACT:
                child = item[1].fact
                if child is self.fact:
                    state.update(item[2])
                elif issubclass(child, self.fact):
                    raise Unplanned('fact merged into a parent class')
        return (FACT, self, state)

    def json(self, state):
        """``FactBuilder.as_json`` of a fold's ``state``."""
        data = {}
        for key, default, repeatable in self.layout:
            if key in state:
                value = state[key]
                if repeatable:
                    value = list(value)
            elif repeatable:
                value = []
            else:
                value = default
            if value is not None:
                data[key] = value
        return data


class AttributePlan:
    """``AttributeInterpretator``."""

    def __init__(self, attribute):
        self.attribute = attribute

    def fold(self, values, key):
        for item in values:
            if type(item) is tuple:
                break
        else:
            return (ATTR, self.attribute, join_tokens(values), True)
        if len(values) != 1:
            raise TypeError('mixed interpretation input')
        item = values[0]
        if item[0] == ATTR:
            return (ATTR, self.attribute, item[2], item[3])
        if item[0] == NORM:
            return (ATTR, self.attribute, item[1], True)
        return (ATTR, self.attribute, item[1].json(item[2]), False)


class NormalizerPlan:
    """``NormalizerInterpretator``, or with an ``attribute``
    ``AttributeNormalizerInterpretator``; ``const`` decided once."""

    def __init__(self, normalizer, attribute=None):
        self.normalizer = normalizer
        self.attribute = attribute
        self.const = isinstance(normalizer, ConstNormalizer)
        self.chain = _chain_normalizer(normalizer)
        # a normalizer of these types gives plain values: no check
        self.checked = type(normalizer) not in (NormalizedNormalizer,
                                                InflectedNormalizer)
        if self.const:
            _checked(normalizer.value)

    def fold(self, values, key):
        if self.const:
            value = self.normalizer.value
        else:
            for item in values:
                if type(item) is tuple:
                    break
            else:
                item = None
            if item is None:
                value = self.chain(values, key)
            elif len(values) == 1:
                value = _value_normalizer(self.normalizer, values[0])
            else:
                raise TypeError('mixed interpretation input')
            if self.checked:
                _checked(value)
        if self.attribute is None:
            return (NORM, value)
        return (ATTR, self.attribute, value, True)


def _unplanned(values, key):
    raise Unplanned('interpretator without a payload plan')


def payload_plan(interpretator):
    """The ``fold(values, key)`` of ``interpretator`` (see above), or
    None for None."""
    if interpretator is None:
        return None
    kind = type(interpretator)
    try:
        if kind is FactInterpretator:
            return FactPlan(interpretator.fact).fold
        if kind is AttributeInterpretator:
            return AttributePlan(interpretator.attribute).fold
        if kind is NormalizerInterpretator:
            return NormalizerPlan(interpretator.normalizer).fold
        if kind is AttributeNormalizerInterpretator:
            return NormalizerPlan(interpretator.inner.normalizer,
                                  interpretator.attribute).fold
    except Unplanned:
        pass
    return _unplanned
