"""Token-level predicate bank — the grammar's terminal matchers.

Behavioral contract: /root/reference/yargy/predicates/bank.py (19 public
predicates + and_/or_/not_ composition, two-phase activation binding
morphology/tokenizer/tagger context). Each terminal predicate of a
grammar gets a bit in the parser's ``kernel.earley.MaskSpace`` and is
evaluated once per distinct token key; Earley scans and the parser's
required-set precondition read those bits.
"""

from __future__ import annotations

from .records import is_morph_token, is_tag_token
from .tokenizer import INT


class Predicate:
    # hot-path discriminator read by the Earley chart loop (grammar
    # rules carry is_rule=True); an attribute load beats an isinstance
    # call at millions of term inspections per batch
    is_rule = False

    """token -> bool; activation is a no-op for context-free predicates."""

    children = ()

    def __call__(self, token):
        raise NotImplementedError

    def activate(self, context):
        return self

    def constrain(self, token):
        return token

    @property
    def label(self):
        return type(self).__name__ + '()'

    # sugar mirroring the reference API: predicates lift to single-term rules
    def optional(self, reverse=False):
        from .grammar import seq
        return seq(self).optional(reverse)

    def repeatable(self, min=None, max=None, reverse=False):
        from .grammar import seq
        return seq(self).repeatable(min=min, max=max, reverse=reverse)

    def named(self, name):
        from .grammar import seq
        return seq(self).named(name)

    def interpretation(self, item):
        from .grammar import seq
        from .interp import token_interpretator
        return seq(self).interpretation(token_interpretator(item))

    def match(self, relation):
        from .grammar import seq
        return seq(self).match(relation)


def is_predicate(item):
    return isinstance(item, Predicate)


class Scheme(Predicate):
    """Unactivated predicate; ``activate(context)`` binds morph/tokenizer."""

    def __call__(self, token):
        raise RuntimeError(f'{self.label}: predicate not activated')

    def activate(self, context):
        raise NotImplementedError


# --- context-free predicates ------------------------------------------------

class true(Predicate):
    def __call__(self, token):
        return True

    label = 'true'


class is_lower(Predicate):
    def __call__(self, token):
        return token.value.islower()


class is_upper(Predicate):
    def __call__(self, token):
        return token.value.isupper()


class is_title(Predicate):
    def __call__(self, token):
        return token.value.istitle()


class is_capitalized(Predicate):
    def __call__(self, token):
        return token.value[0].isupper()


class eq(Predicate):
    def __init__(self, value):
        self.value = value

    def __call__(self, token):
        return token.value == self.value

    @property
    def label(self):
        return f"'{self.value}'"


class caseless(Predicate):
    def __init__(self, value):
        self.value = value.lower()

    def __call__(self, token):
        return token.value.lower() == self.value

    @property
    def label(self):
        return f'caseless({self.value!r})'


class in_(Predicate):
    def __init__(self, values):
        self.values = values

    def __call__(self, token):
        return token.value in self.values

    label = 'in_(...)'


class in_caseless(Predicate):
    def __init__(self, values):
        self.values = {v.lower() for v in values}

    def __call__(self, token):
        return token.value.lower() in self.values

    label = 'in_caseless(...)'


class length_eq(Predicate):
    def __init__(self, value):
        self.value = value

    def __call__(self, token):
        return len(token.value) == self.value

    @property
    def label(self):
        return f'length_eq({self.value})'


class gte(Predicate):
    """Integer-token >= bound; False for non-INT tokens."""

    def __init__(self, value):
        self.value = value

    def __call__(self, token):
        return token.type == INT and int(token.value) >= self.value

    @property
    def label(self):
        return f'gte({self.value})'


class lte(Predicate):
    def __init__(self, value):
        self.value = value

    def __call__(self, token):
        return token.type == INT and int(token.value) <= self.value

    @property
    def label(self):
        return f'lte({self.value})'


# --- morphology-bound predicates -------------------------------------------

class LemmaIn(Predicate):
    """Activated form of normalized()/dictionary(): any lemma in the set."""

    def __init__(self, lemmas):
        self.lemmas = lemmas

    def __call__(self, token):
        forms = token.forms
        if forms is not None:
            return any(f.normalized in self.lemmas for f in forms)
        return token.normalized in self.lemmas

    label = 'dictionary(...)'


class normalized(Scheme):
    def __init__(self, word):
        self.word = word

    def activate(self, context):
        return LemmaIn(context.tokenizer.morph.normalized(self.word))

    @property
    def label(self):
        return f'normalized({self.word!r})'


class dictionary(Scheme):
    def __init__(self, words):
        self.words = words

    def activate(self, context):
        lemmas = set()
        for word in self.words:
            lemmas |= context.tokenizer.morph.normalized(word)
        return LemmaIn(lemmas)

    label = 'dictionary(...)'


class GramIs(Predicate):
    def __init__(self, value):
        self.value = value

    def __call__(self, token):
        forms = token.forms
        if forms is None:
            return False
        return any(self.value in f.grams for f in forms)

    def constrain(self, token):
        return token.constrained(
            [f for f in token.forms if self.value in f.grams])

    @property
    def label(self):
        return f"gram('{self.value}')"


class gram(Scheme):
    def __init__(self, value):
        self.value = value

    def activate(self, context):
        context.tokenizer.morph.check_gram(self.value)
        return GramIs(self.value)

    @property
    def label(self):
        return f"gram('{self.value}')"


class is_single(Predicate):
    @staticmethod
    def _ok(form):
        number = form.grams.number
        return number.single or number.only_single

    def __call__(self, token):
        forms = token.forms
        if forms is None:
            return False
        return any(self._ok(f) for f in forms)

    def constrain(self, token):
        return token.constrained([f for f in token.forms if self._ok(f)])


class TypeIs(Predicate):
    def __init__(self, value):
        self.value = value

    def __call__(self, token):
        return token.type == self.value

    @property
    def label(self):
        return f'type({self.value!r})'


class type_(Scheme):
    def __init__(self, value):
        self.value = value

    def activate(self, context):
        context.tokenizer.check_type(self.value)
        return TypeIs(self.value)

    @property
    def label(self):
        return f'type({self.value!r})'


class TagIs(Predicate):
    def __init__(self, value):
        self.value = value

    def __call__(self, token):
        return is_tag_token(token) and token.tag == self.value

    @property
    def label(self):
        return f'tag({self.value!r})'


class tag(Scheme):
    def __init__(self, value):
        self.value = value

    def activate(self, context):
        context.tagger.check_tag(self.value)
        return TagIs(self.value)

    @property
    def label(self):
        return f'tag({self.value!r})'


class CustomFn(Predicate):
    def __init__(self, function, types):
        self.function = function
        self.types = types

    def __call__(self, token):
        if self.types and token.type not in self.types:
            return False
        return self.function(token.value)

    @property
    def label(self):
        return f'custom({self.function.__name__})'


class custom(Scheme):
    def __init__(self, function, types=None):
        self.function = function
        if types is not None and not isinstance(types, (list, tuple)):
            types = [types]
        self.types = types

    def activate(self, context):
        if self.types:
            for t in self.types:
                context.tokenizer.check_type(t)
        return CustomFn(self.function, self.types)

    @property
    def label(self):
        return f'custom({self.function.__name__})'


# --- composition ------------------------------------------------------------

class AndPredicate(Predicate):
    def __init__(self, items):
        self.items = list(items)

    def __call__(self, token):
        for p in self.items:          # plain loop: no genexp frame per call
            if not p(token):
                return False
        return True

    def activate(self, context):
        return AndPredicate(p.activate(context) for p in self.items)

    @property
    def label(self):
        return 'and_({})'.format(', '.join(p.label for p in self.items))


class OrPredicate(Predicate):
    def __init__(self, items):
        self.items = list(items)

    def __call__(self, token):
        for p in self.items:
            if p(token):
                return True
        return False

    def activate(self, context):
        return OrPredicate(p.activate(context) for p in self.items)

    @property
    def label(self):
        return 'or_({})'.format(', '.join(p.label for p in self.items))


class NotPredicate(Predicate):
    def __init__(self, item):
        self.item = item

    def __call__(self, token):
        return not self.item(token)

    def activate(self, context):
        return NotPredicate(self.item.activate(context))

    @property
    def label(self):
        return f'not_({self.item.label})'


def is_morph_predicate(p):
    """True if the predicate inspects morphological forms."""
    if isinstance(p, (LemmaIn, GramIs, is_single, normalized, dictionary, gram)):
        return True
    if isinstance(p, (AndPredicate, OrPredicate)):
        return any(is_morph_predicate(i) for i in p.items)
    if isinstance(p, NotPredicate):
        return is_morph_predicate(p.item)
    return False
