"""Parser behavior: findall resolution, predicates, tagger, state cap."""

import pytest

from yargy_ray.kernel import (
    Context,
    MorphTokenizer,
    Parser,
    StateOverflow,
    and_,
    not_,
    or_,
    rule,
)
from yargy_ray.kernel.predicates import (
    caseless,
    custom,
    eq,
    gram,
    gte,
    in_,
    is_capitalized,
    length_eq,
    lte,
    normalized,
    tag,
    type_,
)
from yargy_ray.kernel.grammar import Seq
from yargy_ray.kernel.tagging import Tagger


def test_predicate_composition():
    tokenizer = MorphTokenizer()
    predicate = or_(
        normalized('московским'),
        and_(gram('NOUN'), not_(gram('femn'))),
    ).activate(Context(tokenizer))

    assert [predicate(t) for t in tokenizer('московский зоопарк')] == [True, True]
    assert [predicate(t) for t in tokenizer('московская погода')] == [True, False]


def test_activation_checks():
    context = Context(MorphTokenizer())
    with pytest.raises(ValueError):
        gram('UNK').activate(context)
    with pytest.raises(ValueError):
        custom(lambda _: True, types='UNK').activate(context)


def test_int_predicates():
    tokenizer = MorphTokenizer()
    tokens = list(tokenizer('3 5 C'))
    p = gte(4)
    assert [p(t) for t in tokens] == [False, True, False]
    p = lte(4)
    assert [p(t) for t in tokens] == [True, False, False]


def test_simple_predicates():
    tokenizer = MorphTokenizer()
    a, b = tokenizer('Xxx 123')
    assert is_capitalized()(a)
    assert length_eq(3)(a) and length_eq(3)(b)
    assert caseless('xXX')(a)
    assert in_({'Xxx'})(a) and not in_({'Xxx'})(b)
    assert type_('INT').activate(Context(tokenizer))(b)


def test_findall_resolution():
    # overlapping candidates: maximum coverage wins deterministically
    parser = Parser(or_(
        rule(eq('a'), eq('b')),
        rule(eq('b'), eq('c')),
        rule(eq('a')),
    ))
    # 'a'+'b c' covers 3 tokens, beats the 2-token 'a b'
    matches = list(parser.findall('a b c'))
    values = [[t.value for t in m.tokens] for m in matches]
    assert values == [['a'], ['b', 'c']]

    matches = list(parser.findall('b c a'))
    values = [[t.value for t in m.tokens] for m in matches]
    assert values == [['b', 'c'], ['a']]


def test_tagger():
    class BioTagger(Tagger):
        tags = {'I', 'O'}

        def __call__(self, tokens):
            for index, token in enumerate(tokens):
                yield token.tagged('O' if index % 3 == 0 else 'I')

    text = 'a b c d e f g'
    parser = Parser(tag('I').repeatable(), tagger=BioTagger())
    substrings = [
        text[m.span.start:m.span.stop] for m in parser.findall(text)]
    assert substrings == ['b c', 'e f']


def test_state_cap():
    # ambiguous repeatable grammar explodes; the cap bounds the work
    parser = Parser(
        rule(eq('a').optional().repeatable(), eq('a').optional().repeatable()),
        max_states=200,
    )
    with pytest.raises(StateOverflow):
        list(parser.findall('a ' * 40))
    # same grammar, small input: fine
    uncapped = Parser(rule(eq('a')), max_states=200)
    assert list(uncapped.findall('a'))


def test_forward_recursion():
    from yargy_ray.kernel import forward
    ITEM = forward()
    ITEM.define(or_(
        rule('x'),
        rule('[', ITEM.repeatable(), ']'),
    ))
    parser = Parser(ITEM)
    assert parser.match('[ x x ]')
    assert parser.match('[ [ x ] x ]')
    assert parser.match('x')


def test_grammar_with_forward_compiles_twice():
    """Compiling leaves the user's forward() as it was: a second parser
    over the same grammar object builds and matches like the first."""
    from yargy_ray.kernel import forward
    loop = forward()
    loop.define(or_(rule(eq('x'), loop), rule(eq('y'))))
    grammar = rule(eq('a'), loop)
    target = loop.inner
    first = Parser(grammar)
    second = Parser(grammar)
    for parser in (first, second):
        assert parser.match('a x y')
        assert not parser.match('a x')
    assert loop.inner is target


def test_activation_leaves_the_grammar_as_it_was():
    """A parser activates a copy of its grammar: a second parser over the
    same grammar object checks it against its own tokenizer, and a
    scheme term stays a scheme."""
    from yargy_ray.kernel.tokenizer import EMAIL_RULE
    grammar = rule(type_('EMAIL'))
    [match] = Parser(grammar, tokenizer=MorphTokenizer().add_rules(
        EMAIL_RULE)).findall('пишите на me@host.ru')
    assert [t.value for t in match.tokens] == ['me@host.ru']
    with pytest.raises(ValueError, match='EMAIL'):
        Parser(grammar, tokenizer=MorphTokenizer())

    word = normalized('слово')
    grammar = rule(word, eq('x'))
    [seq] = grammar.walk(types=Seq)
    terms = list(seq.productions[0].terms)
    Parser(grammar)
    assert seq.productions[0].terms == terms
    assert terms[0] is word and type(word) is normalized
    # shared subrules stay shared in the activated copy
    shared = rule(eq('y'))
    compiled = Parser(rule(shared, shared)).rule
    [prod] = compiled.productions
    assert prod.terms[0] is prod.terms[1]
