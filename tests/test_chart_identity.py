"""Compiled Earley prediction: chart identity, state budget, mask memo.

The pinned state counts were measured with the uncompiled parser (FIRST
matcher lists, per-state signature tuples). Prediction plans, token masks
and state keys must reproduce its chart state for state: the budget
counts pushed states, and tree tie-breaking depends on push order.
"""

import pytest

from yargy_ray.grammars import build_specs
from yargy_ray.kernel import Parser, StateOverflow, empty, or_, rule
from yargy_ray.kernel.gazetteer import morph_pipeline, pipeline
from yargy_ray.kernel.predicates import eq, gram, tag
from yargy_ray.kernel.records import Span, Token
from yargy_ray.kernel.tagging import Tagger
from yargy_ray.kernel.tokenizer import MorphTokenizer

# a nullable production must survive every lookahead: the money grammar
# on this turn is where dropping one changed the chart but not the output
MONEY_TURN = 'дедлайн 2005-05-10 подтвержден . хорошо договорились'

TURNS = [
    MONEY_TURN,
    'это стоит 4500 руб.',
    'обсудили документ «новый проект» . это стоит 1200 руб.',
    'встреча 15 июня 2023 в офисе',
    'офис находится на улице Иванова дом 134',
    'встреча по адресу шоссе Иванова д. 156',
    'встреча по адресу проспект Петрова д. 145 . согласно ст. 177 п. 1 '
    'договора',
    'офис находится на улице Иванова дом 11 . на встрече был директор '
    'Сергей Иванов',
    'на встрече был аналитик Анна Иванова',
    'офис находится на улице Иванова дом 117 . обсудили документ '
    '«запуск новый»',
    'хорошо договорились',
]

# pushed states per TURNS entry, per shipped grammar (no regex gate)
PUSHED = {
    'date': [25, 0, 0, 23, 0, 0, 9, 9, 0, 0, 0],
    'money': [27, 20, 20, 19, 19, 19, 27, 11, 0, 11, 0],
    'person': [0, 0, 0, 0, 0, 0, 0, 33, 33, 0, 0],
    'address': [0, 0, 0, 0, 26, 27, 27, 26, 0, 26, 0],
    'clause': [0, 0, 0, 0, 0, 0, 18, 0, 0, 0, 0],
    'title': [0, 0, 18, 0, 0, 0, 0, 0, 0, 18, 0],
}


def column_sizes(parser, text):
    return [len(c.states)
            for c in parser._chart_tokens(parser.tokenize(text))]


@pytest.fixture(scope='module')
def specs():
    return {spec.name: spec for spec in build_specs()}


def test_pushed_states_pinned(specs):
    tokenizer = MorphTokenizer()
    for name, expected in PUSHED.items():
        parser = Parser(specs[name].rule, tokenizer=tokenizer)
        got = [sum(column_sizes(parser, text)) for text in TURNS]
        assert got == expected, name
    money = Parser(specs['money'].rule, tokenizer=tokenizer)
    assert column_sizes(money, MONEY_TURN) == [0, 3, 5, 3, 5, 3, 5, 0, 0,
                                               0, 3]


def test_state_budget_counts_pushed_states(specs):
    grammar = specs['money'].rule
    n = sum(column_sizes(Parser(grammar), MONEY_TURN))
    assert n == PUSHED['money'][0]
    with pytest.raises(StateOverflow):
        list(Parser(grammar, max_states=n - 1).findall(MONEY_TURN))
    list(Parser(grammar, max_states=n).findall(MONEY_TURN))


def test_empty_rule_shared_by_two_rules():
    # both optionals compile to rules holding the SAME epsilon production;
    # their predicted states are distinct and must both be kept
    nothing = empty()
    parser = Parser(rule(or_(rule(eq('a')), nothing),
                         or_(rule(eq('b')), nothing), eq('c')))
    expected = {
        'c': ([5, 8], [['c']]),
        'a c': ([6, 8, 9], [['a', 'c']]),
        'b c': ([6, 7, 9], [['b', 'c']]),
        'a b c': ([6, 9, 8, 10], [['a', 'b', 'c']]),
        'x c': ([0, 5, 8], [['c']]),
    }
    for text, (sizes, found) in expected.items():
        assert column_sizes(parser, text) == sizes, text
        assert [[t.value for t in m.tokens]
                for m in parser.findall(text)] == found, text


def test_nullable_start_rule_is_never_skipped():
    # every column predicts the start rule, even with no token to start it
    parser = Parser(rule(eq('a').optional(), eq('b').optional()))
    expected = {
        '': ([7], []),
        'x': ([5, 7], []),
        'a': ([6, 10], [['a']]),
        'x b': ([5, 6, 9], [['b']]),
    }
    for text, (sizes, found) in expected.items():
        assert column_sizes(parser, text) == sizes, text
        assert [[t.value for t in m.tokens]
                for m in parser.findall(text)] == found, text


def test_mask_memo_tells_forms_apart():
    tokenizer = MorphTokenizer()
    [full] = tokenizer('стали')
    grams = {g for f in full.forms for g in f.grams.values}
    assert {'NOUN', 'VERB'} <= grams
    nouns = full.constrained([f for f in full.forms if 'NOUN' in f.grams])
    # same value/type/class, different forms list: each gets its own mask
    for order in ([nouns, full], [full, nouns]):
        parser = Parser(rule(gram('VERB')), tokenizer=tokenizer)
        for token in order:
            matches = list(parser.findall_tokens([token]))
            assert len(matches) == (token is full)
    (verb_mask, noun_mask), _ = parser._masks([full, nouns])
    assert verb_mask != noun_mask


def test_mask_memo_tells_tags_apart():
    class Tags(Tagger):
        tags = {'I', 'O'}

        def __call__(self, tokens):
            return tokens

    plain = Token('b', Span(0, 1), 'LATIN')
    inside, outside = plain.tagged('I'), plain.tagged('O')
    for order in ([plain, inside], [inside, plain], [outside, inside],
                  [inside, outside]):
        parser = Parser(rule(tag('I')), tagger=Tags())
        for token in order:
            matches = list(parser.findall_tokens([token]))
            assert len(matches) == (token is inside)


@pytest.mark.parametrize('make', [pipeline, morph_pipeline])
def test_gazetteer_start_rule_prescan(make):
    parser = Parser(make(['красная площадь']))
    # no token can start the gazetteer: no chart at all
    assert parser._chart_tokens(parser.tokenize('синяя площадь')) == []
    assert not list(parser.findall('синяя площадь'))
    [match] = parser.findall('гуляли на красная площадь')
    assert [t.value for t in match.tokens] == ['красная', 'площадь']
