"""Compiled Earley prediction: chart identity, state budget, mask memo.

The pinned state counts were measured with the uncompiled parser (FIRST
matcher lists, per-state signature tuples). Prediction plans, token masks
and state keys must reproduce its chart state for state: the budget
counts pushed states, and tree tie-breaking depends on push order.

The lazy parse forest and the shared mask space are checked against
values pinned with the eager forest and per-parser masks. The garbage-free
kernel (integer column indices, mask-bit scans, no agreement pass without
relations, payloads straight from the interpretation result) is checked
against the same rows.

Required bit sets skip a chart before it is built, so the pinned counts
are taken from ``_chart_tokens``, which never skips on them; the sets
are checked for soundness against the unskipped chart.

End of input is a token whose mask is bit 0 only, so the last column of
a chart holds only states that can still complete there. Every pinned
column before the last keeps the uncompiled parser's size; the last
ones were re-pinned, and the matches on them did not change.

The fused ``TripleExtractor`` projects triples from the interpretation
payloads, not from mention rows; its rows are checked against the
mention path projected with ``tkey`` appended, overflow and quarantine
included.
"""

import gc
import hashlib
import json
from collections import Counter

import pyarrow as pa
import pytest

from yargy_ray.grammars import GrammarSpec, build_specs
from yargy_ray.kernel import (
    Parser,
    StateOverflow,
    empty,
    fact,
    forward,
    or_,
    rule,
)
from yargy_ray.kernel import earley, interp
from yargy_ray.kernel.gazetteer import morph_pipeline, pipeline
from yargy_ray.kernel.interp import attribute, custom, normalized
from yargy_ray.kernel.predicates import custom as custom_predicate
from yargy_ray.kernel.predicates import eq, gram, tag
from yargy_ray.kernel.records import Span, Token, best_nonoverlapping
from yargy_ray.kernel.relations import gnc_relation
from yargy_ray.kernel.tagging import Tagger
from yargy_ray.kernel.tokenizer import MorphTokenizer, Tokenizer
from yargy_ray.pipelines.kg import TripleExtractor, _with_tkey
from yargy_ray.sources.transcripts import generate_conversation
from yargy_ray.stages.extract import (
    CAPPED_RULE,
    MentionExtractor,
    TripleProjector,
    fact_payload,
)

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

# pushed states per TURNS entry, per shipped grammar
PUSHED = {
    'date': [20, 0, 0, 18, 0, 0, 4, 4, 0, 0, 0],
    'money': [24, 17, 17, 16, 8, 8, 24, 8, 0, 8, 0],
    'person': [0, 0, 0, 0, 0, 0, 0, 19, 19, 0, 0],
    'address': [0, 0, 0, 0, 21, 22, 22, 21, 0, 21, 0],
    'clause': [0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0],
    'title': [0, 0, 17, 0, 0, 0, 0, 0, 0, 17, 0],
}


def column_sizes(parser, text):
    return [len(c) for c in parser._chart_tokens(parser.tokenize(text))]


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
                                               0, 0]


def test_state_budget_counts_pushed_states(specs):
    grammar = specs['money'].rule
    text = TURNS[1]
    n = sum(column_sizes(Parser(grammar), text))
    assert n == PUSHED['money'][1]
    with pytest.raises(StateOverflow):
        list(Parser(grammar, max_states=n - 1).findall(text))
    list(Parser(grammar, max_states=n).findall(text))
    # MONEY_TURN charts more states, but it has no currency token: the
    # required sets skip its chart, so no budget overflows on it
    assert sum(column_sizes(Parser(grammar), MONEY_TURN)) > n
    assert list(Parser(grammar, max_states=n - 1).findall(MONEY_TURN)) == []


# Per grammar and TURNS entry: the StateOverflow argument of
# ``_chart_tokens`` at each budget 0 .. n - 1 (n the chart's states),
# taken when the budget test summed the column sizes after every state.
OVERFLOWS = {
    ('money', 1): [3, 3, 3, 4, 5, 6, 7, 8, 9, 10, 12, 12, 13, 14, 15, 16,
                   17],
    ('person', 8): [3, 3, 3, 4, 5, 6, 8, 8, 9, 10, 11, 12, 13, 15, 15, 16,
                    17, 19, 19],
    ('title', 2): [2, 2, 3, 5, 5, 6, 7, 9, 9, 10, 11, 12, 13, 14, 15, 16,
                   17],
}


def test_state_budget_boundary(specs):
    # a chart of exactly max_states states passes, one state less
    # overflows; every smaller budget raises after the same state, with
    # the count of states pushed by then
    for (name, index), expected in OVERFLOWS.items():
        parser = Parser(specs[name].rule)
        tokens = parser.tokenize(TURNS[index])
        n = PUSHED[name][index]
        assert len(expected) == n
        parser.max_states = n
        assert sum(map(len, parser._chart_tokens(tokens))) == n
        got = []
        for budget in range(n):
            parser.max_states = budget
            with pytest.raises(StateOverflow) as raised:
                parser._chart_tokens(tokens)
            got.append(raised.value.args[0])
        assert got == expected, name
        assert got[-1] == n


def test_empty_rule_shared_by_two_rules():
    # both optionals compile to rules holding the SAME epsilon production;
    # their predicted states are distinct and must both be kept
    nothing = empty()
    parser = Parser(rule(or_(rule(eq('a')), nothing),
                         or_(rule(eq('b')), nothing), eq('c')))
    expected = {
        'c': ([5, 1], [['c']]),
        'a c': ([6, 8, 2], [['a', 'c']]),
        'b c': ([6, 7, 2], [['b', 'c']]),
        'a b c': ([6, 9, 8, 3], [['a', 'b', 'c']]),
        'x c': ([0, 5, 1], [['c']]),
    }
    for text, (sizes, found) in expected.items():
        assert column_sizes(parser, text) == sizes, text
        assert [[t.value for t in m.tokens]
                for m in parser.findall(text)] == found, text


def test_nullable_start_rule_is_never_skipped():
    # every column predicts the start rule, even with no token to start it
    parser = Parser(rule(eq('a').optional(), eq('b').optional()))
    expected = {
        '': ([5], []),
        'x': ([5, 5], []),
        'a': ([6, 8], [['a']]),
        'x b': ([5, 6, 7], [['b']]),
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
    (verb_mask, noun_mask), _ = parser.space.masks([full, nouns])
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


def test_grammar_compile_is_deterministic():
    # the normalizing passes memoize visited nodes by id(); a temporary
    # node freed mid-pass could hand its id to another node and alias
    # its memo entry, changing the compiled grammar from run to run
    sizes = set()
    for _ in range(200):
        parser = Parser(rule(eq('a').optional().repeatable(),
                             eq('a').optional().repeatable()))
        sizes.add(sum(column_sizes(parser, 'a a ')))
    assert sizes == {58}


# -- lazy parse forest -------------------------------------------------------

def test_shared_child_breaks_rank_tie():
    # both final trees are S -> A B (a rank tie at the root) and share
    # the completed A; B's production rank decides only because the
    # shared child is skipped by identity. The rank-1 B completes first,
    # so without the shared node the tie would keep chart order.
    a = rule(eq('x'), eq('y'))
    b = or_(rule(eq('b'), or_(rule(eq('c')), rule(eq('z')))),
            rule(eq('b'), eq('c')))
    parser = Parser(rule(a, b))
    text = 'x y b c'
    _, _, finals = parser._chart(text)
    final = [parser.view(s) for _, s in finals]
    assert [parser.view(s.child).rank for s in final] == [1, 0]
    trees = parser.trees(text)
    assert [t.range for t in trees] == [(0, 4), (0, 4)]
    assert [t.root.rank for t in trees] == [0, 0]
    assert trees[0].root.children[0] is trees[1].root.children[0]
    assert [t.root.children[1].rank for t in trees] == [0, 1]
    [match] = parser.findall(text)
    assert [t.value for t in match.tokens] == ['x', 'y', 'b', 'c']
    assert match.tree.root.children[1].rank == 0
    assert parser.match(text).tree.root.children[1].rank == 0
    assert len(list(parser.extract(text))) == 2


def counting_constructors(monkeypatch):
    """Count the ParseNode, ParseLeaf, ParseTree and Match objects built
    from now on, by class name."""
    built = Counter()
    for cls in (earley.ParseNode, earley.ParseLeaf, earley.ParseTree,
                earley.Match):
        def counting(self, *args, init=cls.__init__, name=cls.__name__):
            built[name] += 1
            init(self, *args)
        monkeypatch.setattr(cls, '__init__', counting)
    return built


def test_chart_builds_no_parse_nodes(monkeypatch, specs):
    built = counting_constructors(monkeypatch)
    parser = Parser(specs['money'].rule)
    columns = parser._chart_tokens(parser.tokenize(MONEY_TURN))
    assert sum(map(len, columns)) == PUSHED['money'][0]
    assert not built
    # the fused entry point folds a payload with no tree object either
    tokens = parser.tokenize(TURNS[1])
    [(span, state)] = parser.findall_spans(tokens, None, {})
    assert span == (2, 5) and type(state) is tuple
    assert parser.interpret(span, state, {}).as_json == {
        'amount': 4500, 'currency': 'RUB'}
    assert not built
    # findall wraps the span's only final state in a Match, and builds
    # its tree only when asked
    [match] = parser.findall(TURNS[1])
    assert match.fact.as_json == {'amount': 4500, 'currency': 'RUB'}
    assert [t.value for t in match.tokens] == ['4500', 'руб', '.']
    assert built == {'Match': 1}
    assert match.tree.range == (2, 5)
    assert built['ParseNode'] and built['ParseTree'] == 1


def test_prepare_only_kept_spans_without_relations(monkeypatch):
    # the grammar of test_parser.py::test_findall_resolution
    parser = Parser(or_(
        rule(eq('a'), eq('b')),
        rule(eq('b'), eq('c')),
        rule(eq('a')),
    ))
    assert not parser._relations
    prepared = []
    init = earley.Match.__init__

    def recording(self, parser, tokens, range_, *args):
        prepared.append(range_)
        init(self, parser, tokens, range_, *args)

    monkeypatch.setattr(earley.Match, '__init__', recording)

    def no_agreement(*args):
        raise AssertionError('agreement pass without relations')

    monkeypatch.setattr(earley, '_agree', no_agreement)
    final = sorted(parser.trees('a b c'))
    spans = [t.range for t in final]
    assert spans == [(0, 2), (0, 1), (1, 3)]
    # only the kept spans become matches
    matches = list(parser.findall('a b c'))
    assert prepared == best_nonoverlapping(spans) == [(0, 1), (1, 3)]
    assert [[t.value for t in m.tokens] for m in matches] == [
        ['a'], ['b', 'c']]
    # the fused entry point keeps the same spans, and prepares none
    prepared.clear()
    kept = parser.findall_spans(parser.tokenize('a b c'), None, {})
    assert [span for span, _ in kept] == best_nonoverlapping(spans)
    assert all(type(state) is tuple for _, state in kept)
    assert prepared == []
    # match and extract run no agreement pass either
    assert parser.match('a b').tokens[1].value == 'b'
    assert [m.span for m in parser.extract('a b c')] == [
        Span(0, 1), Span(0, 3), Span(2, 5)]


def test_fused_path_builds_no_trees(monkeypatch, specs):
    # every shipped grammar folds each match of the sweep straight from
    # the chart, person (relations) included: its agreement pass runs
    # over the chart states and writes the constrained tokens into the
    # leaves map its folds read. A span with two final states builds
    # trees only to rank them.
    built = counting_constructors(monkeypatch)
    tokenizer = MorphTokenizer()
    texts = sweep_texts()
    folded = Counter()
    for name, spec in specs.items():
        parser = Parser(spec.rule, tokenizer=tokenizer)
        for text in texts:
            tokens = parser.tokenize(text)
            built.clear()
            leaves = {}
            kept = parser.findall_spans(tokens, None, leaves)
            assert all(type(state) is tuple for _, state in kept)
            results = [parser.interpret(span, state, leaves).as_json
                       for span, state in kept]
            payloads = [parser.payload(span, state, leaves)
                        for span, state in kept]
            folded[name] += len(kept)
            assert not built, (name, text)
            matches = parser.findall_tokens(tokens)
            assert [span for span, _ in kept] == [
                m.tree.range for m in matches], text
            expected = [m.tree.interpret().as_json for m in matches]
            assert results == payloads == expected, text
    assert set(folded) == set(specs) and all(folded.values())
    # the grammar of test_shared_child_breaks_rank_tie: two final states
    # for one span; the state of the first ranked tree is folded
    a = rule(eq('x'), eq('y'))
    b = or_(rule(eq('b'), or_(rule(eq('c')), rule(eq('z')))),
            rule(eq('b'), eq('c')))
    parser = Parser(rule(a, b))
    assert not parser._relations
    built.clear()
    [(span, state)] = parser.findall_spans(parser.tokenize('x y b c'),
                                           None, {})
    assert span == (0, 4) and type(state) is tuple
    assert parser.view(parser.view(state).child).rank == 0
    assert built['ParseTree'] == 2 and not built['Match']


def relation_turns():
    """A grammar whose spans share a scanned state under one relation,
    and the turns where an earlier span's ``constrain`` changes a later
    span's validity, or a later span's changes an earlier one's fold."""
    gnc = gnc_relation()
    F = fact('F', ['adj', 'noun', 'word', 'verb'])
    adj = gram('ADJF').interpretation(F.adj.inflected()).match(gnc)
    noun = gram('NOUN').interpretation(F.noun.inflected()).match(gnc)
    word = eq('стали').interpretation(F.word.normalized()).match(gnc)
    verb = gram('VERB').interpretation(F.verb.normalized()).match(gnc)
    grammar = or_(
        rule(adj, noun),
        rule(noun, adj, eq('дома')),
        rule(eq('ну'), word),
        rule(word, verb),
    ).interpretation(F)
    turns = {
        # (0, 2) narrows 'стали' to singular forms, so the longer
        # (1, 4) fails agreement with the plural 'старые'
        'новой стали старые дома': [
            (['новой', 'стали'], {'adj': 'новый', 'noun': 'сталь'}),
            (['старые', 'дома'], {'adj': 'старый', 'noun': 'дом'})],
        'стали старые дома': [
            (['стали', 'старые', 'дома'],
             {'adj': 'старый', 'noun': 'сталь'})],
        # (1, 3), dropped, narrows 'стали' to its verb reading after
        # (0, 2) is prepared: the kept span's fold reads that rewrite
        'ну стали были': [(['ну', 'стали'], {'word': 'стать'})],
        'ну стали': [(['ну', 'стали'], {'word': 'сталь'})],
    }
    return grammar, turns


def test_relation_spans_share_constrained_leaves(monkeypatch):
    grammar, turns = relation_turns()
    parser = Parser(grammar)
    assert parser._relations
    built = counting_constructors(monkeypatch)
    for text, expected in turns.items():
        tokens = parser.tokenize(text)
        built.clear()
        leaves = {}
        kept = parser.findall_spans(tokens, None, leaves)
        got = [([t.value for t in tokens[start:stop]],
                parser.payload((start, stop), state, leaves))
               for (start, stop), state in kept]
        assert got == [
            ([t.value for t in tokens[start:stop]],
             parser.interpret((start, stop), state, leaves).as_json)
            for (start, stop), state in kept]
        assert not built, text
        assert got == expected, text
        # findall keeps the same matches, and each Match's tree (its leaf
        # tokens read from the leaves map) folds the same facts
        assert [([t.value for t in m.tokens], m.tree.interpret().as_json)
                for m in parser.findall(text)] == expected, text


def test_chart_fold_equals_tree_fold():
    # the fold read from the chart gives what the pruned tree's fold
    # gives: nested facts, a pruned nullable child that carries an
    # interpretation, a gazetteer key, grammemes narrowed by gram()
    F = fact('F', ['kind', 'word', 'number', 'tail'])
    G = fact('G', ['inner', attribute('words').repeatable()])
    kind = morph_pipeline(['улица', 'проспект']).interpretation(
        F.kind.normalized())
    word = gram('NOUN').interpretation(F.word.inflected({'plur'}))
    number = eq('1').interpretation(F.number.custom(int))
    nothing = empty().interpretation(F.tail.const('none'))
    inner = rule(kind, word.optional(), number.optional(),
                 nothing).interpretation(F)
    grammars = [
        rule(inner.interpretation(G.inner),
             rule(gram('NOUN')).interpretation(G.words).repeatable()
             .optional()).interpretation(G),
        inner,
        morph_pipeline(['улица', 'проспект']).interpretation(normalized()),
    ]
    texts = ['на улицы дома 1', 'на улице доме', 'проспект 1 дом дома',
             'улица', 'x']
    compared = 0
    for grammar in grammars:
        parser = Parser(grammar)
        for text in texts:
            tokens = parser.tokenize(text)
            finals = []
            parser._chart_tokens(tokens, finals=finals)
            for span, state in finals:
                if span[0] == span[1]:
                    continue
                tree = earley.ParseTree(
                    earley._pruned(state, {}, parser._table), span)
                expected = tree.interpret()
                got = earley._fold_state(state, span[1], parser._table, {})
                assert type(got) is type(expected), text
                assert got.as_json == expected.as_json, text
                assert got.normalized == expected.normalized, text
                compared += 1
    assert compared > 10


class Upper(interp.Interpretator):
    """A user interpretator, which no payload plan models."""

    def __call__(self, items, key=None):
        chain = interp.Chain(items, key)
        return interp.NormalizerResult(chain.normalized.upper(), chain)


def test_payload_plans_equal_result_fold():
    # the payload fold through the item table's plans gives the payload
    # of the tree's result objects (interp.result_payload), raises
    # TypeError where they raise it, and folds a case no plan models
    # through result objects
    F = fact('F', ['kind', 'word', 'number', 'tail'])
    G = fact('G', ['inner', attribute('words').repeatable(), 'extra'])
    Sub = type('Sub', (G,), {})
    H = fact('H', ['x', 'y'])
    kind = morph_pipeline(['улица', 'проспект']).interpretation(
        F.kind.normalized().custom(str.upper))
    word = gram('NOUN').interpretation(F.word.inflected({'plur'}))
    number = eq('1').interpretation(F.number.custom(int))
    nothing = empty().interpretation(F.tail.const('none'))
    inner = rule(kind, word.optional(), number.optional(),
                 nothing).interpretation(F)
    words = rule(gram('NOUN')).interpretation(G.words).repeatable() \
        .optional()
    grammars = [
        # a fact merged into its own class, a repeatable attribute
        rule(rule(inner.interpretation(G.inner)).interpretation(G),
             words).interpretation(G),
        # merged into a parent class: no plan
        rule(rule(inner.interpretation(G.inner)).interpretation(Sub),
             words).interpretation(G),
        # a custom function over a fact (no plan), normalized() over a
        # fact (TypeError)
        rule(inner.interpretation(H.x.custom(repr))).interpretation(H),
        rule(inner.interpretation(H.y.normalized())).interpretation(H),
        # a root attribute holding a fact; a custom function over a
        # normalized value; a user interpretator
        inner.interpretation(G.inner),
        rule(number).interpretation(custom(str)),
        rule(gram('NOUN')).interpretation(Upper()),
        # mixed input to an attribute and to a normalizer (TypeError)
        rule(eq('a'), eq('1').interpretation(custom(int))).interpretation(
            F.word),
        rule(eq('a'), eq('1').interpretation(custom(int))).interpretation(
            custom(str)),
    ]
    texts = ['на улицы дома 1', 'на улице доме', 'проспект 1 дом дома',
             'улица', 'дом', 'a 1', 'x']
    compared = raised = unplanned = 0
    for grammar in grammars:
        parser = Parser(grammar)
        table = parser._table
        for text in texts:
            tokens = parser.tokenize(text)
            finals = []
            parser._chart_tokens(tokens, finals=finals)
            for span, state in finals:
                if span[0] == span[1]:
                    continue
                tree = earley.ParseTree(earley._pruned(state, {}, table),
                                        span)
                try:
                    expected = interp.result_payload(tree.interpret())
                except TypeError:
                    with pytest.raises(TypeError):
                        parser.payload(span, state, {})
                    raised += 1
                    continue
                assert parser.payload(span, state, {}) == expected, text
                compared += 1
                try:
                    earley._fold_state(state, span[1], table, {},
                                       folds=table.plan)
                except interp.Unplanned:
                    unplanned += 1
    assert compared > 40 and raised > 5 and unplanned > 10


def test_payload_fold_quarantines_like_result_fold():
    # planted facts whose interpretation raises TypeError through each
    # kind of payload plan count one quarantined each and give no row;
    # a memo hit counts nothing
    F = fact('F', ['a'])
    H = fact('H', ['x'])
    one = eq('1').interpretation(custom(int))
    planted = {
        'attribute': rule('a', one).interpretation(F.a).interpretation(F),
        'normalizer': rule('a', one).interpretation(custom(str)),
        'over_fact': rule(rule('a').interpretation(F)).interpretation(
            H.x.normalized()).interpretation(H),
    }
    extractor = MentionExtractor()
    for name, grammar in planted.items():
        parser = Parser(grammar, tokenizer=extractor.tokenizer,
                        space=extractor.space)
        [(span, state)] = parser.findall_spans(parser.tokenize('a 1'),
                                               None, {})
        with pytest.raises(TypeError):
            parser.interpret(span, state, {})
        spec = GrammarSpec(name, grammar, lambda value, conv, turn: [])
        extractor.parsers.append((spec, parser, None))
    for expected in (3, 3):
        assert extractor.hits('a 1') == []
        assert (extractor.quarantined, extractor.capped) == (expected, 0)
    assert extractor.hits(TURNS[1]) and extractor.quarantined == 3


def test_relation_grammar_falls_back_to_next_tree():
    # the rank-0 tree of the span fails agreement (masc adjective,
    # femn noun); the rank-1 tree of the same span is chosen
    gnc = gnc_relation()
    parser = Parser(or_(
        rule(gram('ADJF').match(gnc), gram('NOUN').match(gnc)),
        rule(gram('ADJF'), gram('NOUN')),
    ))
    assert parser._relations
    assert [t.root.rank for t in parser.trees('красный машина')] == [0, 1]
    [match] = parser.findall('это красный машина')
    assert [t.value for t in match.tokens] == ['красный', 'машина']
    assert match.tree.root.rank == 1
    [match] = parser.findall('это красная машина')
    assert match.tree.root.rank == 0


# -- one mask pass per turn --------------------------------------------------

def rows_of(name, matches):
    return [(name, m.span.start, m.span.stop, [t.value for t in m.tokens],
             json.dumps(fact_payload(m.fact), ensure_ascii=False,
                        sort_keys=True))
            for m in matches]


@pytest.fixture(scope='module')
def standalone(specs):
    return {name: Parser(spec.rule, max_states=spec.max_states)
            for name, spec in specs.items()}


def test_one_mask_pass_per_turn(standalone):
    extractor = MentionExtractor()
    space = extractor.space
    assert {p.space for _, p, _ in extractor.parsers} == {space}
    evaluated = Counter()
    passes = []

    class Counting:
        def __init__(self, index, matcher):
            self.index = index
            self.matcher = matcher

        def __call__(self, token):
            evaluated[self.index, token.value, token.type] += 1
            return self.matcher(token)

        def predict(self, token):
            evaluated[self.index, token.value, token.type] += 1
            return self.matcher.predict(token)

    space.matchers = [(bit, Counting(i, m), gaz)
                      for i, (bit, m, gaz) in enumerate(space.matchers)]
    lex = extractor.lex

    def counting_lex(text):
        passes.append(text)
        return lex(text)

    extractor.lex = counting_lex
    for text in TURNS:
        evaluated.clear()
        passes.clear()
        lex._memo.clear()
        rows = extractor._extract_text(text)
        # one lexer pass, and each matcher runs once per distinct token
        assert passes == [text], text
        assert evaluated and max(evaluated.values()) == 1, text
        tokens = list(MorphTokenizer()(text))
        expected = [row for spec in extractor.specs for row in rows_of(
            spec.name, standalone[spec.name].findall_tokens(tokens))]
        assert rows == expected, text


def test_overflow_in_one_grammar_keeps_the_others(standalone):
    extractor = MentionExtractor()
    names = [spec.name for spec, _, _ in extractor.parsers]
    extractor.parsers[names.index('money')][1].max_states = 5

    def others(text):
        tokens = list(MorphTokenizer()(text))
        return [row for name in names if name != 'money'
                for row in rows_of(name, standalone[name].findall_tokens(
                    tokens))]

    # TURNS[2] charts money (20 states) beside a title match
    rows = extractor._extract_text(TURNS[2])
    capped = [row for row in rows if row[0] == CAPPED_RULE]
    assert capped == [(CAPPED_RULE, 0, 0, [], '{"grammar": "money"}')]
    expected = others(TURNS[2])
    assert [row for row in rows if row[0] != CAPPED_RULE] == expected
    assert any(row[0] == 'title' for row in expected)
    # MONEY_TURN would push 27 money states, but its chart is skipped
    rows = extractor._extract_text(MONEY_TURN)
    assert rows == others(MONEY_TURN)
    assert any(row[0] == 'date' for row in rows)


# -- garbage-free kernel -----------------------------------------------------

def turns_table(texts):
    return pa.table({
        'conv_id': ['c'] * len(texts),
        'turn_idx': pa.array(range(len(texts)), type=pa.int32()),
        'text': texts,
    })


def test_extraction_leaves_no_cyclic_garbage():
    # a chart whose states pointed at their columns, or a recursive
    # closure per tree pass, would leave reference cycles on every turn
    table = turns_table(TURNS)
    warm = TripleExtractor()(table)  # fills process-wide caches
    extractor = TripleExtractor()
    gc.collect()
    gc.disable()
    try:
        out = extractor(table)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert out.num_rows > 0 and out.equals(warm)


def test_gazetteer_phrases_do_not_widen_the_space():
    streets = ['улица'] + [f'проезд {i}' for i in range(499)]
    added = []
    for phrases in (streets[:1], streets):
        space = earley.MaskSpace()
        before = len(space.matchers)
        gaz = morph_pipeline(phrases)
        parser = Parser(rule(eq('на'), gaz), space=space)
        Parser(gaz, space=space)
        added.append(len(space.matchers) - before)
        [match] = parser.findall('встреча на улице')
        assert [t.value for t in match.tokens] == ['на', 'улице']
    # eq('на') for the first grammar, the gazetteer for the second
    assert added == [2, 2]


def test_scans_read_mask_bits():
    calls = Counter()

    def is_b(value):
        calls[value] += 1
        return value == 'b'

    space = earley.MaskSpace()
    grammars = [
        rule(eq('a'), custom_predicate(is_b), eq('c').optional()),
        rule(eq('b'), pipeline(['c a', 'c d'])),
    ]
    shared = [Parser(g, space=space) for g in grammars]
    text = 'a b a b c a x b c d'
    tokens = shared[0].tokenize(text)
    masks = space.masks(tokens)
    # the memo evaluates each matcher once per distinct token key ...
    assert calls == {'a': 1, 'b': 1, 'c': 1, 'x': 1, 'd': 1}
    calls.clear()
    # ... and the chart only reads bits: the terminal after eq('a') is
    # never called
    for parser in shared:
        assert sum(map(len, parser._chart_tokens(tokens, masks=masks)))
    assert not calls
    rows = [[[t.value for t in m.tokens]
             for m in parser.findall_tokens(tokens, masks)]
            for parser in shared]
    assert not calls
    assert rows == [[['a', 'b'], ['a', 'b', 'c']], [['b', 'c', 'a'],
                                                    ['b', 'c', 'd']]]
    assert rows == [[[t.value for t in m.tokens]
                     for m in Parser(g).findall_tokens(tokens)]
                    for g in grammars]


def test_extractor_quarantines_type_errors():
    # the mixed-input grammars of test_interpretation.py::test_type_errors
    # beside the shipped ones: they yield no row and raise nothing, and
    # every other row's payload is fact_payload(match.fact)
    F = fact('F', ['a'])
    extractor = MentionExtractor()
    shipped = list(extractor.parsers)
    for name, interpretation in (('attribute', F.a), ('custom', custom(str))):
        grammar = rule('a', eq('1').interpretation(custom(int))) \
            .interpretation(interpretation)
        spec = GrammarSpec(name, grammar, lambda value, conv, turn: [])
        parser = Parser(grammar, tokenizer=extractor.tokenizer,
                        space=extractor.space)
        with pytest.raises(TypeError):
            parser.match('a 1').fact
        extractor.parsers.append((spec, parser, None))
    for text in TURNS + ['a 1', 'сумма 1 . a 1']:
        tokens = list(MorphTokenizer()(text))
        expected = [row for spec, parser, _ in shipped
                    for row in rows_of(spec.name,
                                       parser.findall_tokens(tokens))]
        assert extractor._extract_text(text) == expected, text
    assert extractor(turns_table(['a 1'])).num_rows == 0


# -- required sets -----------------------------------------------------------

def required_labels(parser):
    """Each required set of ``parser`` as its matchers' sorted labels."""
    label = {bit: matcher.label for bit, matcher, _ in parser.space.matchers}
    return [sorted(label[bit] for bit in label if bit & required)
            for required in parser._required]


def test_money_requires_amount_and_currency(specs):
    parser = Parser(specs['money'].rule)
    assert required_labels(parser) == [
        ["type('INT')"],
        ["caseless('р')", "caseless('руб')", 'dictionary(...)', 'in_(...)'],
    ]


def test_rejected_turn_builds_no_chart(monkeypatch, specs):
    parser = Parser(specs['money'].rule)
    tokens = parser.tokenize(MONEY_TURN)
    # the start pre-scan alone would chart this turn (it has an INT)
    assert parser.space.masks(tokens)[1] & parser._start_bits

    def unreachable(*args, **kwargs):
        raise AssertionError('charted a turn the required sets reject')

    monkeypatch.setattr(parser, '_chart_tokens', unreachable)
    monkeypatch.setattr(parser, '_resolve_states', unreachable)
    assert parser.findall_tokens(tokens) == []
    assert parser.findall(MONEY_TURN) == []
    with pytest.raises(AssertionError):
        parser.findall(TURNS[1])
    # the extractor's money parser never charts it either
    extractor = MentionExtractor()
    for spec, money, _ in extractor.parsers:
        if spec.name == 'money':
            monkeypatch.setattr(money, '_chart_tokens', unreachable)
    assert any(row[0] == 'date'
               for row in extractor._extract_text(MONEY_TURN))


def test_optional_and_nullable_rules_add_no_set():
    nothing = empty()
    grammars = [
        rule(eq('a'), eq('b').optional()),
        rule(eq('a'), or_(rule(eq('b'), eq('c')), nothing)),
        rule(rule(eq('b').optional(), eq('c').repeatable().optional()),
             eq('a')),
    ]
    for grammar in grammars:
        parser = Parser(grammar)
        assert required_labels(parser) == [["'a'"]]
        [match] = parser.findall('x a x')
        assert [t.value for t in match.tokens] == ['a']
    # a nullable start rule requires nothing
    assert Parser(rule(eq('a').optional(), eq('b').optional()))._required \
        == []


def test_recursive_rules_derive_in_finite_time():
    def loop():
        item = forward()
        return item.define(or_(rule(eq('x'), item), rule(item, item),
                               rule(eq('y'))))

    grammars = [
        rule(eq('a').repeatable(), eq('b')),
        rule(eq('a'), loop()),
        rule(loop(), eq('a').repeatable(), loop()),
    ]
    for grammar in grammars:
        parser = Parser(grammar)
        assert ["'a'"] in required_labels(parser)
        for text in ('a b', 'a a b', 'x a y', 'y a a x y', 'b x y'):
            tokens = parser.tokenize(text)
            found = []
            parser._chart_tokens(tokens, finals=found)
            matches = parser.findall_tokens(tokens)
            assert bool(found) == bool(matches), text


def sweep_texts():
    texts = list(TURNS)
    for index in range(40):
        texts.extend(row['text'] for row in generate_conversation(index, 7))
    return texts


def test_required_sets_are_sound(specs):
    # whenever the sets reject a turn, the unskipped chart has no final
    # state, for every shipped grammar
    tokenizer = MorphTokenizer()
    texts = sweep_texts()
    rejected = Counter()
    for name, spec in specs.items():
        parser = Parser(spec.rule, tokenizer=tokenizer)
        for text in texts:
            tokens = parser.tokenize(text)
            union = parser.space.masks(tokens)[1]
            if all(union & required for required in parser._required):
                continue
            rejected[name] += 1
            finals = []
            parser._chart_tokens(tokens, finals=finals)
            assert not finals, (name, text)
    assert rejected['money'] > len(texts) / 2
    assert rejected['date'] > 0


def same_tree(a, b):
    if type(a) is earley.ParseLeaf:
        return a is b
    return (type(b) is earley.ParseNode and a.rule is b.rule
            and a.production is b.production and a.rank == b.rank
            and len(a.children) == len(b.children)
            and all(map(same_tree, a.children, b.children)))


def test_one_pass_tree_equals_pruned_node(specs):
    nothing = empty()
    grammars = [spec.rule for spec in specs.values()] + [
        rule(or_(rule(eq('a')), nothing), or_(rule(eq('b')), nothing),
             eq('c')),
        rule(eq('a').optional(), eq('b').optional()),
    ]
    texts = TURNS + ['c', 'a b c', 'x b', 'a']
    built = empty_trees = 0
    for grammar in grammars:
        parser = Parser(grammar)
        for text in texts:
            memo = {}
            _, _, finals = parser._chart(text)
            for _, state in finals:
                expected = earley._prune(
                    earley._node(state, memo, parser._table))
                got = earley._pruned(state, memo, parser._table)
                if expected is None:
                    assert got is None
                    empty_trees += 1
                else:
                    assert same_tree(got, expected), text
                    built += 1
    assert built > 20 and empty_trees > 0


# -- end of input ------------------------------------------------------------

def nullable_rules(start):
    """ids of the rules reachable from ``start`` that derive nothing."""
    rules, seen, stack = [], set(), [start]
    while stack:
        r = stack.pop()
        if id(r) not in seen:
            seen.add(id(r))
            rules.append(r)
            stack.extend(t for p in r.productions for t in p.terms
                         if t.is_rule)
    nullable = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            if id(r) not in nullable and any(
                    all(t.is_rule and id(t) in nullable for t in p.terms)
                    for p in r.productions):
                nullable.add(id(r))
                changed = True
    return nullable


def test_end_of_input_predicts_only_nullable_productions(specs):
    # end of input is a token whose mask is bit 0 only: a production
    # that needs a token is never predicted where none follows
    nothing = empty()
    grammars = [spec.rule for spec in specs.values()] + [
        rule(or_(rule(eq('a')), nothing), or_(rule(eq('b')), nothing),
             eq('c')),
        rule(eq('a').optional(), eq('b').optional()),
    ]
    tokenizer = MorphTokenizer()
    texts = sweep_texts() + ['c', 'a b c', 'x b', 'a', '']
    epsilon = 0
    for grammar in grammars:
        parser = Parser(grammar, tokenizer=tokenizer)
        nullable = nullable_rules(parser.rule)
        for text in texts:
            columns = parser._chart_tokens(parser.tokenize(text))
            for state in map(parser.view, columns[-1] if columns else ()):
                if state.dot == 0:
                    assert all(t.is_rule and id(t) in nullable
                               for t in state.production.terms), text
                    epsilon += 1
    assert epsilon > 0


def test_gazetteer_rule_at_end_of_input_predicts_only_empty_phrases():
    # no phrase of a gazetteer can complete where no token follows
    streets = ['улица'] + [f'проезд {i}' for i in range(499)]
    parser = Parser(rule(eq('на'), morph_pipeline(streets)))
    assert column_sizes(parser, 'встреча на') == [0, 1, 1]
    assert not parser.findall('встреча на')
    [match] = parser.findall('встреча на улице')
    assert [t.value for t in match.tokens] == ['на', 'улице']


def test_matches_ending_on_a_nullable_tail_are_found():
    extractor = MentionExtractor()
    expected = {
        'встреча 12 марта':
            [('date', 8, 16, ['12', 'марта'], '{"day": 12, "month": 3}')],
        'это стоит 500 руб':
            [('money', 10, 17, ['500', 'руб'],
              '{"amount": 500, "currency": "RUB"}')],
        'офис находится на улице Иванова':
            [('address', 18, 31, ['улице', 'Иванова'],
              '{"street": "иванова", "street_type": "улица"}')],
    }
    for text, rows in expected.items():
        assert extractor._extract_text(text) == rows, text


def test_title_cap_boundary():
    # the last title that fits the default state budget, and the first
    # that overflows it
    extractor = MentionExtractor()
    [row] = extractor._extract_text('«' + 'слово ' * 194 + '»')
    assert row[0] == 'title' and row[3] == ['«'] + ['слово'] * 194 + ['»']
    assert extractor._extract_text('«' + 'слово ' * 195 + '»') == [
        (CAPPED_RULE, 0, 0, [], '{"grammar": "title"}')]


# -- fused projection --------------------------------------------------------

def planted(extractor):
    """``extractor`` (a :class:`TripleExtractor`) with a money budget of
    5 states and a grammar whose interpretation raises TypeError."""
    mentions = extractor.extract
    for spec, parser, _ in mentions.parsers:
        if spec.name == 'money':
            parser.max_states = 5
    F = fact('F', ['a'])
    grammar = rule('a', eq('1').interpretation(custom(int))) \
        .interpretation(F.a).interpretation(F)
    spec = GrammarSpec('attribute', grammar,
                       lambda value, conv, turn: [('s', 'p', 'o')])
    mentions.parsers.append((spec, Parser(
        grammar, tokenizer=mentions.tokenizer, space=mentions.space), None))
    extractor.project.emitters[spec.name] = spec.to_triples
    return extractor


def fused_turns():
    texts = sweep_texts()[:120]
    overflow = [TURNS[1], TURNS[2]]       # money charts > 5 states
    quarantine = ['a 1', 'сумма 1 . a 1 . это стоит 4500 руб.']
    return texts, overflow + quarantine


def test_fused_path_equals_mention_path():
    texts, plants = fused_turns()
    for make in (TripleExtractor, lambda: planted(TripleExtractor())):
        for batch in (TURNS, texts, plants):
            table = turns_table(batch)
            reference = make()
            mentions = reference.extract(table)
            expected = _with_tkey(reference.project(mentions))
            got = make()(table)
            assert got.num_rows > 0
            assert got.to_pylist() == expected.to_pylist()
    planted_mentions = planted(TripleExtractor()).extract(turns_table(plants))
    rules = Counter(planted_mentions.column('rule').to_pylist())
    assert rules[CAPPED_RULE] == 3 and 'attribute' not in rules


def test_extractor_counts_what_it_drops():
    # one pathological turn (money over its 5-state budget) and one bad
    # fact (a TypeError in the interpretation) count once each; a memo
    # hit repeats their rows but counts nothing
    extractor = planted(TripleExtractor()).extract
    assert (extractor.quarantined, extractor.capped) == (0, 0)
    rows = extractor(turns_table([TURNS[1], 'a 1', TURNS[1], 'a 1',
                                  TURNS[0]]))
    assert (extractor.quarantined, extractor.capped) == (1, 1)
    rules = rows.column('rule').to_pylist()
    assert rules.count(CAPPED_RULE) == 2 and 'attribute' not in rules
    assert 'date' in rules


def test_payloads_survive_a_json_round_trip():
    texts, plants = fused_turns()
    extractor = MentionExtractor()
    seen = Counter()
    for text in TURNS + texts + plants:
        for rule_name, _, _, payload, _ in extractor.hits(text):
            assert payload == json.loads(json.dumps(
                payload, sort_keys=True, ensure_ascii=False)), text
            seen[rule_name] += 1
    assert set(seen) == {spec.name for spec in extractor.specs}


# -- flat kernel -------------------------------------------------------------

# Per shipped grammar, over TURNS and the first 120 generated turns: the
# states charted (standalone parser, no required-set skip) and a sha256
# of each column's (rule label or name, rank, dot, origin, len(terms))
# sequence, both taken from the object-per-state chart this one
# replaced. The labels print grammemes sorted.
SIGNATURES = {
    'date': (668, '9051de0ffb4caec81b6bb2005f27b144'
                  '589f8b22e58f1f3bdd6c0a1e76762a8c'),
    'money': (1571, '048f0a87d7be9c0910276244ea4e4560'
                    'befd65d684367c4b0921759fb1408014'),
    'person': (399, '3ecbf2de400a579fbf1b83e1f9d10cc0'
                    'adc5743d21337027c30be9ced7e84fe0'),
    'address': (854, '16ee66358204be2f1c4d6290e7af9156'
                     '79881918d7715c9a4b7eba645fc94f2c'),
    'clause': (238, '2ddb0f6a7f4d3fd98b500c4af336bd0a'
                    'd4240667c75dcdc2642605c59e170fba'),
    'title': (340, '00200118b699289082cbae6e042c3a48'
                   '62c1e4251c1e42a3a2099d1229102b14'),
}

# Per shipped grammar: a TURNS entry it charts, and the line count and
# sha256 of ``Parser.explain`` on it, from the same chart.
EXPLAINED = {
    'date': (3, 38, '7d7417821abf1d1778e01065ee786682'
                    '98eb7a455f0ba0352d39d4ebc82502b8'),
    'money': (1, 34, '848af80e0891754aeb4d09596094b7e5'
                     '4099d92c3312b262487c5faba292ec04'),
    'person': (8, 39, '93fea9bb810b4067e35d45245d2e2d8e'
                      'ce544e24fd5ea3f49d3a177c680dab7d'),
    'address': (4, 44, '7a2617123bd26b66ce056e2448a19bd0'
                       'e53b21631a4e0b86aeebe15a05c91267'),
    'clause': (6, 70, '963a0d0c92965659ca1541525116b0c8'
                      'daffcdb234c2f0878bcede17377ce353'),
    'title': (2, 55, '8638710890cfca95a407ffc6e5272edb'
                     'bfa3db765d78f82114d5dd0b9f093b7a'),
}


def signature_texts():
    texts = sweep_texts()[:len(TURNS) + 120]
    assert texts[:len(TURNS)] == TURNS
    return texts


def test_chart_signatures_pinned(specs):
    tokenizer = MorphTokenizer()
    texts = signature_texts()
    for name, (states, expected) in SIGNATURES.items():
        parser = Parser(specs[name].rule, tokenizer=tokenizer)
        digest = hashlib.sha256()
        charted = 0
        for text in texts:
            for column in parser._chart_tokens(parser.tokenize(text)):
                rows = [(str(s.rule.label or s.rule.name), s.rank, s.dot,
                         s.origin, len(s.production.terms))
                        for s in map(parser.view, column)]
                charted += len(rows)
                digest.update(repr(rows).encode())
                digest.update(b'\n')
            digest.update(b'--\n')
        assert (charted, digest.hexdigest()) == (states, expected), name


def test_explain_pinned(specs):
    for name, (index, lines, expected) in EXPLAINED.items():
        text = Parser(specs[name].rule).explain(TURNS[index])
        assert len(text.splitlines()) == lines, name
        assert hashlib.sha256(text.encode()).hexdigest() == expected, name


def test_lexer_equals_tokenizer_and_masks():
    extractor = MentionExtractor()
    texts = signature_texts() + ['', 'Москва, 5 руб. — ok@x.ru', 'A\n\nb']
    reference = MorphTokenizer()
    for text in texts * 2:  # the second round reads the memo
        tokens, (masks, union) = extractor.lex(text)
        expected = list(reference(text))
        assert [t.key() for t in tokens] == [t.key() for t in expected]
        assert [type(t) for t in tokens] == [type(t) for t in expected]
        assert (masks, union) == extractor.space.masks(expected), text
    # a parser that adds a bit to the space makes the memo stale
    word = eq('встреча')
    before = extractor.lex('встреча')[1][0][0]
    Parser(rule(word), tokenizer=extractor.tokenizer, space=extractor.space)
    bit = extractor.space.bits[id(word)]
    assert not before & bit
    assert extractor.lex('встреча')[1][0] == [before | bit]
    # a plain tokenizer attaches no morphology
    plain = earley.Lexer(Tokenizer(), earley.MaskSpace())
    tokens, _ = plain('встреча 12')
    assert [t.key() for t in tokens] == [
        t.key() for t in Tokenizer()('встреча 12')]
