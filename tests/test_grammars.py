"""Pinned behavior of the shipped GrammarSpec factories (grammars/specs.py).

The address grammar is the north rule's fourth extraction surface
(names, dates, money, addresses); reference patterns for street
gazetteers + house numbers: docs/ref.ipynb cells 27-33, docs/index.ipynb
cells 46-62.
"""

from yargy_ray.grammars.specs import address_grammar
from yargy_ray.kernel import Parser


def _match_fact(spec, text):
    parser = Parser(spec.rule, max_states=spec.max_states)
    match = parser.match(text)
    return match.fact.as_json if match else None


def test_address_full():
    spec = address_grammar()
    fact = _match_fact(spec, 'улице Иванова дом 7')
    assert fact == {'street_type': 'улица', 'street': 'иванова', 'house': 7}


def test_address_abbreviated_house():
    spec = address_grammar()
    fact = _match_fact(spec, 'проспект Смирнова д. 120')
    assert fact == {'street_type': 'проспект', 'street': 'смирнова',
                    'house': 120}


def test_address_no_house():
    spec = address_grammar()
    fact = _match_fact(spec, 'шоссе Петрова')
    assert fact == {'street_type': 'шоссе', 'street': 'петрова'}


def test_address_house_bounds():
    spec = address_grammar()
    # 4-digit house numbers exceed lte(999): house clause must not attach
    parser = Parser(spec.rule, max_states=spec.max_states)
    matches = list(parser.findall('улица Иванова дом 1000'))
    assert [m.fact.as_json for m in matches] == [
        {'street_type': 'улица', 'street': 'иванова'}]


def test_address_triples():
    spec = address_grammar()
    parser = Parser(spec.rule, max_states=spec.max_states)
    matches = list(parser.findall('офис находится на улице Кузнецова дом 42'))
    assert len(matches) == 1
    triples = spec.to_triples(matches[0].fact.as_json, 'c1', 3)
    assert len(triples) == 1
    uid, pred, obj = triples[0]
    assert pred == 'mentions_address'
    assert obj == 'улица кузнецова 42'
    assert uid.startswith('c1')


def test_user_gate_skips_turn():
    """A user grammar's optional regex gate (the example's
    ``ticket_grammar``) skips a turn before it is tokenized; a turn the
    gate lets through is extracted."""
    import json

    from yargy_ray.stages.extract import MentionExtractor

    extractor = MentionExtractor(
        ('examples.custom_grammar_pipeline:ticket_grammar',))
    lex = extractor.lex  # tokenizes, with morphology and masks
    tokenized = []

    def counting(text):
        tokenized.append(text)
        return lex(text)

    extractor.lex = counting
    assert extractor._extract_text('ничего интересного - 7') == []
    assert tokenized == []
    rows = extractor._extract_text('начнем с proj - 7')
    assert tokenized == ['начнем с proj - 7']
    assert [(rule, json.loads(payload))
            for rule, _, _, _, payload in rows] == [
        ('ticket', {'project': 'PROJ', 'number': 7})]
