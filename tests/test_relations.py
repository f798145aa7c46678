"""Agreement conformance (reference: tests/test_relations.py, test_person.py)."""

from yargy_ray.kernel import Parser, and_, fact, main, not_, rule
from yargy_ray.kernel import relations
from yargy_ray.kernel.gazetteer import morph_pipeline
from yargy_ray.kernel.predicates import gram
from yargy_ray.kernel.relations import (
    case_relation,
    gender_relation,
    gnc_relation,
    number_relation,
)
from yargy_ray.kernel.tokenizer import MorphTokenizer


def test_gnc_name():
    Name = fact('Name', ['first', 'last'])
    gnc = gnc_relation()
    FIRST = gram('Name').interpretation(Name.first.inflected()).match(gnc)
    LAST = gram('Surn').interpretation(Name.last.inflected()).match(gnc)
    parser = Parser(rule(FIRST, LAST).interpretation(Name))

    assert parser.match('саше иванову').fact == Name(first='саша', last='иванов')
    assert parser.match('сашу иванову').fact == Name(first='саша', last='иванова')
    assert parser.match('сашу ивановой') is None


def test_main_head():
    relation = and_(number_relation(), gender_relation())
    A = rule(gram('Surn'), main(gram('Name'))).match(relation)
    B = gram('VERB').match(relation)
    parser = Parser(rule(A, B))

    assert parser.match('иванов иван стал')
    assert parser.match('иванов иван стали') is None
    assert parser.match('ивановы иван стал')


def test_person_grammar():
    Name = fact('Name', ['first', 'last'])
    Person = fact('Person', ['position', 'name'])

    LAST = and_(gram('Surn'), not_(gram('Abbr')))
    FIRST = and_(gram('Name'), not_(gram('Abbr')))
    POSITION = morph_pipeline(['управляющий директор', 'вице-мэр'])

    gnc = gnc_relation()
    NAME = rule(
        FIRST.interpretation(Name.first).match(gnc),
        LAST.interpretation(Name.last).match(gnc),
    ).interpretation(Name)
    PERSON = rule(
        POSITION.interpretation(Person.position).match(gnc),
        NAME.interpretation(Person.name),
    ).interpretation(Person)

    match = Parser(PERSON).match('управляющий директор Иван Ульянов')
    assert match
    assert match.fact == Person(
        position='управляющий директор',
        name=Name(first='Иван', last='Ульянов'),
    )


def test_gnc_memo_matches_relations(monkeypatch):
    # gnc_relation memoizes by grammeme sets; every answer, from a miss
    # or a hit, with the memo cleared at its cap or not, is the
    # conjunction of the three relations
    text = ('управляющий директор Иван Ульянов саше иванову сашу '
            'ивановой стали ивановы')
    forms = [form for token in MorphTokenizer()(text)
             for form in token.forms]
    gender, number, case = gender_relation(), number_relation(), \
        case_relation()
    pairs = [(a, b) for a in forms for b in forms]
    expected = [bool(gender(a, b) and number(a, b) and case(a, b))
                for a, b in pairs]
    assert True in expected and False in expected
    monkeypatch.setattr(gnc_relation, '_memo', {})
    gnc = gnc_relation()
    assert [gnc(a, b) for a, b in pairs] == expected
    assert [gnc(a, b) for a, b in pairs] == expected
    keys = {(a.grams.values, b.grams.values) for a, b in pairs}
    assert len(gnc_relation._memo) == len(keys) < len(pairs)
    monkeypatch.setattr(relations, 'GNC_MEMO_SIZE', 3)
    gnc_relation._memo.clear()
    for _ in range(2):
        for (a, b), want in zip(pairs, expected):
            assert gnc(a, b) is want
            assert len(gnc_relation._memo) <= 3
