"""Grammar factories + fact->triple projections.

Every factory is a top-level callable (picklable by reference); each
extraction worker compiles the grammar once per Dataset. Triple emitters
are plain functions from the fact's JSON dict + provenance to
(subj, pred, obj) rows.

The shipped grammars carry no regex ``gate``: each parser derives the
token bits every match needs (``Parser._required``) and builds no chart
for a turn that lacks them.
"""

from __future__ import annotations

from yargy_ray.kernel import and_, fact, not_, or_, rule
from yargy_ray.kernel.gazetteer import morph_pipeline
from yargy_ray.kernel.interp import custom, normalized
from yargy_ray.kernel.predicates import (
    caseless,
    dictionary,
    eq,
    gram,
    gte,
    in_,
    lte,
    type_,
)
from yargy_ray.kernel.relations import gnc_relation

# Per-document Earley state budget: bounds worst-case work so one
# pathological turn cannot stall a partition (SURVEY §7 hard part 3).
DEFAULT_MAX_STATES = 50_000


class GrammarSpec:
    """name + grammar rule + triple projection for one extraction rule.

    ``gate`` is an optional regex hint: a turn whose text does not match
    it is not tokenized for this grammar. It must never reject a turn
    that has a match. The parser needs no gate to skip work: it derives
    its own exact precondition from the grammar (``Parser._required``)
    and builds no chart for a turn that fails it.
    """

    def __init__(self, name, rule_, to_triples, max_states=DEFAULT_MAX_STATES,
                 gate=None):
        self.name = name
        self.rule = rule_
        self.to_triples = to_triples
        self.max_states = max_states
        self.gate = gate


def turn_uid(conv_id, turn_idx):
    return f'{conv_id}:{turn_idx}'


# ---------------------------------------------------------------------------
# DATE
# ---------------------------------------------------------------------------

MONTHS = {
    'январь': 1, 'февраль': 2, 'март': 3, 'апрель': 4, 'май': 5, 'июнь': 6,
    'июль': 7, 'август': 8, 'сентябрь': 9, 'октябрь': 10, 'ноябрь': 11,
    'декабрь': 12,
}


def date_triples(f, conv_id, turn_idx):
    year = f.get('year')
    month = f.get('month')
    day = f.get('day')
    if year and month and day:
        obj = f'{year:04d}-{month:02d}-{day:02d}'
    elif year and month:
        obj = f'{year:04d}-{month:02d}'
    elif month and day:
        obj = f'--{month:02d}-{day:02d}'
    elif year:
        obj = f'{year:04d}'
    else:
        return []
    return [(turn_uid(conv_id, turn_idx), 'mentions_date', obj)]


def date_grammar():
    Date = fact('Date', ['year', 'month', 'day'])

    MONTH_NAME = dictionary(MONTHS).interpretation(
        Date.month.normalized().custom(MONTHS.get))
    DAY = and_(gte(1), lte(31)).interpretation(Date.day.custom(int))
    MONTH_NUM = and_(gte(1), lte(12)).interpretation(Date.month.custom(int))
    YEAR = and_(gte(1900), lte(2100)).interpretation(Date.year.custom(int))

    DATE = or_(
        # 18 июля 2016 / 18 июля
        rule(DAY, MONTH_NAME, YEAR.optional()),
        # 2016-07-18
        rule(YEAR, eq('-'), MONTH_NUM, eq('-'), DAY),
        # 2016 г.
        rule(YEAR, caseless('г'), eq('.')),
    ).interpretation(Date)
    return GrammarSpec('date', DATE, date_triples)


# ---------------------------------------------------------------------------
# MONEY
# ---------------------------------------------------------------------------

MULTIPLIERS = {'тысяча': 1_000, 'миллион': 1_000_000}
CURRENCY_CODES = {
    '$': 'USD', '€': 'EUR', 'рубль': 'RUB', 'руб': 'RUB', 'р': 'RUB',
    'руб.': 'RUB', 'р.': 'RUB', 'доллар': 'USD', 'евро': 'EUR',
}


def parse_int_groups(value):
    return int(value.replace(' ', ''))


def currency_code(value):
    return CURRENCY_CODES.get(value, value)


def money_triples(f, conv_id, turn_idx):
    amount = f.get('amount')
    if amount is None:
        return []
    amount *= f.get('mult') or 1
    currency = f.get('currency') or '?'
    return [(turn_uid(conv_id, turn_idx), 'mentions_amount',
             f'{amount} {currency}')]


def money_grammar():
    Money = fact('Money', ['amount', 'mult', 'currency'])

    AMOUNT = type_('INT').repeatable(max=4).interpretation(
        Money.amount.custom(parse_int_groups))
    MULT = dictionary(MULTIPLIERS).interpretation(
        Money.mult.normalized().custom(MULTIPLIERS.get))
    CURRENCY = or_(
        rule(in_({'$', '€'})),
        rule(dictionary({'рубль', 'доллар', 'евро'})),
        rule(caseless('руб'), eq('.').optional()),
        rule(caseless('р'), eq('.')),
    ).interpretation(Money.currency.normalized().custom(currency_code))

    MONEY = rule(
        AMOUNT, MULT.optional(), CURRENCY,
    ).interpretation(Money)
    return GrammarSpec('money', MONEY, money_triples)


# ---------------------------------------------------------------------------
# PERSON
# ---------------------------------------------------------------------------

POSITIONS = [
    'управляющий директор',
    'вице-мэр',
    'директор',
    'старший инженер',
    'инженер',
    'менеджер',
    'аналитик',
    'врач',
    'учитель',
]


def person_triples(f, conv_id, turn_idx):
    first = f.get('first')
    last = f.get('last')
    if not first or not last:
        return []
    person = f'{first} {last}'
    out = [(turn_uid(conv_id, turn_idx), 'mentions_person', person)]
    position = f.get('position')
    if position:
        out.append((person, 'has_position', position))
    return out


def person_grammar():
    Person = fact('Person', ['position', 'first', 'last'])

    gnc = gnc_relation()
    POSITION = morph_pipeline(POSITIONS).interpretation(
        Person.position.normalized())
    FIRST = and_(gram('Name'), not_(gram('Abbr'))).interpretation(
        Person.first.inflected()).match(gnc)
    LAST = and_(gram('Surn'), not_(gram('Abbr'))).interpretation(
        Person.last.inflected()).match(gnc)

    PERSON = rule(
        POSITION.optional(),
        FIRST,
        LAST,
    ).interpretation(Person)
    return GrammarSpec('person', PERSON, person_triples)


# ---------------------------------------------------------------------------
# ADDRESS (the north rule's fourth extraction surface; reference
# docs/ref.ipynb cell 61 builds street gazetteers with morph_pipeline,
# and the docs' address patterns compose dictionary/gram/INT predicates)
# ---------------------------------------------------------------------------

STREET_TYPES = ['улица', 'проспект', 'переулок', 'шоссе']


def address_triples(f, conv_id, turn_idx):
    stype = f.get('street_type')
    street = f.get('street')
    if not stype or not street:
        return []
    obj = f'{stype} {street}'
    if f.get('house') is not None:
        obj += ' {}'.format(f['house'])
    return [(turn_uid(conv_id, turn_idx), 'mentions_address', obj)]


def address_grammar():
    Address = fact('Address', ['street_type', 'street', 'house'])

    # any inflection of the street type normalizes to its lemma
    STREET_TYPE = morph_pipeline(STREET_TYPES).interpretation(
        Address.street_type.normalized())
    # genitive-surname street names (улица Иванова); keep the surface
    # form lowercased — the gent-masc/nomn-femn lemma ambiguity of
    # -ова forms makes lemma choice non-deterministic by design
    STREET = and_(gram('Surn'), not_(gram('Abbr'))).interpretation(
        Address.street.custom(str.lower))
    HOUSE_WORD = or_(rule(caseless('дом')), rule(caseless('д'), eq('.')))
    HOUSE = and_(gte(1), lte(999)).interpretation(Address.house.custom(int))

    ADDRESS = rule(
        STREET_TYPE,
        STREET,
        rule(HOUSE_WORD.optional(), HOUSE).optional(),
    ).interpretation(Address)
    return GrammarSpec('address', ADDRESS, address_triples)


# ---------------------------------------------------------------------------
# Clause references (ст. 14-15 п. 3 — reference cookbook cell 49)
# ---------------------------------------------------------------------------

def clause_triples(f, conv_id, turn_idx):
    article = f.get('article')
    if article is None:
        return []
    obj = f'ст.{article}'
    if f.get('article_hi') is not None:
        obj += '-{}'.format(f['article_hi'])
    if f.get('sub') is not None:
        obj += ' п.{}'.format(f['sub'])
    return [(turn_uid(conv_id, turn_idx), 'cites_clause', obj)]


def clause_grammar():
    Clause = fact('Clause', ['article', 'article_hi', 'sub'])

    INT_ = type_('INT')
    CLAUSE = rule(
        caseless('ст'), eq('.'),
        INT_.interpretation(Clause.article.custom(int)),
        rule(eq('-'), INT_.interpretation(Clause.article_hi.custom(int))
             ).optional(),
        rule(caseless('п'), eq('.'),
             INT_.interpretation(Clause.sub.custom(int))).optional(),
    ).interpretation(Clause)
    return GrammarSpec('clause', CLAUSE, clause_triples)


# ---------------------------------------------------------------------------
# «Quoted titles» (reference index.ipynb cells 36-38)
# ---------------------------------------------------------------------------

def title_triples(f, conv_id, turn_idx):
    text = f.get('text')
    if not text:
        return []
    return [(turn_uid(conv_id, turn_idx), 'mentions_title', text)]


def title_grammar():
    Title = fact('Title', ['text'])

    TITLE = rule(
        eq('«'),
        not_(eq('»')).repeatable().interpretation(Title.text),
        eq('»'),
    ).interpretation(Title)
    # bounded span, but the repeatable body over arbitrary tokens is the
    # classic state-growth shape -> tighter budget
    return GrammarSpec('title', TITLE, title_triples, max_states=20_000)
