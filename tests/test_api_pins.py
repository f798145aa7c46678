"""The parser's public match API, pinned: ``findall``, ``match``, ``extract``.

Runs every shipped grammar over ``sweep_texts()`` and three small
grammars over their own turns: the relation grammar of
``relation_turns()`` (spans that share a scanned state under one
relation), the grammar of ``test_shared_child_breaks_rank_tie`` (a rank
tie broken by a shared child) and that of
``test_relation_grammar_falls_back_to_next_tree`` (a rank-0 tree that
fails agreement). Per grammar and method, the test compares the row
count and a digest (the first 16 hex digits of a sha256, rows in output
order) of:

* the rows in ``rows_of`` shape (grammar, char span, token values, the
  fact's payload as JSON, or the name of the ``TypeError`` or
  ``ValueError`` it raises) plus the rank of each
  match's tree root;
* for a grammar with relations, the grammemes and normal form of every
  form of each ``Match.tokens`` token, as agreement left them when the
  match was taken.

``match`` runs on each text and on the text of each of its ``findall``
matches.

A change that is meant to move these re-pins here and says which lines
moved and why. Print the current lines with

    python tests/test_api_pins.py
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (ROOT, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from test_chart_identity import (  # noqa: E402
    TURNS,
    relation_turns,
    sweep_texts,
)
from yargy_ray.grammars import build_specs  # noqa: E402
from yargy_ray.kernel import Parser, or_, rule  # noqa: E402
from yargy_ray.kernel.predicates import eq, gram  # noqa: E402
from yargy_ray.kernel.relations import gnc_relation  # noqa: E402
from yargy_ray.kernel.tokenizer import MorphTokenizer  # noqa: E402
from yargy_ray.stages.extract import fact_payload  # noqa: E402

PINNED = [
    'date findall=92:70261fe7545f6c0b match=92:c91bcb8363eed49a '
    'extract=140:26fa070465e2fc94',
    'money findall=79:7e2713649c0ed3ec match=79:5402c635b8ee8833 '
    'extract=122:eedcddd2fc42b070',
    'person findall=56:1c0f1bc9cb1486c4 '
    'findall_forms=56:90c360f90c93e3c8 match=56:3f55089521010a4c '
    'match_forms=56:90c360f90c93e3c8 extract=112:5cf1e177a68ad8c7 '
    'extract_forms=112:14af242386311a2b',
    'address findall=120:bfe6c5584c1a9e00 match=120:7c5bc4b5aea1f72b '
    'extract=240:c26ade4f36b37f3c',
    'clause findall=50:9bdd6e8b601f5cf6 match=50:2e942db2d3c800cb '
    'extract=100:c8dd845004404436',
    'title findall=52:be17236b12d45cf1 match=52:3ca68177cf0a5a3f '
    'extract=52:be17236b12d45cf1',
    'relation_turns findall=6:bd6445289d3e59d2 '
    'findall_forms=6:2f1a53ec7374109b match=8:fd389ee85ba24659 '
    'match_forms=8:c717085675f01c49 extract=8:59f36a1cbbb46745 '
    'extract_forms=8:21a7355cfd087ee9',
    'shared_child findall=4:38330a712651b7ed match=6:fbd4c16d639184ef '
    'extract=7:f2527520fd6f37da',
    'fallback findall=7:8bffdeae5ba01f3b '
    'findall_forms=7:46585115f1b2c930 match=9:93a9d6afae4e2b27 '
    'match_forms=9:02069b1aa2229c5a extract=12:424fc612ffc0657b '
    'extract_forms=12:7f4a68840806c7b9',
]


def shared_child():
    a = rule(eq('x'), eq('y'))
    b = or_(rule(eq('b'), or_(rule(eq('c')), rule(eq('z')))),
            rule(eq('b'), eq('c')))
    return rule(a, b)


def fallback():
    gnc = gnc_relation()
    return or_(
        rule(gram('ADJF').match(gnc), gram('NOUN').match(gnc)),
        rule(gram('ADJF'), gram('NOUN')),
    )


def cases():
    """``(name, parser, texts)`` of every pinned grammar."""
    tokenizer = MorphTokenizer()
    texts = sweep_texts()
    for spec in build_specs():
        yield (spec.name, Parser(spec.rule, tokenizer=tokenizer,
                                 max_states=spec.max_states), texts)
    grammar, turns = relation_turns()
    yield 'relation_turns', Parser(grammar), list(turns) + TURNS
    yield 'shared_child', Parser(shared_child()), [
        'x y b c', 'x y b z', 'x y b c x y b c', 'x y b'] + TURNS
    yield 'fallback', Parser(fallback()), [
        'это красный машина', 'это красная машина', 'красный машина',
        'красная машина', 'красные машины красная машина'] + TURNS


def row(match):
    try:
        payload = json.dumps(fact_payload(match.fact), ensure_ascii=False,
                             sort_keys=True)
    except (TypeError, ValueError) as error:
        payload = type(error).__name__
    return (match.span.start, match.span.stop,
            [t.value for t in match.tokens], payload, match.tree.root.rank)


def grammemes(match):
    return [[(form.normalized, sorted(form.grams.values))
             for form in getattr(token, 'forms', None) or ()]
            for token in match.tokens]


def digest(rows):
    sha = hashlib.sha256()
    for item in rows:
        sha.update(json.dumps(item, ensure_ascii=False).encode())
        sha.update(b'\n')
    return f'{len(rows)}:{sha.hexdigest()[:16]}'


def pin_lines():
    for name, parser, texts in cases():
        found = {'findall': [], 'match': [], 'extract': []}
        forms = {method: [] for method in found}
        for index, text in enumerate(texts):
            spans = parser.findall(text)
            # the whole text, and the text of each findall match
            wholes = [parser.match(text)] + [
                parser.match(text[m.span.start:m.span.stop]) for m in spans]
            for method, matches in (
                    ('findall', spans),
                    ('match', [m for m in wholes if m is not None]),
                    ('extract', list(parser.extract(text)))):
                for match in matches:
                    found[method].append((index, *row(match)))
                    if parser._relations:
                        forms[method].append((index, grammemes(match)))
        line = name
        for method, rows in found.items():
            line += f' {method}={digest(rows)}'
            if parser._relations:
                line += f' {method}_forms={digest(forms[method])}'
        yield line


def test_api_pinned():
    assert list(pin_lines()) == PINNED


if __name__ == '__main__':
    for line in pin_lines():
        print(f'    {line!r},')
