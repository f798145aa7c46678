"""The extraction kernel's output over the benchmark corpora, pinned.

Builds the ``perfbench`` corpora of seeds 7 and 42 in process (the
transcript generator is a pure function of the seed, so no Ray and no
files): ``repeat`` is every turn as generated, ``distinct`` only the
turns whose text no earlier turn had, earlier meaning in (conv_id,
turn_idx) order, as ``perfbench.corpus.keep_first_texts`` keeps them.
Fresh ``MentionExtractor`` and ``TripleExtractor`` instances run over
each, and per grammar the test compares the row count and a digest
(the first 16 hex digits of a sha256) of:

* ``mentions`` — the sorted mention rows (a ``_capped`` row would get
  a line of its own; no turn of these corpora overflows);
* ``triples`` — the sorted triple rows, ``tkey`` included;
* ``distinct`` — the sorted distinct (subj, pred, obj) set of those.

Rows are sorted before hashing, so batch boundaries do not matter.
A change that is meant to move kernel output re-pins here and says
which lines moved and why. Print the current lines with

    python tests/test_kernel_pins.py
"""

import hashlib
import json
import os
import sys

import pyarrow as pa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.corpus import GIANT_EVERY, GIANT_FACTOR, NUM_CONVS  # noqa: E402
from yargy_ray.pipelines.kg import TripleExtractor  # noqa: E402
from yargy_ray.sources.transcripts import generate_conversation  # noqa: E402
from yargy_ray.stages.extract import MentionExtractor  # noqa: E402

SEEDS = (7, 42)

PINNED = [
    'seed=7 repeat address mentions=2494:f62aece8b54023ef '
    'triples=2494:4b41436f5d860d91 distinct=2494:a4f5a80ce8ee6fea',
    'seed=7 repeat clause mentions=1181:97bdc6effb682aab '
    'triples=1181:d3f2a1217d35bcaf distinct=1181:c2c3700c22bf6207',
    'seed=7 repeat date mentions=2435:e85ada76eda493af '
    'triples=2435:a92675bc6871a45a distinct=2435:d5134ee8a70d613c',
    'seed=7 repeat money mentions=2456:9b242fdce10ca895 '
    'triples=2456:4da2f12632e4ee09 distinct=2443:4729b60e82a8b125',
    'seed=7 repeat person mentions=1237:f5f1043c964db673 '
    'triples=2474:90c57022ee0bad4b distinct=1357:425970f8669bbd2f',
    'seed=7 repeat title mentions=1170:6ea9a357b2b85127 '
    'triples=1170:77e62116409e5681 distinct=1169:e3faa931835a3baa',
    'seed=7 distinct address mentions=2394:6341eb5649bf6c0d '
    'triples=2394:e7d4093ac718b3c0 distinct=2394:201b607bea3b7d17',
    'seed=7 distinct clause mentions=1163:80f478659169709f '
    'triples=1163:4016de510e3c5242 distinct=1163:0cac9c1e7d1a67f4',
    'seed=7 distinct date mentions=2412:2a8e364ba38a7781 '
    'triples=2412:8d63ccd49d43a9d0 distinct=2412:f3bc240e84938ef8',
    'seed=7 distinct money mentions=1355:d580bac41f58be8b '
    'triples=1355:20a9da5365fd2aa0 distinct=1350:6f721f180433b258',
    'seed=7 distinct person mentions=914:a64d50c3800812cc '
    'triples=1828:8c475f2cf52ab5d6 distinct=1034:27869b35f1f89088',
    'seed=7 distinct title mentions=779:8bbf86d73f6c8cb9 '
    'triples=779:ad720a5da95cb3a0 distinct=778:187a5a3cd1a281b2',
    'seed=42 repeat address mentions=2724:28a673ebc71deea6 '
    'triples=2724:4195377c90bd6c7c distinct=2724:03d8ba97c985fbda',
    'seed=42 repeat clause mentions=1308:a64cb2839f757f93 '
    'triples=1308:6cf4b6bfbca6dd53 distinct=1308:017d135149d6f008',
    'seed=42 repeat date mentions=2665:5068375ed384d417 '
    'triples=2665:e4779b65fee8fe91 distinct=2665:9f53de9d5931a1e3',
    'seed=42 repeat money mentions=2705:0dd2edb724a370c0 '
    'triples=2705:ca2d527a606b105f distinct=2690:54012db74ba5f018',
    'seed=42 repeat person mentions=1288:ecc8a98dd6839401 '
    'triples=2576:c25d203a77a7f5fe distinct=1408:0c36ab3951ef2028',
    'seed=42 repeat title mentions=1342:690d6279396d021a '
    'triples=1342:61dd39dd6e3851ea distinct=1342:1579d31b18a1e8cc',
    'seed=42 distinct address mentions=2604:eb42c1f05ab0a39c '
    'triples=2604:66c892205c6588fe distinct=2604:e50c0a2751d2de44',
    'seed=42 distinct clause mentions=1277:8e89c13c113e0c73 '
    'triples=1277:9b955efc09c8352c distinct=1277:902eb9de050454f7',
    'seed=42 distinct date mentions=2627:9fac8ab132fca478 '
    'triples=2627:9c32f129b50928c2 distinct=2627:ac52dec4892beef0',
    'seed=42 distinct money mentions=1511:2885b69f29423a0a '
    'triples=1511:3cd6acf7a4e540da distinct=1502:c49a540a00dcd03b',
    'seed=42 distinct person mentions=968:dc2c4525d3936ec0 '
    'triples=1936:c37c65b188d0621d distinct=1088:f53b429c89781ca7',
    'seed=42 distinct title mentions=882:4a6e6450bed2e07b '
    'triples=882:b782968654cc3d09 distinct=882:2cab6c52dd2a039b',
]


def corpus(seed):
    """``(repeat, distinct)`` turn tables of one seed, in (conv_id,
    turn_idx) order."""
    rows = [row for index in range(NUM_CONVS)
            for row in generate_conversation(
                index, seed, giant_every=GIANT_EVERY,
                giant_factor=GIANT_FACTOR)]
    seen = set()
    first = []
    for row in rows:
        if row['text'] not in seen:
            seen.add(row['text'])
            first.append(row)

    def table(rows):
        return pa.table({
            'conv_id': [r['conv_id'] for r in rows],
            'turn_idx': pa.array([r['turn_idx'] for r in rows], pa.int32()),
            'text': [r['text'] for r in rows],
        })
    return table(rows), table(first)


def digest(rows):
    """``count:digest`` of rows, sorted by their JSON text."""
    lines = sorted(json.dumps(row, ensure_ascii=False) for row in rows)
    sha = hashlib.sha256('\n'.join(lines).encode()).hexdigest()
    return f'{len(lines)}:{sha[:16]}'


def table_rows(table):
    return list(zip(*(col.to_pylist() for col in table.columns)))


def pin_lines(seed, name, turns):
    mentions, triples = {}, {}
    for row in table_rows(MentionExtractor()(turns)):
        mentions.setdefault(row[2], []).append(row)
    for row in table_rows(TripleExtractor()(turns)):
        triples.setdefault(row[5], []).append(row)
    for grammar in sorted(set(mentions) | set(triples)):
        line = f'seed={seed} {name} {grammar}'
        if grammar in mentions:
            line += f' mentions={digest(mentions[grammar])}'
        if grammar in triples:
            rows = triples[grammar]
            line += (f' triples={digest(rows)}'
                     f' distinct={digest(set(row[:3] for row in rows))}')
        yield line


def current_lines():
    lines = []
    for seed in SEEDS:
        repeat, distinct = corpus(seed)
        for name, turns in (('repeat', repeat), ('distinct', distinct)):
            lines.extend(pin_lines(seed, name, turns))
    return lines


def test_kernel_outputs_pinned():
    assert current_lines() == PINNED


if __name__ == '__main__':
    for line in current_lines():
        print(line)
