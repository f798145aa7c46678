"""Deterministic synthetic conversation transcripts (the pipeline input).

Schema (BASELINE.json ``input_hint``):
``conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us]``.

Generation is seed-stable *per conversation* (a counter-based RNG keyed on
(seed, conv_index)), so any shard of the corpus can be produced on any
worker independently — the generator scales horizontally as a
``ray.data.range(n) -> map_batches`` pipeline with no coordination.

Skew is built in on purpose: every ``giant_every``-th conversation is
``giant_factor``× longer than the median, to exercise partition skew
in the conversation exchanges. Turn rows are emitted in a deterministically
shuffled order — consumers must restore stable turn order by sorting on
``turn_idx`` (the per-row invariant the driver checks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from yargy_ray.kernel.lexicon import SURNAME_STEMS

# fragments assembled into turn texts; every bracketed hole is filled
# deterministically from the pools below
_MONTH_GEN = [
    'января', 'февраля', 'марта', 'апреля', 'мая', 'июня',
    'июля', 'августа', 'сентября', 'октября', 'ноября', 'декабря',
]
_FIRST_MASC = ['Иван', 'Сергей']
_FIRST_FEMN = ['Мария', 'Анна', 'Елена']
_POSITIONS = ['директор', 'инженер', 'менеджер', 'аналитик']
_TITLE_WORDS = ['новый', 'проект', 'отчет', 'план', 'запуск', 'обзор']
_FILLER = [
    'спасибо за информацию',
    'хорошо договорились',
    'данные отправлены в систему',
    'нужно проверить статус задачи',
    'я посмотрю логи позже',
    'все работает как ожидалось',
    'запустил пайплайн на кластере',
    'результаты будут завтра',
]
_ROLES = ['user', 'assistant', 'tool']
_TOOLS = ['', 'search', 'calc', '']

_BASE_TS = np.datetime64('2024-01-01T00:00:00', 'us')


def _turn_sentence(rng):
    kind = rng.randint(0, 12)
    if kind == 0:
        day = rng.randint(1, 29)
        month = rng.randint(0, 12)
        year = rng.randint(2010, 2026)
        return f'встреча {day} {_MONTH_GEN[month]} {year} в офисе'
    if kind == 1:
        year = rng.randint(1990, 2026)
        month = rng.randint(1, 13)
        day = rng.randint(1, 29)
        return f'дедлайн {year}-{month:02d}-{day:02d} подтвержден'
    if kind == 2:
        amount = int(rng.choice([100, 250, 500, 1500, 3000]))
        mult = ['тысяч', 'миллионов'][rng.randint(0, 2)]
        cur = ['рублей', 'долларов'][rng.randint(0, 2)]
        return f'бюджет составил {amount} {mult} {cur}'
    if kind == 3:
        if rng.randint(0, 2):
            first = _FIRST_MASC[rng.randint(0, len(_FIRST_MASC))]
            last = SURNAME_STEMS[rng.randint(0, len(SURNAME_STEMS))].title()
        else:
            first = _FIRST_FEMN[rng.randint(0, len(_FIRST_FEMN))]
            last = SURNAME_STEMS[rng.randint(0, len(SURNAME_STEMS))].title() + 'а'
        position = _POSITIONS[rng.randint(0, len(_POSITIONS))]
        return f'на встрече был {position} {first} {last}'
    if kind == 4:
        a = rng.randint(1, 200)
        b = rng.randint(1, 20)
        return f'согласно ст. {a} п. {b} договора'
    if kind == 5:
        w1 = _TITLE_WORDS[rng.randint(0, len(_TITLE_WORDS))]
        w2 = _TITLE_WORDS[rng.randint(0, len(_TITLE_WORDS))]
        return f'обсудили документ «{w1} {w2}»'
    if kind == 6:
        amount = int(rng.choice([99, 300, 1200, 4500]))
        return f'это стоит {amount} руб.'
    if kind == 7:
        street = SURNAME_STEMS[rng.randint(0, len(SURNAME_STEMS))].title() + 'а'
        house = rng.randint(1, 200)
        return f'офис находится на улице {street} дом {house}'
    if kind == 8:
        stype = ['проспект', 'шоссе'][rng.randint(0, 2)]
        street = SURNAME_STEMS[rng.randint(0, len(SURNAME_STEMS))].title() + 'а'
        house = rng.randint(1, 200)
        return f'встреча по адресу {stype} {street} д. {house}'
    return _FILLER[rng.randint(0, len(_FILLER))]


def generate_conversation(conv_index, seed=42, mean_turns=8,
                          giant_every=997, giant_factor=100):
    """All turn rows of one conversation, deterministic in (seed, index)."""
    rng = np.random.RandomState((seed * 1_000_003 + conv_index) % (2**31 - 1))
    n_turns = 2 + rng.randint(0, mean_turns * 2)
    if giant_every and conv_index % giant_every == giant_every - 1:
        n_turns *= giant_factor
    conv_id = f'conv-{conv_index:08d}'
    rows = []
    for turn_idx in range(n_turns):
        n_sentences = 1 + rng.randint(0, 2)
        text = ' . '.join(_turn_sentence(rng) for _ in range(n_sentences))
        rows.append({
            'conv_id': conv_id,
            'turn_idx': turn_idx,
            'role': _ROLES[turn_idx % len(_ROLES)],
            'text': text,
            'tool': _TOOLS[rng.randint(0, len(_TOOLS))],
            'ts': _BASE_TS + np.timedelta64(conv_index * 3600 + turn_idx * 30, 's'),
        })
    return rows


TRANSCRIPT_SCHEMA = pa.schema([
    ('conv_id', pa.string()),
    ('turn_idx', pa.int32()),
    ('role', pa.string()),
    ('text', pa.string()),
    ('tool', pa.string()),
    ('ts', pa.timestamp('us')),
])


def _rows_to_table(rows):
    return pa.Table.from_pylist(rows, schema=TRANSCRIPT_SCHEMA)


class ConversationBatchGenerator:
    """map_batches callable: batch of conv indexes -> transcript rows.

    Rows are shuffled within the batch (seeded) so downstream stages
    cannot rely on implicit turn ordering.
    """

    def __init__(self, seed=42, mean_turns=8, giant_every=997,
                 giant_factor=100):
        self.seed = seed
        self.mean_turns = mean_turns
        self.giant_every = giant_every
        self.giant_factor = giant_factor

    def __call__(self, batch):
        ids = batch['id'].to_pylist() if isinstance(batch, pa.Table) \
            else list(batch['id'])
        rows = []
        for conv_index in ids:
            rows.extend(generate_conversation(
                int(conv_index), self.seed, self.mean_turns,
                self.giant_every, self.giant_factor))
        order = np.random.RandomState(self.seed ^ 0x5EED ^ (ids[0] if ids else 0))
        perm = order.permutation(len(rows))
        return _rows_to_table([rows[i] for i in perm])


def synth_transcripts(num_convs, seed=42, mean_turns=8, giant_every=997,
                      giant_factor=100, override_num_blocks=None):
    """Distributed deterministic transcript Dataset."""
    import ray.data

    ds = ray.data.range(num_convs, override_num_blocks=override_num_blocks)
    return ds.map_batches(
        ConversationBatchGenerator(seed, mean_turns, giant_every, giant_factor),
        batch_format='pyarrow',
        batch_size=256,
    )


def write_transcripts(path, num_convs, **kwargs):
    """Materialize a transcript corpus as partitioned parquet."""
    synth_transcripts(num_convs, **kwargs).write_parquet(path)
    return path
