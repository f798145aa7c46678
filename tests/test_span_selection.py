"""``best_nonoverlapping`` against the quadratic version it replaced."""

import random

from yargy_ray.kernel.records import best_nonoverlapping


def quadratic_best_nonoverlapping(spans):
    # the selection as first written, kept verbatim as the reference
    n = len(spans)
    if not n:
        return []

    # next[i]: first index j with spans[j].start >= spans[i].stop
    nxt = []
    for _, stop in spans:
        found = None
        for j, (start, _) in enumerate(spans):
            if start >= stop:
                found = j
                break
        nxt.append(found)

    cover = [0] * n
    chosen = [None] * n
    for i in range(n - 1, -1, -1):
        start, stop = spans[i]
        size = stop - start
        if i == n - 1:
            cover[i] = size
            chosen[i] = {i}
            continue
        take = size
        picks = {i}
        j = nxt[i]
        if j is not None:
            take += cover[j]
            picks = picks | chosen[j]
        if take < cover[i + 1]:
            cover[i] = cover[i + 1]
            chosen[i] = chosen[i + 1]
        else:
            cover[i] = take
            chosen[i] = picks

    return [spans[i] for i in sorted(chosen[0])]


def random_spans(rng):
    # few positions and short widths: many shared starts and equal covers
    tokens = rng.randint(1, 12)
    spans = set()
    for _ in range(rng.randint(0, 14)):
        start = rng.randrange(tokens)
        spans.add((start, min(tokens, start + rng.choice((1, 1, 2, 2, 3)))))
    # the parser's order: start ascending, the longer span first
    return sorted(spans, key=lambda span: (span[0], -span[1]))


def test_matches_quadratic_version():
    rng = random.Random(20240518)
    for _ in range(2000):
        spans = random_spans(rng)
        assert best_nonoverlapping(spans) == \
            quadratic_best_nonoverlapping(spans), spans


def test_two_spans_match_quadratic_version():
    # every pair of spans over five tokens, in the parser's order: the
    # two-span shortcut gives what the DP gives
    spans = [(start, stop) for start in range(5)
             for stop in range(start + 1, 6)]
    spans.sort(key=lambda span: (span[0], -span[1]))
    compared = 0
    for i, first in enumerate(spans):
        for second in spans[i + 1:]:
            pair = [first, second]
            assert best_nonoverlapping(pair) == \
                quadratic_best_nonoverlapping(pair), pair
            compared += 1
    assert compared == len(spans) * (len(spans) - 1) // 2


def test_equal_cover_takes_the_span():
    # (0, 2) + (2, 4) and (0, 1) + (1, 2) + (2, 4) both cover 4 tokens;
    # the scan skips a span only when that gives a strictly larger cover
    spans = [(0, 2), (0, 1), (1, 2), (2, 4)]
    assert best_nonoverlapping(spans) == [(0, 2), (2, 4)]
    assert quadratic_best_nonoverlapping(spans) == [(0, 2), (2, 4)]
    assert best_nonoverlapping([]) == []
