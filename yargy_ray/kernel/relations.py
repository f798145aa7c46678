"""Agreement relations: per-match constraints over morphological forms.

Behavioral contract: /root/reference/yargy/relations/ — a relation links
the *main* tokens of annotated subrules; match validation keeps only
mutually-compatible form pairs and vetoes the match when any linked token
ends up with no surviving forms (graph.py:49-70). ``constrain`` rewrites
leaf tokens with the surviving forms so downstream ``inflected()``
normalization agrees in gender/number/case.
"""

from __future__ import annotations

from itertools import combinations

# (grammemes, grammemes) -> agreement entries kept by gnc_relation: a
# bound of about 1.4 MiB of memo. The default lexicon analyzer yields
# 288 grammeme sets (82,944 pairs at most); the benchmark corpora of
# seeds 7 and 42 meet 4 pairs.
GNC_MEMO_SIZE = 1 << 14


class Relation:
    def __call__(self, form, other):
        raise NotImplementedError

    @property
    def label(self):
        return type(self).__name__


def is_relation(item):
    return isinstance(item, Relation)


class gender_relation(Relation):
    label = 'gender'

    def __call__(self, form, other):
        a, b = form.grams, other.grams
        if a.number.plural and b.number.plural:
            return True
        ga, gb = a.gender, b.gender
        return (
            (ga.male and gb.male)
            or (ga.female and gb.female)
            or (ga.neutral and gb.neutral)
            or (ga.bi and (gb.male or gb.female))
            or (gb.bi and (ga.male or ga.female))
            or ga.general
            or gb.general
        )


class number_relation(Relation):
    label = 'number'

    def __call__(self, form, other):
        na, nb = form.grams.number, other.grams.number
        return (
            (na.single and nb.single)
            or (na.plural and nb.plural)
            or (na.only_single and nb.single)
            or (na.only_plural and nb.plural)
            or (nb.only_single and na.single)
            or (nb.only_plural and na.plural)
        )


class case_relation(Relation):
    label = 'case'

    def __call__(self, form, other):
        ca, cb = form.grams.case, other.grams.case
        return ca.mask == cb.mask or ca.fixed or cb.fixed


class gnc_relation(Relation):
    """Gender, number and case agreement. A pure function of the two
    forms' grammemes, so results are memoized by grammeme sets (one
    memo for every instance, cleared when it holds ``GNC_MEMO_SIZE``)."""

    label = 'gnc'

    _gender = gender_relation()
    _number = number_relation()
    _case = case_relation()
    _memo = {}

    def __call__(self, form, other):
        key = (form.grams.values, other.grams.values)
        found = self._memo.get(key)
        if found is None:
            found = bool(
                self._gender(form, other)
                and self._number(form, other)
                and self._case(form, other)
            )
            if len(self._memo) >= GNC_MEMO_SIZE:
                self._memo.clear()
            self._memo[key] = found
        return found


class AndRelation(Relation):
    def __init__(self, items):
        self.items = list(items)

    def __call__(self, form, other):
        return all(r(form, other) for r in self.items)

    @property
    def label(self):
        return 'and_({})'.format(', '.join(r.label for r in self.items))


class OrRelation(Relation):
    def __init__(self, items):
        self.items = list(items)

    def __call__(self, form, other):
        return any(r(form, other) for r in self.items)

    @property
    def label(self):
        return 'or_({})'.format(', '.join(r.label for r in self.items))


class NotRelation(Relation):
    def __init__(self, item):
        self.item = item

    def __call__(self, form, other):
        return not self.item(form, other)

    @property
    def label(self):
        return f'not_({self.item.label})'


class AgreementGraph:
    """Tokens grouped by relation instance; pairwise form filtering."""

    def __init__(self):
        self.relations = {}        # id(relation) -> relation
        self.groups = {}           # id(relation) -> [token, ...]
        self.tokens = {}           # id(token) -> token
        self.surviving = {}        # id(token) -> [form, ...]

    def add(self, relation, token):
        rid = id(relation)
        self.relations[rid] = relation
        self.groups.setdefault(rid, []).append(token)
        tid = id(token)
        if tid not in self.tokens:
            self.tokens[tid] = token
            self.surviving[tid] = list(token.forms or ())

    def validate(self):
        """Prune incompatible forms; False if any token loses all forms."""
        for rid, tokens in self.groups.items():
            relation = self.relations[rid]
            for first, second in combinations(tokens, 2):
                fid, sid = id(first), id(second)
                ffs, sfs = self.surviving[fid], self.surviving[sid]
                keep_f, keep_s = [], []
                for ff in ffs:
                    for sf in sfs:
                        if relation(ff, sf):
                            if ff not in keep_f:
                                keep_f.append(ff)
                            if sf not in keep_s:
                                keep_s.append(sf)
                self.surviving[fid] = keep_f
                self.surviving[sid] = keep_s
        return all(self.surviving[tid] for tid in self.tokens)

    def constrain(self, token):
        tid = id(token)
        if tid in self.tokens:
            return token.constrained(self.surviving[tid])
        return token
