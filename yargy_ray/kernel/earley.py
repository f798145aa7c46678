"""Earley chart parser + deterministic match resolution.

Behavioral contract: the reference yargy ``parser.py`` and ``tree/`` — an
Earley chart over the token stream with per-column state dedup, token-
lookahead pruning for gazetteer rules, deterministic parse-tree ranking
(rank-lexicographic, tree/constructors.py:114-134) and maximum-coverage
non-overlapping span selection for ``findall``. Determinism is what makes
distributed extraction equal serial extraction, so the ordering rules are
replicated exactly.

Additions over the reference:

* ``max_states`` — a per-document bound on chart states. The reference
  leaves state explosion to the caller (docs/cookbook.ipynb cell 7,
  ``CappedParser``); a distributed engine cannot let one pathological
  conversation stall a partition, so the cap is built in: parsing raises
  :class:`StateOverflow`, which the extraction stage records as a capped
  row instead of failing the job.
* Compiled prediction. Work that depends only on the grammar is done
  once per :class:`Parser` (``_build_first``): every distinct FIRST
  matcher gets a bit, each token gets the mask of the matchers it
  satisfies (memoized by token features), and each rule a plan of
  ``(first_bits, item)`` per production. Prediction keeps the
  productions whose bits meet the lookahead's mask, cached per (rule,
  mask) (``_firsts``); the chart reads that memo inline, through the
  item table, and calls ``_firsts`` only on a miss or for a gazetteer
  rule. The start-rule pre-scan is one AND on the union of the masks.
  No state is ever derived twice, so columns keep no per-state dedup
  keys (see ``_chart_tokens``). Each column but the
  end-of-input one holds the same
  states, in the same order, as plain Earley prediction with per-state
  dedup would push: the state budget and tree tie-breaking count on that.
* End of input is a token whose mask is bit 0 only. The last column
  predicts the start rule only when it is nullable, and keeps only the
  nullable productions of every BNF rule it predicts, as any other
  column keeps those whose FIRST bits meet its lookahead; a gazetteer
  rule predicted there keeps only its empty phrase productions, if any.
  A production that needs a token can never complete where none
  follows, so matches are unchanged. Only
  the last column differs from plain Earley: it holds a subsequence of
  that column's states, so a chart's budget count drops by at most the
  number of the grammar's dotted items.
* Shared masks. The FIRST bits and the mask memo live in a
  :class:`MaskSpace`; parsers built on one space (the grammars of one
  extractor) share them, so a token stream's masks are computed once
  for all of them and passed to each (``findall_tokens(tokens, masks)``).
* Flat chart over item tables. ``_build_first`` numbers every dotted
  item of the grammar ahead of time (:class:`ItemTable`: next term,
  waiting key, scan bit, completion key, start-rule flag per item id;
  a gazetteer production's items are numbered on first prediction). A
  state is a tuple ``(item, origin, prev, child)`` and a column a plain
  list, so ``_chart_tokens`` is one loop with predict, scan and
  complete inlined, allocating one tuple per state; a column's waiting
  dict exists only once a state in it waits. ``Parser.view`` reads a
  state back as a :class:`StateView`.
* Lazy parse forest. A state holds the state it advanced from
  (``prev``) and what it advanced over (``child``: the scanned token or
  the completed state); the chart allocates no :class:`ParseNode` and
  no :class:`ParseLeaf`. Trees are built on demand by walking ``prev``
  back (``_node``), memoized by state id, so parents sharing a completed
  child share its node, which the rank tie-break of ``ParseNode.__lt__``
  relies on. The chart collects its final states (completed start-rule
  states) as it completes them, so resolving rescans no column.
  Resolving groups final states by span and builds and sorts trees only
  within a span that has several (``_ranked``); for a grammar without
  relations it looks only at the spans ``best_nonoverlapping`` keeps,
  with no agreement pass. Only that ranking, ``trees``, ``explain`` and
  a :class:`Match`'s ``tree``, built on first use, make tree objects.
* Acyclic chart. A state holds its origin as a column index; its stop
  is the index of the column holding it. States are tuples of ints,
  tokens and older states, and the tree passes are module-level
  functions, not recursive closures; parsing a document leaves no
  reference cycle, so the cyclic GC finds nothing to free.
* Scans by mask bit. Every terminal predicate of a BNF rule has a bit in
  the :class:`MaskSpace`, not only the FIRST ones, so a scan tests the
  lookahead's mask instead of calling the predicate; the predicate's
  ``constrain`` runs only when a tree takes the scanned token. Gazetteer
  phrase terms get no bit and are called, so a long phrase list does not
  widen every token's mask.
* Required sets. ``_build_first`` also derives bit sets every match must
  meet (each set through at least one token's mask): for money, an INT
  and a currency token. ``findall`` and ``findall_tokens`` test them
  against the union of the turn's masks and return no matches without
  building a chart; the skip is exact, since a rejected turn's chart has
  no final state. ``_chart_tokens`` does not test them, so it still
  builds every chart the start pre-scan lets through.
* One resolve path, over chart states. ``findall_spans`` hands out
  each kept span's chosen final state: its only one, or, for a span
  with several, the first of its trees in ``ParseTree.__lt__`` order
  that is valid (``_resolve_states``). ``findall``/``findall_tokens``
  wrap each of those in a :class:`Match`; ``match`` takes the first
  valid of the final states that end the text, in the order of their
  trees, and ``extract`` every valid final state in chart order.
  ``interpret`` folds the interpretation result by walking the state's
  ``prev`` chain once (``_fold_state``): a completed child that covers
  no token is skipped (the one ``_pruned`` drops), each scanned token
  goes through its predicate's ``constrain`` (as ``_leaf``), and a
  gazetteer production's key comes from the item table. No
  :class:`ParseNode`, :class:`ParseLeaf`, :class:`ParseTree` or
  :class:`Match` is built.
* Agreement over chart states. A grammar with relations checks every
  span in order, because ``constrain`` rewrites tokens that later spans
  share. ``_agree`` walks the ``prev`` chains: it adds each
  relation-bearing node's main token to an :class:`AgreementGraph` in
  the tree's preorder, validates it, and writes the constrained tokens
  into a per-chart ``leaves`` map keyed by the scanning state: a later
  span reads the rewrites of earlier ones, and every fold reads the map
  as the last span left it. It returns the tree's leaf tokens as they
  stand then, which ``Match.tokens`` keeps.
* Payload plans. ``payload`` folds a state straight into the payload
  the extraction stage keeps (the fact's ``as_json`` dict, or the
  normalized value) through the item table's ``plan`` column: one
  compiled fold per interpretator (``interp.payload_plan``), which
  decides once the attribute's name and whether it repeats, whether
  it lands in its parent fact, the ``const`` flag and the fact's
  layout, and folds into tuples instead of result objects.
* Matches read from the state. A chart span ``(i, j)`` consumes
  exactly the tokens ``i .. j - 1``, so a match's char span comes from
  those tokens. A :class:`Match` holds its final state and the
  ``leaves`` map of its call: ``fact`` folds from the chart, ``tokens``
  are the ones agreement left (a grammar with relations) or are walked
  from the ``prev`` chain when asked, and ``tree`` is built when asked.
* One lexer pass. :class:`Lexer` tokenizes a text, attaches morphology
  and computes token masks in one regex loop, memoized by ``(value,
  regex group)``; the extraction stage runs it once per turn for all
  its grammars.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from sys import maxsize
from types import MappingProxyType
from typing import NamedTuple

from .grammar import BNFRule as BNFRuleType
from .grammar import GrammarNode, is_bnf_rule
from .gazetteer import GazProd
from .interp import Unplanned, payload_plan, plan_payload, result_payload
from .records import MorphToken, Span, Token, best_nonoverlapping
from .relations import AgreementGraph
from .tagging import PassTagger
from .tokenizer import RU, MorphTokenizer, Tokenizer


# token-feature -> mask memo entries kept per MaskSpace (cleared when full)
MASK_MEMO_SIZE = 1 << 14


class StateOverflow(Exception):
    """Raised when a document exceeds the per-parse state budget."""


class Context:
    def __init__(self, tokenizer, tagger=None):
        self.tokenizer = tokenizer
        self.tagger = tagger


# ---------------------------------------------------------------------------
# Parse forest
# ---------------------------------------------------------------------------

class ParseNode:
    __slots__ = ('rule', 'production', 'rank', 'children')

    def __init__(self, rule, production, rank, children):
        self.rule = rule
        self.production = production
        self.rank = rank
        self.children = children

    @property
    def interpretator(self):
        return self.rule.interpretator

    def __lt__(self, other):
        # rank-lexicographic: shared-leaf positions skipped, first differing
        # child rank decides; equal ranks recurse
        if id(self.rule) != id(other.rule):
            raise TypeError('rank comparison across rules')
        if id(self) == id(other):
            return False
        if self.rank != other.rank:
            return self.rank < other.rank
        for a, b in zip(self.children, other.children):
            if isinstance(a, ParseLeaf):
                continue
            if id(a) == id(b):
                continue
            if a.rank < b.rank:
                return True
            if a.rank > b.rank:
                return False
            return a < b
        return False


class ParseLeaf:
    __slots__ = ('predicate', 'token')

    def __init__(self, predicate, token):
        self.predicate = predicate
        self.token = token


class ParseTree:
    __slots__ = ('root', 'range')

    def __init__(self, root, range_):
        self.root = root
        self.range = range_

    def __lt__(self, other):
        if self.range == other.range:
            return self.root < other.root
        start, stop = self.range
        ostart, ostop = other.range
        if start == ostart:
            return stop > ostop          # longer span first
        return start < ostart

    def interpret(self):
        """Fold: keep interpretation-bearing nodes, apply bottom-up."""
        if self.root.interpretator is None:
            raise ValueError('root rule has no .interpretation(...)')
        return _fold(self.root)


# The tree passes are module-level functions, not closures: a recursive
# closure refers to itself through its cell, so every call would leave a
# reference cycle for the cyclic GC.

def _prune(item):
    if isinstance(item, ParseLeaf):
        return item
    children = [c for c in map(_prune, item.children) if c is not None]
    if not children:
        return None
    return ParseNode(item.rule, item.production, item.rank, children)


def _significant(item, values):
    # fold the children that carry interpretation, left to right, into
    # ``values``, flattening away nodes without interpretators
    for child in item.children:
        if type(child) is ParseLeaf:
            values.append(child.token)
        elif child.rule.interpretator:
            values.append(_fold(child))
        else:
            _significant(child, values)
    return values


def _fold(item):
    if isinstance(item, ParseLeaf):
        return item.token
    values = _significant(item, [])
    key = (
        item.production.value
        if isinstance(item.production, GazProd)
        else None
    )
    return item.interpretator(values, key)


# ---------------------------------------------------------------------------
# Chart
# ---------------------------------------------------------------------------

# A chart state is a plain tuple ``(item, origin, prev, child)``:
#
# * ``item`` — its dotted item's id in the parser's :class:`ItemTable`;
# * ``origin`` — the index of the column it started in; the column
#   holding it is its stop;
# * ``prev`` — the state it advanced from (None at dot 0);
# * ``child`` — what it advanced over: the token it scanned, or the
#   completed state (a tuple).
#
# A column is a plain list of states. Indices, not column objects, keep
# the chart free of reference cycles.


class ItemTable:
    """The dotted items of one parser, numbered ahead of time.

    Each ``(rule, rank, production)`` gets consecutive ids for dots
    0..len(terms), so the item after ``i`` is ``i + 1``. The lists are
    indexed by item id:

    * ``rule``, ``production``, ``rank``, ``dot`` — what the item is;
    * ``term`` — the term after the dot, None for a completed item;
    * ``wait`` — ``id`` of that term when it is a rule (the key the
      state waits under in its column), else None;
    * ``bit`` — its ``MaskSpace`` bit when it is a terminal of a BNF
      rule; None for a gazetteer phrase term, which is called;
    * ``done`` — ``id`` of the rule of a completed item (the key its
      waiting parents sit under), else None;
    * ``final`` — whether it is a completed item of the start rule;
    * ``firsts`` — the prediction memo (lookahead mask -> ``(item,
      waiting key)`` list, see ``Parser._firsts``) of the BNF rule after
      the dot; an empty read-only mapping for anything else, so a
      gazetteer rule (which predicts by token) always misses;
    * ``interp`` — the rule's interpretator, ``plan`` its compiled
      payload fold (``interp.payload_plan``, one per interpretator), and
      ``key`` the gazetteer key of the production (None unless it is a
      :class:`GazProd`): what the interpretation folds read of a
      completed item.
    """

    __slots__ = ('start', 'memos', 'rule', 'production', 'rank', 'dot',
                 'term', 'wait', 'bit', 'done', 'final', 'firsts',
                 'interp', 'plan', 'key', '_plans')

    def __init__(self, start, memos):
        self.start = start
        # id(BNF rule) -> its prediction memo
        self.memos = memos
        self.rule = []
        self.production = []
        self.rank = []
        self.dot = []
        self.term = []
        self.wait = []
        self.bit = []
        self.done = []
        self.final = []
        self.firsts = []
        self.interp = []
        self.plan = []
        self.key = []
        # id(interpretator) -> its payload plan
        self._plans = {}

    def add(self, rule, rank, production, bits):
        """The first id of the items of ``(rule, rank, production)``.

        ``bits`` maps ``id`` of a terminal to its mask bit; None for a
        gazetteer rule's phrase terms, which have none.
        """
        first = len(self.rule)
        terms = production.terms
        key = production.value if isinstance(production, GazProd) else None
        interp = rule.interpretator
        plan = self._plans.get(id(interp))
        if plan is None and interp is not None:
            plan = self._plans[id(interp)] = payload_plan(interp)
        for dot in range(len(terms) + 1):
            self.rule.append(rule)
            self.production.append(production)
            self.rank.append(rank)
            self.dot.append(dot)
            self.interp.append(interp)
            self.plan.append(plan)
            self.key.append(key)
            if dot < len(terms):
                term = terms[dot]
                self.term.append(term)
                self.wait.append(id(term) if term.is_rule else None)
                self.bit.append(None if term.is_rule or bits is None
                                else bits[id(term)])
                self.done.append(None)
                self.final.append(False)
                self.firsts.append(self.memos.get(id(term), _NO_MEMO))
            else:
                self.term.append(None)
                self.wait.append(None)
                self.bit.append(None)
                self.done.append(id(rule))
                self.final.append(rule is self.start)
                self.firsts.append(_NO_MEMO)
        return first


# the prediction memo of what has none: every lookup misses
_NO_MEMO = MappingProxyType({})


class StateView(NamedTuple):
    """A chart state read through its parser's item table
    (``Parser.view``): the debug and test view of the tuple."""

    rule: object
    production: object
    rank: int
    dot: int
    origin: int
    prev: object
    child: object


def _leaf(state, memo, table):
    """The leaf a scanned ``state`` advanced over, one per state in a
    ``memo`` (trees that share the state share the leaf), its token as
    its predicate's ``constrain`` gives it unless the memo already holds
    the leaf. ``-id`` keys it, apart from the nodes, which ``id`` keys
    (ids are positive)."""
    leaf = memo.get(-id(state))
    if leaf is None:
        predicate = table.term[state[0] - 1]
        leaf = memo[-id(state)] = ParseLeaf(
            predicate, predicate.constrain(state[3]))
    return leaf


def _node(state, memo, table):
    """The parse node of ``state``, built from its ``prev`` chain.

    ``memo`` (one per chart) maps a state's ``id`` to its node, so every
    parent of a completed state gets the same child node object.
    """
    node = memo.get(id(state))
    if node is None:
        children = []
        item = state
        prev = item[2]
        while prev is not None:
            child = item[3]
            children.append(_node(child, memo, table)
                            if type(child) is tuple
                            else _leaf(item, memo, table))
            item = prev
            prev = item[2]
        children.reverse()
        index = state[0]
        node = memo[id(state)] = ParseNode(
            table.rule[index], table.production[index], table.rank[index],
            children)
    return node


def _pruned(state, memo, table):
    """``_prune(_node(state))`` in one pass over the ``prev`` chain: the
    pruned tree of a state, or None when it covers no token. Leaves come
    from ``memo`` as in ``_node``."""
    children = []
    item = state
    prev = item[2]
    while prev is not None:
        child = item[3]
        if type(child) is tuple:
            child = _pruned(child, memo, table)
            if child is not None:
                children.append(child)
        else:
            children.append(_leaf(item, memo, table))
        item = prev
        prev = item[2]
    if not children:
        return None
    children.reverse()
    index = state[0]
    return ParseNode(table.rule[index], table.production[index],
                     table.rank[index], children)


def _trees(finals, table):
    """One ParseTree per ``(span, state)`` final pair, sharing one memo."""
    memo = {}
    return [ParseTree(_node(s, memo, table), span) for span, s in finals]


def _fold_state(state, stop, table, leaves, folds=None):
    """``_fold`` of the pruned tree of ``state``, a completed state that
    stops before token ``stop`` and covers a token, read straight from
    the chart: no :class:`ParseNode` and no :class:`ParseLeaf`.

    ``leaves`` maps ``id`` of a scanned state to its token as a relation
    constrained it (``_agree``). ``folds`` is the item table's list of
    what folds a completed item: ``table.interp`` (the default) gives the
    interpretation result, ``table.plan`` the payload fold's value
    (``interp.payload_plan``), with no result object."""
    if folds is None:
        folds = table.interp
    values = _significant_back(state, stop, [], leaves, folds, table)
    values.reverse()
    item = state[0]
    return folds[item](values, table.key[item])


def _significant_back(state, stop, values, leaves, folds, table):
    """``_significant`` of the pruned node of ``state`` (stopping before
    token ``stop``), appended to ``values`` right to left, as its
    ``prev`` chain runs. A completed child that covers no token is the
    one ``_pruned`` drops; a scanned token is read from ``leaves``, or
    goes through its predicate's ``constrain``, as ``_leaf`` does."""
    prev = state[2]
    while prev is not None:
        child = state[3]
        if type(child) is tuple:
            origin = child[1]
            if origin < stop:
                if folds[child[0]]:
                    values.append(
                        _fold_state(child, stop, table, leaves, folds))
                else:
                    _significant_back(child, stop, values, leaves, folds,
                                      table)
            stop = origin
        else:
            token = leaves.get(id(state))
            values.append(token if token is not None
                          else table.term[state[0] - 1].constrain(child))
            stop -= 1
        state = prev
        prev = state[2]
    return values


# The agreement pass, read from the chart. A pruned node's children are
# the ``(state, stop)`` pairs of its completed children that cover a
# token and the ``(state, None)`` pairs of its scanned ones (``state``
# the scanning state, whose ``id`` keys its leaf's token in a ``leaves``
# map, as ``-id`` keys its leaf in a tree's memo).

def _children(state, stop):
    """The children of the pruned node of ``state``, left to right."""
    children = []
    prev = state[2]
    while prev is not None:
        child = state[3]
        if type(child) is tuple:
            origin = child[1]
            if origin < stop:
                children.append((child, stop))
            stop = origin
        else:
            children.append((state, None))
            stop -= 1
        state = prev
        prev = state[2]
    children.reverse()
    return children


def _scans(state, stop, out):
    """The scanning state of each leaf of the pruned tree of ``state``,
    left to right, appended to ``out``."""
    for child, child_stop in _children(state, stop):
        if child_stop is None:
            out.append(child)
        else:
            _scans(child, child_stop, out)
    return out


def _leaf_token(scan, leaves, table):
    """The token of the leaf ``scan`` advanced over: as ``leaves`` holds
    it, or, on first use, its predicate's ``constrain`` of the scanned
    token, which ``leaves`` then keeps."""
    token = leaves.get(id(scan))
    if token is None:
        token = leaves[id(scan)] = table.term[scan[0] - 1].constrain(
            scan[3])
    return token


def _relate(state, stop, children, graph, mains, scans, leaves, table):
    """The agreement graph of the pruned node of ``state`` (its
    ``children`` given), preorder: each relation-bearing node adds its
    main token to ``graph``; ``mains`` maps ``id`` of that token's
    scanned state to ``(state, token)``. The scanning state of each leaf
    is appended to ``scans``, left to right."""
    relation = table.rule[state[0]].relation
    if relation is not None:
        # the main token: down the main child of each pruned node
        node, below = state, children
        while True:
            scan, node_stop = below[table.production[node[0]].main]
            if node_stop is None:
                break
            node, below = scan, _children(scan, node_stop)
        token = _leaf_token(scan, leaves, table)
        graph.add(relation, token)
        mains[id(scan)] = (scan, token)
    for child, child_stop in children:
        if child_stop is None:
            scans.append(child)
        else:
            _relate(child, child_stop, _children(child, child_stop), graph,
                    mains, scans, leaves, table)


def _agree(state, stop, leaves, table):
    """The agreement pass of the pruned tree of ``state`` (a final state
    whose span ``(origin, stop)`` covers a token), over the chart: build
    and validate its agreement graph; when valid, write each token it
    constrains into ``leaves`` and return the tree's leaf tokens as they
    stand then, else None. ``leaves`` is shared by the spans of a chart,
    as the tree leaves of a shared scanned state are: a later span reads
    the tokens this one rewrote, and the fold of this one reads those
    later spans rewrite."""
    graph = AgreementGraph()
    mains = {}
    scans = []
    _relate(state, stop, _children(state, stop), graph, mains, scans,
            leaves, table)
    if not graph.validate():
        return None
    for scan, token in mains.values():
        leaves[id(scan)] = graph.constrain(token)
    return [_leaf_token(scan, leaves, table) for scan in scans]


def _ranked(finals, table):
    """``finals`` (``(span, state)`` pairs) in the order of their trees
    (``ParseTree.__lt__``). Trees are built, sharing one memo, only when
    there are several to sort."""
    if len(finals) < 2:
        return finals
    trees = _trees(finals, table)
    return [finals[i]
            for i in sorted(range(len(finals)), key=trees.__getitem__)]


def _group_spans(finals):
    """``finals`` grouped by span, and the spans in ParseTree order
    (start ascending, the longer span first)."""
    by_span = {}
    for final in finals:
        by_span.setdefault(final[0], []).append(final)
    return by_span, sorted(by_span, key=lambda span: (span[0], -span[1]))


class Match:
    """One match of :meth:`Parser.findall_tokens`, :meth:`Parser.match`
    or :meth:`Parser.extract`, read from its final state on the chart.

    * ``span`` — the char span: a chart span ``(i, j)`` consumes exactly
      the tokens ``i .. j - 1``;
    * ``rule`` — the start rule;
    * ``fact`` — the interpretation's normalized value, folded from the
      chart on each access (:meth:`Parser.interpret`);
    * ``tokens`` — the leaf tokens: for a grammar with relations, as
      they stood right after the match's agreement pass; otherwise built
      on first use;
    * ``tree`` — the pruned :class:`ParseTree`, built on first use.

    ``fact`` and ``tree`` read the tokens from the ``leaves`` map the
    call that found the match filled, as it stands when they are read: a
    later span's agreement pass may rewrite a token this match shares,
    as it rewrote a shared tree leaf.
    """

    __slots__ = ('span', '_parser', '_range', '_state', '_leaves',
                 '_tokens', '_tree')

    def __init__(self, parser, tokens, range_, state, leaves, agreed):
        start, stop = range_
        self.span = Span(tokens[start].span.start, tokens[stop - 1].span.stop)
        self._parser = parser
        self._range = range_
        self._state = state
        self._leaves = leaves
        self._tokens = agreed
        self._tree = None

    def _scans(self):
        return _scans(self._state, self._range[1], [])

    @property
    def tokens(self):
        if self._tokens is None:
            table, leaves = self._parser._table, self._leaves
            self._tokens = [_leaf_token(scan, leaves, table)
                            for scan in self._scans()]
        return self._tokens

    @property
    def tree(self):
        if self._tree is None:
            table, leaves = self._parser._table, self._leaves
            # each leaf holds its token as ``leaves`` has it
            memo = {-id(scan): ParseLeaf(table.term[scan[0] - 1],
                                         _leaf_token(scan, leaves, table))
                    for scan in self._scans()}
            self._tree = ParseTree(_pruned(self._state, memo, table),
                                   self._range)
        return self._tree

    @property
    def rule(self):
        return self._parser._table.rule[self._state[0]]

    @property
    def fact(self):
        return self._parser.interpret(self._range, self._state,
                                      self._leaves).normalized

    def __repr__(self):
        return f'Match({[t.value for t in self.tokens]!r}, {self.span!r})'


class MaskSpace:
    """FIRST-matcher bits and token-mask memo, shared by a set of parsers.

    Every distinct matcher any parser on the space registers (``bit``)
    gets one bit; bit 0 is set in every token mask. A standalone
    :class:`Parser` owns a space of its own; the grammars of one
    extractor share one, so ``masks`` runs once per token stream for
    all of them. ``generation`` counts the bits added: a memo of masks
    kept outside the space (a :class:`Lexer`'s) is stale once it moves.
    """

    def __init__(self):
        # (bit, matcher, is_gazetteer); a token's mask is the OR of the
        # bits of the matchers it satisfies
        self.matchers = []
        # id(matcher) -> bit; the matchers list keeps the ids alive
        self.bits = {}
        self.generation = 0
        self._memo = {}

    def bit(self, matcher):
        bit = self.bits.get(id(matcher))
        if bit is None:
            bit = self.bits[id(matcher)] = 2 << len(self.bits)
            self.matchers.append((bit, matcher, is_bnf_rule(matcher)))
            self.generation += 1
            self._memo.clear()  # cached masks lack the new bit
        return bit

    def mask(self, token):
        """The OR of the bits of the matchers ``token`` satisfies, and
        bit 0."""
        mask = 1
        for bit, matcher, gazetteer in self.matchers:
            if (len(matcher.predict(token)) > 0 if gazetteer
                    else matcher(token)):
                mask |= bit
        return mask

    def masks(self, tokens):
        """FIRST mask per token, and their union; memoized by token features.

        Predicates read only a token's class, value, type, tag and forms.
        Forms lists come from the analyzer's LRU, so an entry keeps the
        list it was computed for and a hit counts only on that very
        object: a constrained or re-analyzed token gets its own mask.
        """
        memo = self._memo
        masks = []
        union = 0
        for token in tokens:
            forms = token.forms
            key = (type(token), token.value, token.type,
                   getattr(token, 'tag', None))
            entry = memo.get(key)
            if entry is None or entry[0] is not forms:
                if len(memo) >= MASK_MEMO_SIZE:
                    memo.clear()
                entry = memo[key] = (forms, self.mask(token))
            masks.append(entry[1])
            union |= entry[1]
        return masks, union


class Lexer:
    """Tokens, morphology and masks of a text in one regex pass.

    ``Lexer(tokenizer, space)(text)`` returns what
    ``list(tokenizer(text))`` and ``space.masks`` of those tokens give
    (equal ``Token.key()``s, equal masks) for a :class:`Tokenizer` or
    :class:`MorphTokenizer`, without tagging. A token's class, type,
    morphology and mask depend only on its value and the regex group it
    matched, so a memo keyed by ``(value, group)`` holds ``(type,
    forms, mask)``: a repeated word costs one lookup and one token. The
    memo is bounded like ``MASK_MEMO_SIZE`` and cleared whenever the
    space adds a bit.
    """

    def __init__(self, tokenizer, space):
        self.regexp = tokenizer.regexp
        self.mapping = tokenizer.mapping
        self.morph = getattr(tokenizer, 'morph', None)
        self.space = space
        self._generation = space.generation
        self._memo = {}

    def __call__(self, text):
        """``(tokens, (masks, union))`` of ``text``."""
        memo = self._memo
        if self._generation != self.space.generation:
            memo.clear()
            self._generation = self.space.generation
        tokens = []
        masks = []
        union = 0
        new_span = tuple.__new__  # Span(*match.span()) without its __new__
        for match in self.regexp.finditer(text):
            value = match.group()
            key = (value, match.lastgroup)
            entry = memo.get(key)
            if entry is None:
                entry = self._entry(value, match.lastgroup)
                if len(memo) >= MASK_MEMO_SIZE:
                    memo.clear()
                memo[key] = entry
            type_, forms, mask = entry
            span = new_span(Span, match.span())
            tokens.append(Token(value, span, type_) if forms is None
                          else MorphToken(value, span, type_, forms))
            masks.append(mask)
            union |= mask
        return tokens, (masks, union)

    def _entry(self, value, group):
        type_ = self.mapping[group]
        forms = None
        token = Token(value, Span(0, len(value)), type_)
        if type_ == RU and self.morph is not None:
            forms = self.morph(value)
            token = token.morphed(forms)
        return type_, forms, self.space.mask(token)


def _required_sets(start, rules, bits):
    """Bit sets every match of ``start`` meets (see ``_build_first``).

    A match meets a set when the mask of one of its tokens has a bit of
    it. ``rules`` are the BNF rules reachable from ``start`` and
    ``bits`` the space's matcher bits. A gazetteer start rule gets no
    set: the start pre-scan of ``_chart_tokens`` already tests its bit.
    """
    derived = {id(r): [] for r in rules}

    def production_sets(prod):
        out = []
        for term in prod.terms:
            if type(term) is BNFRuleType:
                found = derived[id(term)]
            elif id(term) in bits:
                # a terminal, or a gazetteer rule used atomically: a
                # match of it starts on a token with its bit
                found = (bits[id(term)],)
            else:
                found = ()  # a gazetteer no FIRST set registered
            for s in found:
                if s not in out:
                    out.append(s)
        return out

    # Bottom-up from "no sets": a round derives sets that hold for every
    # match given that the current ones do, so every round is sound and
    # stopping early only weakens the result. A rule ORs the i-th set of
    # each production; zip stops at the shortest, so a nullable rule (an
    # empty production has no set) gives none. Rules are listed parents
    # first, so one round settles most grammars; the bound stops a
    # recursive one that does not settle.
    for _ in range(len(rules) + 1):
        changed = False
        for r in reversed(rules):
            sets = [reduce(or_, column) for column in
                    zip(*map(production_sets, r.productions))]
            if sets != derived[id(r)]:
                derived[id(r)] = sets
                changed = True
        if not changed:
            break
    return derived.get(id(start), [])


class Parser:
    """Compiled grammar + tokenizer context; reusable across documents.

    Compiling is the costly part: build a parser once and reuse it (the
    extraction stages build theirs once per extractor instance, which
    ``stages.compute.map_cached`` keeps per worker process). Each
    ``findall`` call is independent and deterministic. Parsers given the
    same ``space`` share FIRST bits and the token-mask memo.
    """

    def __init__(self, rule, tokenizer=None, tagger=None, max_states=None,
                 space=None):
        if tokenizer is None:
            tokenizer = MorphTokenizer()
        if not isinstance(tokenizer, Tokenizer):
            raise TypeError(type(tokenizer))
        self.tokenizer = tokenizer
        self.tagger = tagger if tagger is not None else PassTagger()
        self.max_states = max_states
        self.space = space if space is not None else MaskSpace()

        if not isinstance(rule, GrammarNode):
            raise TypeError(type(rule))
        context = Context(self.tokenizer, self.tagger)
        rule = rule.activate(context)
        self.rule = rule.as_bnf.start
        self._build_first()

    def _build_first(self):
        """Compile once per parser: FIRST bits, item table, plans, start bits.

        FIRST of a production is the set of terminal matchers (predicates,
        plus gazetteer rules used atomically via their token index) that
        can begin a derivation of it. Every distinct matcher gets one bit
        in ``self.space``; bit 0 is set in every token mask and in the
        bits of each nullable production, so a nullable production
        survives any lookahead.

        * ``self._table`` — the :class:`ItemTable`: the items of every
          ``(rule, rank, production)`` of a BNF rule, numbered now, and
          those of gazetteer productions as ``_gazetteer_firsts`` first
          predicts them.
        * ``self._plan[id(rule)]`` — ``(first_bits, item)`` per
          production of a BNF rule, ``item`` its dot-0 item. ``_firsts``
          keeps those whose bits meet the lookahead's mask, cached per
          rule and mask (``self._firsts_memo[id(rule)]``, which the
          chart reads through ``ItemTable.firsts``): a dropped
          production could never scan nor complete, so pruning is exact,
          and ranks keep their un-pruned indices.
        * ``self._start_bits`` — the start rule's FIRST bits (its own bit
          for a gazetteer start rule). Unless the start rule is nullable,
          a token stream none of whose masks meets them needs no chart
          (the common case for a multi-grammar extractor), and a column
          whose lookahead misses them predicts no start state.
        * ``self._relations`` — whether any rule, gazetteer rules
          included, carries an agreement relation (see ``_resolve_states``).
        * ``self._required`` — bit sets every match meets through some
          token's mask (``_required_sets``). A terminal gives its bit; a
          production the sets of its symbols; a rule, per set index, the
          OR of that set over its productions. A nullable rule gives
          none, and so does a gazetteer whose rule registered no bit.
        """
        # gazetteer rules are atomic matchers, not expanded here
        rules = []
        gazetteers = [] if type(self.rule) is BNFRuleType else [self.rule]
        seen = set()
        stack = [self.rule] if type(self.rule) is BNFRuleType else []
        while stack:
            r = stack.pop()
            if id(r) in seen:
                continue
            seen.add(id(r))
            rules.append(r)
            for prod in r.productions:
                for term in prod.terms:
                    if type(term) is BNFRuleType:
                        stack.append(term)
                    elif is_bnf_rule(term):
                        gazetteers.append(term)
        self._relations = any(
            r.relation is not None for r in rules + gazetteers)

        bit = self.space.bit
        rule_bits = {id(r): 0 for r in rules}
        nullable = set()

        def first_bits(prod):
            # FIRST bits of prod, plus bit 0 when prod derives nothing
            out = 0
            for term in prod.terms:
                if type(term) is not BNFRuleType:
                    return out | bit(term)
                out |= rule_bits[id(term)]
                if id(term) not in nullable:
                    return out
            return out | 1

        changed = True
        while changed:
            changed = False
            for r in rules:
                for prod in r.productions:
                    first = first_bits(prod)
                    if first & 1 and id(r) not in nullable:
                        nullable.add(id(r))
                        changed = True
                    if first & ~1 & ~rule_bits[id(r)]:
                        rule_bits[id(r)] |= first & ~1
                        changed = True

        plans = []
        for r in rules:
            plan = []
            listed = set()
            for rank, prod in enumerate(r.productions):
                if id(prod) not in listed:  # a repeat is predicted once
                    listed.add(id(prod))
                    plan.append((rank, prod, first_bits(prod)))
            plans.append((r, plan))
        if type(self.rule) is BNFRuleType:
            start = 0
            for _, _, first in plans[0][1]:
                start |= first
            self._start_bits = start
        else:
            self._start_bits = bit(self.rule)
        # every terminal predicate of a BNF rule gets a bit too, so a scan
        # tests the lookahead's mask instead of calling the predicate;
        # gazetteer phrase terms stay out and are called (see ItemTable)
        for r in rules:
            for prod in r.productions:
                for term in prod.terms:
                    if not term.is_rule:
                        bit(term)
        self._firsts_memo = {id(r): {} for r in rules}
        self._table = ItemTable(self.rule, self._firsts_memo)
        self._plan = {
            id(r): [(first, self._table.add(r, rank, prod, self.space.bits))
                    for rank, prod, first in plan]
            for r, plan in plans}
        self._gazetteer_items = {}
        self._required = _required_sets(self.rule, rules, self.space.bits)

    # -- chart construction --------------------------------------------------

    def _chart_tokens(self, tokens, everywhere=True, masks=None,
                      finals=None):
        """Earley columns over ``tokens`` (``[]`` when the start rule
        cannot begin anywhere): column ``i`` lists the states that stop
        before token ``i``. ``masks`` is the tokens' ``(masks, union)``
        pair from this parser's space, when already known. A ``finals``
        list gets ``((origin, stop), state)`` of every completed
        start-rule state as it completes: column by column, in push
        order within a column."""
        masks, union = masks if masks is not None else self.space.masks(tokens)
        if finals is None:
            finals = []
        start_bits = self._start_bits
        if everywhere and not start_bits & 1 and not union & start_bits:
            return []
        n = len(tokens) + 1
        columns = [[] for _ in range(n)]
        # waits[i][key]: the states of column i whose dot is before the
        # rule with id ``key``, in push order; a dict once column i is
        # reached with a state, or when a scan pushes a waiting state
        waits = [None] * n
        table = self._table
        done, wait, bits, terms = table.done, table.wait, table.bit, table.term
        memos = table.firsts
        firsts = self._firsts
        start_rule = self.rule
        start_key = id(start_rule)
        start_memo = self._firsts_memo.get(start_key, _NO_MEMO)
        # at most budget states in all: the columns before this one hold
        # ``pushed``, so this one and the next may hold ``limit`` (an int
        # bound, so that each state's check is one int comparison)
        budget = (self.max_states if self.max_states is not None
                  else maxsize)
        pushed = 0
        for ci in range(n):
            column = columns[ci]
            limit = budget - pushed
            # states go only to this column and the next one
            if ci + 1 < n:
                ahead, token, mask = columns[ci + 1], tokens[ci], masks[ci]
            else:  # end of input: a token whose mask is bit 0 only
                ahead, token, mask = (), None, 1
            starting = ci == 0 or everywhere
            if starting and mask & start_bits:
                seeds = start_memo.get(mask)
                if seeds is None:
                    seeds = firsts(start_rule, mask, token)
            else:
                seeds = ()
            if not column and not seeds:
                continue
            current = waits[ci]
            if current is None:
                current = waits[ci] = {}
            # rules already expanded here: predictions are a pure function
            # of (rule, column), so re-predicting is wasted work
            predicted = {start_key} if starting else set()
            for item, key in seeds:
                new = (item, ci, None, None)
                column.append(new)
                if key is not None:
                    waiting = current.get(key)
                    if waiting is None:
                        current[key] = [new]
                    else:
                        waiting.append(new)
            # a list iterator sees the states appended while it runs
            for state in column:
                item = state[0]
                key = done[item]
                if key is not None:
                    if key == start_key:
                        finals.append(((state[1], ci), state))
                    # complete: advance each parent waiting at the origin
                    # (when that is this column, the list grows meanwhile)
                    for parent in waits[state[1]].get(key, ()):
                        after = parent[0] + 1
                        new = (after, parent[1], parent, state)
                        column.append(new)
                        key = wait[after]
                        if key is not None:
                            waiting = current.get(key)
                            if waiting is None:
                                current[key] = [new]
                            else:
                                waiting.append(new)
                else:
                    key = wait[item]
                    if key is not None:
                        if key not in predicted:
                            predicted.add(key)
                            found = memos[item].get(mask)
                            if found is None:
                                found = firsts(terms[item], mask, token)
                            for after, key in found:
                                new = (after, ci, None, None)
                                column.append(new)
                                if key is not None:
                                    waiting = current.get(key)
                                    if waiting is None:
                                        current[key] = [new]
                                    else:
                                        waiting.append(new)
                    elif token is not None:
                        # scan: a BNF terminal's result is the lookahead's
                        # mask bit (the memo computed it with this very
                        # predicate); a gazetteer phrase term is called
                        bit = bits[item]
                        if (mask & bit if bit is not None
                                else terms[item](token)):
                            after = item + 1
                            new = (after, state[1], state, token)
                            ahead.append(new)
                            key = wait[after]
                            if key is not None:
                                following = waits[ci + 1]
                                if following is None:
                                    following = waits[ci + 1] = {}
                                waiting = following.get(key)
                                if waiting is None:
                                    following[key] = [new]
                                else:
                                    waiting.append(new)
                if len(column) + len(ahead) > limit:
                    raise StateOverflow(pushed + len(column) + len(ahead))
            pushed += len(column)
        return columns

    # No state is ever derived twice, so the chart keeps no dedup set: a
    # rule is predicted once per column from a duplicate-free plan, a
    # scan advances over a fresh token, and each completed state meets
    # each waiting parent once. Distinct (prev, child) pairs give distinct
    # (rule, production, dot, origin, children) states, so the chart is
    # the one a per-state signature dedup builds.

    def _firsts(self, rule, mask, token):
        """``(item, waiting key)`` of each dot-0 item ``rule`` predicts
        before ``token`` (None at end of input) with ``mask``."""
        memo = self._firsts_memo.get(id(rule))
        if memo is None:
            return self._gazetteer_firsts(rule, token)
        firsts = memo.get(mask)
        if firsts is None:
            # end of input has mask 1: only a nullable production, whose
            # bits hold bit 0, can complete where no token follows
            wait = self._table.wait
            firsts = memo[mask] = [(item, wait[item])
                                   for first_bits, item in self._plan[id(rule)]
                                   if first_bits & mask]
        return firsts

    def _gazetteer_firsts(self, rule, token):
        # a gazetteer rule predicts through its own token index, ranks
        # counted within that prediction; where no token follows only an
        # empty phrase could complete. Its items are numbered on first use.
        if token is None:
            predicted = [(rank, production)
                         for rank, production in enumerate(rule.productions)
                         if not production.terms]
        else:
            predicted = enumerate(rule.predict(token))
        items = self._gazetteer_items
        table = self._table
        firsts = []
        for rank, production in predicted:
            key = (id(rule), rank, id(production))
            item = items.get(key)
            if item is None:
                item = items[key] = table.add(rule, rank, production, None)
            firsts.append((item, table.wait[item]))
        return firsts

    def view(self, state):
        """``state`` as a :class:`StateView` (debug aid)."""
        table = self._table
        item = state[0]
        return StateView(table.rule[item], table.production[item],
                         table.rank[item], table.dot[item], *state[1:])

    # -- public API ----------------------------------------------------------

    def tokenize(self, text):
        """Tokenize + tag once; reusable across parsers sharing a tokenizer."""
        return list(self.tagger(self.tokenizer(text)))

    def _chart(self, text, everywhere=True):
        """``(tokens, columns, finals)`` of ``text``: ``finals`` as
        ``_chart_tokens`` fills them."""
        tokens = self.tokenize(text)
        finals = []
        columns = self._chart_tokens(tokens, everywhere, finals=finals)
        return tokens, columns, finals

    def findall_tokens(self, tokens, masks=None):
        """``findall`` over a pre-tokenized stream: a :class:`Match` per
        :meth:`findall_spans` pair, all reading one ``leaves`` map.

        Lets an extraction worker running N grammars tokenize (and run
        morphology) once per document instead of once per grammar; with
        ``masks`` (``self.space.masks(tokens)``) it also computes token
        masks once for every parser on the space. A stream whose union
        mask misses a required set (``_build_first``) gets no chart.
        """
        leaves = {}
        return [Match(self, tokens, span, state, leaves, leaves.get(span))
                for span, state in self.findall_spans(tokens, masks, leaves)]

    def findall_spans(self, tokens, masks, leaves):
        """The matches of ``findall_tokens`` as ``(span, state)`` pairs.

        ``span`` is the match's chart span ``(i, j)``: it consumes the
        tokens ``i .. j - 1``. ``state`` is the span's chosen final
        state (its only one, or the first of its ranked trees that is
        valid), from which :meth:`interpret` and :meth:`payload` fold
        with no :class:`ParseNode`, :class:`ParseTree` or
        :class:`Match`; only a span with several final states builds
        trees, to rank them. ``masks`` is ``self.space.masks(tokens)``,
        or None to compute it here. The agreement pass of a grammar with
        relations writes into the ``leaves`` dict the tokens it
        constrains (keyed by ``id`` of the scanning state) and, under
        each span it finds valid, that span's leaf tokens as they stand
        right after its pass; pass the same dict to the folds.
        """
        if masks is None:
            masks = self.space.masks(tokens)
        union = masks[1]
        for required in self._required:
            if not union & required:
                return []
        finals = []
        self._chart_tokens(tokens, masks=masks, finals=finals)
        return self._resolve_states(finals, leaves)

    def interpret(self, span, state, leaves):
        """The interpretation result of a :meth:`findall_spans` pair,
        folded straight from the chart: what the ``interpret()`` of the
        state's pruned tree gives. ``leaves`` is the dict given to the
        ``findall_spans`` call that returned the pair: the fold reads
        from it the tokens a relation constrained. Raises what the fold
        raises."""
        if self.rule.interpretator is None:
            raise ValueError('root rule has no .interpretation(...)')
        return _fold_state(state, span[1], self._table, leaves)

    def payload(self, span, state, leaves):
        """``interp.result_payload`` of :meth:`interpret`: the fact's
        ``as_json`` dict, or the normalized value, folded through the
        item table's payload plans with no result object; a case a plan
        does not model (``interp.Unplanned``) folds through result
        objects. Raises what :meth:`interpret` raises."""
        if self.rule.interpretator is None:
            raise ValueError('root rule has no .interpretation(...)')
        table = self._table
        try:
            return plan_payload(_fold_state(state, span[1], table, leaves,
                                            table.plan))
        except Unplanned:
            return result_payload(self.interpret(span, state, leaves))

    def findall(self, text):
        """All non-overlapping matches, maximum-coverage, span order."""
        return self.findall_tokens(self.tokenize(text))

    def _resolve_states(self, finals, leaves):
        """``(span, state)`` per match, as the reference picks them (sort
        each span's final trees, take its first valid one, select spans),
        with each span's chosen final state: its only one, or the first
        in the order of its ranked trees that is valid. For a grammar
        with relations every span is checked in order (``_agree``), as
        its constrained tokens go into ``leaves``, and ``leaves`` keeps
        each valid span's leaf tokens under the span; without relations
        every state covering a token is valid, so only the kept spans
        are looked at. ``finals`` are the ``((origin, stop), state)``
        pairs ``_chart_tokens`` fills."""
        by_span, spans = _group_spans(finals)
        table = self._table
        spans = [span for span in spans if span[0] < span[1]]
        if not self._relations:
            return [_ranked(by_span[span], table)[0]
                    for span in best_nonoverlapping(spans)]
        chosen = {}
        for span in spans:
            for _, state in _ranked(by_span[span], table):
                agreed = _agree(state, span[1], leaves, table)
                if agreed is not None:
                    chosen[span] = state
                    leaves[span] = agreed
                    break
        return [(span, chosen[span])
                for span in best_nonoverlapping(list(chosen))]

    def _matches(self, tokens, finals, leaves):
        """A :class:`Match` per valid pair of ``finals``, in their order:
        one that covers a token and, for a grammar with relations, passes
        its agreement pass (``_agree``), which writes into ``leaves``."""
        for span, state in finals:
            if span[0] < span[1]:
                agreed = None
                if self._relations:
                    agreed = _agree(state, span[1], leaves, self._table)
                    if agreed is None:
                        continue
                yield Match(self, tokens, span, state, leaves, agreed)

    def find(self, text):
        for match in self.findall(text):
            return match
        return None

    def trees(self, text):
        """All final parse trees, deterministic order (debug aid;
        feeds ``kernel.dot.tree_as_dot``)."""
        _, _, finals = self._chart(text)
        return sorted(_trees(finals, self._table))

    def explain(self, text):
        """Chart dump as text — the reference's chart pretty-printing
        (parser.py:107-124): per column, its token and every Earley
        state with a dotted production. Debug aid only."""
        from .dot import chart_source
        tokens, columns, _ = self._chart(text)
        return '\n'.join(chart_source(columns, tokens, self.view))

    def match(self, text):
        """Whole-string parse: the first valid of the final states that
        stop after the last token, in the order of their trees."""
        tokens, _, finals = self._chart(text, everywhere=False)
        last = [final for final in finals if final[0][1] == len(tokens)]
        return next(self._matches(tokens, _ranked(last, self._table), {}),
                    None)

    def extract(self, text):
        """Every (possibly overlapping) valid final state, in chart
        order, as its :class:`Match` — debug mode."""
        tokens, _, finals = self._chart(text)
        yield from self._matches(tokens, finals, {})
