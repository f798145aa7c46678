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
  ``(rank, production, first_bits)``. Prediction keeps the productions
  whose bits meet the lookahead's mask, cached per (rule, mask); the
  start-rule pre-scan is one AND on the union of the masks. No state is
  ever derived twice, so columns keep no per-state dedup keys (see
  ``_predict``). Each column but the end-of-input one holds the same
  states, in the same order, as plain Earley prediction with per-state
  dedup would push: the state budget and tree tie-breaking count on that.
* End of input is a token whose mask is bit 0 only. The last column
  predicts the start rule only when it is nullable, and keeps only the
  nullable productions of every BNF rule it predicts, as any other
  column keeps those whose FIRST bits meet its lookahead; gazetteer
  rules are predicted there as before. A production that needs a token
  can never complete where none follows, so matches are unchanged. Only
  the last column differs from plain Earley: it holds a subsequence of
  that column's states, so a chart's budget count drops by at most the
  number of the grammar's dotted items.
* Shared masks. The FIRST bits and the mask memo live in a
  :class:`MaskSpace`; parsers built on one space (the grammars of one
  extractor) share them, so a token stream's masks are computed once
  for all of them and passed to each (``findall_tokens(tokens, masks)``).
* Lazy parse forest. A state holds its production's rank, the state it
  advanced from (``prev``) and what it advanced over (``child``: a
  :class:`ParseLeaf` or the completed :class:`EarleyState`); the chart
  allocates no :class:`ParseNode`. Trees are built on demand by walking
  ``prev`` back (``_node``), memoized per chart by state, so parents
  sharing a completed child share its node as they did when every
  state carried one. ``_resolve`` groups final states by span and
  builds and sorts trees only within a span; for a grammar without
  relations it prepares a match only for the spans
  ``best_nonoverlapping`` keeps, and with no agreement pass
  (``_prepare_plain``).
* Acyclic chart. A state holds its origin and stop column as indices,
  not column objects, and the tree passes are module-level functions,
  not recursive closures; parsing a document leaves no reference cycle,
  so the cyclic GC finds nothing to free.
* Scans by mask bit. Every terminal predicate of a BNF rule has a bit in
  the :class:`MaskSpace`, not only the FIRST ones, so a scan tests the
  lookahead's mask instead of calling the predicate (``_scan``); the
  predicate's ``constrain`` runs only on a successful scan. Gazetteer
  phrase terms get no bit and are called, so a long phrase list does not
  widen every token's mask.
* Required sets. ``_build_first`` also derives bit sets every match must
  meet (each set through at least one token's mask): for money, an INT
  and a currency token. ``findall`` and ``findall_tokens`` test them
  against the union of the turn's masks and return no matches without
  building a chart; the skip is exact, since a rejected turn's chart has
  no final state. ``_chart_tokens`` does not test them, so it still
  builds every chart the start pre-scan lets through.
* One-pass trees. A kept span with a single final state needs no
  ranking, so a grammar without relations builds its pruned tree straight
  from the ``prev`` chain (``_pruned``), with no unpruned node. The
  interpretation fold walks the tree with an accumulator, not a
  generator per node.
* Lazy match tokens. A chart span ``(i, j)`` consumes exactly the tokens
  of columns ``i + 1 .. j``, so a :class:`Match` takes its char span
  from those columns and walks its tree for ``tokens`` only when asked
  (a grammar with relations takes them when it constrains the tree).
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .grammar import BNFRule as BNFRuleType
from .grammar import GrammarNode, is_bnf_rule
from .gazetteer import GazProd
from .interp import Chain
from .records import Span, best_nonoverlapping
from .relations import AgreementGraph
from .tagging import PassTagger
from .tokenizer import MorphTokenizer, Tokenizer


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
    def main_token(self):
        return self.children[self.production.main].main_token

    @property
    def interpretator(self):
        return self.rule.interpretator

    @property
    def relation(self):
        return self.rule.relation

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

    children = ()
    interpretator = None
    relation = None

    def __init__(self, predicate, token):
        self.predicate = predicate
        self.token = token

    @property
    def main_token(self):
        return self.token


def walk_leaves(node):
    stack = [node]
    out = []
    while stack:
        item = stack.pop()
        if isinstance(item, ParseLeaf):
            out.append(item)
        else:
            stack.extend(reversed(item.children))
    return out


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

    # -- tree passes ---------------------------------------------------------

    def prune_empty(self):
        """Drop epsilon branches (nodes whose children all vanished)."""
        root = _prune(self.root)
        return ParseTree(root, self.range) if root is not None else None

    def collect_relations(self):
        graph = AgreementGraph()
        stack = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, ParseLeaf):
                continue
            if item.relation is not None:
                graph.add(item.relation, item.main_token)
            stack.extend(reversed(item.children))
        return graph

    def constrain(self, graph):
        for leaf in walk_leaves(self.root):
            leaf.token = graph.constrain(leaf.token)
        return self

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

class EarleyState:
    __slots__ = ('rule', 'production', 'dot', 'origin', 'column', 'rank',
                 'prev', 'child', 'completed', 'next_term')

    def __init__(self, rule, production, dot, origin, column, rank, prev,
                 child):
        self.rule = rule
        self.production = production
        self.dot = dot
        # start and stop column indices: ints, not column objects, so
        # the chart (columns hold states) has no reference cycle
        self.origin = origin
        self.column = column
        self.rank = rank         # index of production in rule.productions
        # the state this one advanced from (None at dot 0) and the
        # ParseLeaf or completed EarleyState it advanced over
        self.prev = prev
        self.child = child
        # plain attributes, not properties: the chart loop reads these
        # millions of times per batch
        terms = production.terms
        if dot >= len(terms):
            self.completed = True
            self.next_term = None
        else:
            self.completed = False
            self.next_term = terms[dot]


class EarleyColumn:
    __slots__ = ('index', 'token', 'mask', 'states', 'waiting', 'predicted')

    def __init__(self, index, token, mask):
        self.index = index
        self.token = token
        # FIRST-matcher bits of ``token`` (see Parser._build_first)
        self.mask = mask
        self.states = []
        # waiting[id(rule)] -> states whose dot is before that rule
        self.waiting = {}
        # rules already expanded at this column (predictions are a pure
        # function of (rule, column), so re-predicting is wasted work)
        self.predicted = set()

    def push(self, state):
        self.states.append(state)
        term = state.next_term
        if term is not None and term.is_rule:
            self.waiting.setdefault(id(term), []).append(state)


def _node(state, memo):
    """The parse node of ``state``, built from its ``prev`` chain.

    ``memo`` (one per chart) maps a state to its node, so every parent of
    a completed state gets the same child node object.
    """
    node = memo.get(state)
    if node is None:
        children = []
        item = state
        while item.prev is not None:
            child = item.child
            children.append(
                child if type(child) is ParseLeaf else _node(child, memo))
            item = item.prev
        children.reverse()
        node = memo[state] = ParseNode(
            state.rule, state.production, state.rank, children)
    return node


def _pruned(state):
    """``_prune(_node(state))`` in one pass over the ``prev`` chain: the
    pruned tree of a state, or None when it covers no token."""
    children = []
    item = state
    while item.prev is not None:
        child = item.child
        if type(child) is not ParseLeaf:
            child = _pruned(child)
        if child is not None:
            children.append(child)
        item = item.prev
    if not children:
        return None
    children.reverse()
    return ParseNode(state.rule, state.production, state.rank, children)


def _trees(states):
    """One ParseTree per completed start-rule state, sharing one memo."""
    memo = {}
    return [ParseTree(_node(s, memo), (s.origin, s.column)) for s in states]


def _char_span(columns, range_):
    """Char span of the chart span ``(i, j)``: it consumes exactly the
    tokens of columns ``i + 1 .. j``."""
    start, stop = range_
    return Span(columns[start + 1].token.span.start,
                columns[stop].token.span.stop)


class Match:
    """One resolved extraction: char span, lazily walked tokens, lazily
    interpreted fact."""

    __slots__ = ('tree', 'span', '_tokens')

    def __init__(self, tree, span, tokens=None):
        self.tree = tree
        self.span = span
        self._tokens = tokens

    @property
    def tokens(self):
        """The tree's leaf tokens, walked on first use."""
        if self._tokens is None:
            self._tokens = [leaf.token for leaf in walk_leaves(self.tree.root)]
        return self._tokens

    @property
    def rule(self):
        return self.tree.root.rule

    @property
    def fact(self):
        result = self.tree.interpret()
        value = result.normalized
        return value

    def __repr__(self):
        return f'Match({[t.value for t in self.tokens]!r}, {self.span!r})'


def _prepare_plain(tree, columns):
    """``_prepare_match`` for a grammar without relations: its agreement
    graph is empty, so ``validate`` is True and ``constrain`` a no-op."""
    tree = tree.prune_empty()
    if tree is None:
        return None
    return Match(tree, _char_span(columns, tree.range))


def _prepare_match(tree, columns):
    tree = tree.prune_empty()
    if tree is None:
        return None
    graph = tree.collect_relations()
    if not graph.validate():
        return None
    tree.constrain(graph)
    # the tokens as constrained now: a later span's constrain() may
    # rewrite leaves this tree shares
    tokens = [leaf.token for leaf in walk_leaves(tree.root)]
    return Match(tree, _char_span(columns, tree.range), tokens)


class MaskSpace:
    """FIRST-matcher bits and token-mask memo, shared by a set of parsers.

    Every distinct matcher any parser on the space registers (``bit``)
    gets one bit; bit 0 is set in every token mask. A standalone
    :class:`Parser` owns a space of its own; the grammars of one
    extractor share one, so ``masks`` runs once per token stream for
    all of them.
    """

    def __init__(self):
        # (bit, matcher, is_gazetteer); a token's mask is the OR of the
        # bits of the matchers it satisfies
        self.matchers = []
        # id(matcher) -> bit; the matchers list keeps the ids alive
        self.bits = {}
        self._memo = {}

    def bit(self, matcher):
        bit = self.bits.get(id(matcher))
        if bit is None:
            bit = self.bits[id(matcher)] = 2 << len(self.bits)
            self.matchers.append((bit, matcher, is_bnf_rule(matcher)))
            self._memo.clear()  # cached masks lack the new bit
        return bit

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
                mask = 1
                for bit, matcher, gazetteer in self.matchers:
                    if (len(matcher.predict(token)) > 0 if gazetteer
                            else matcher(token)):
                        mask |= bit
                if len(memo) >= MASK_MEMO_SIZE:
                    memo.clear()
                entry = memo[key] = (forms, mask)
            masks.append(entry[1])
            union |= entry[1]
        return masks, union


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
        """Compile prediction once per parser: FIRST bits, plans, start bits.

        FIRST of a production is the set of terminal matchers (predicates,
        plus gazetteer rules used atomically via their token index) that
        can begin a derivation of it. Every distinct matcher gets one bit
        in ``self.space``; bit 0 is set in every token mask and in the
        bits of each nullable production, so a nullable production
        survives any lookahead.

        * ``self._plan[id(rule)]`` — ``(rank, production, first_bits)``
          per production of a BNF rule. ``_predict`` keeps those whose
          bits meet the lookahead's mask, cached per ``(id(rule), mask)``:
          a dropped production could never scan nor complete, so pruning
          is exact, and ranks keep their un-pruned indices.
        * ``self._start_bits`` — the start rule's FIRST bits (its own bit
          for a gazetteer start rule). Unless the start rule is nullable,
          a token stream none of whose masks meets them needs no chart
          (the common case for a multi-grammar extractor), and a column
          whose lookahead misses them predicts no start state.
        * ``self._relations`` — whether any rule, gazetteer rules
          included, carries an agreement relation (see ``_resolve``).
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

        self._plan = {}
        for r in rules:
            plan = self._plan[id(r)] = []
            listed = set()
            for rank, prod in enumerate(r.productions):
                if id(prod) not in listed:  # a repeat is predicted once
                    listed.add(id(prod))
                    plan.append((rank, prod, first_bits(prod)))
        if type(self.rule) is BNFRuleType:
            start = 0
            for _, _, first in self._plan[id(self.rule)]:
                start |= first
            self._start_bits = start
        else:
            self._start_bits = bit(self.rule)
        # every terminal predicate of a BNF rule gets a bit too, so a scan
        # tests the lookahead's mask instead of calling the predicate;
        # gazetteer phrase terms stay out and are called (see ``_scan``)
        for r in rules:
            for prod in r.productions:
                for term in prod.terms:
                    if not term.is_rule:
                        bit(term)
        self._pairs = {}
        self._required = _required_sets(self.rule, rules, self.space.bits)

    def _masks(self, tokens):
        """``(masks, union)`` of ``tokens`` in this parser's space."""
        return self.space.masks(tokens)

    # -- chart construction --------------------------------------------------

    def _chart(self, text, everywhere=True):
        return self._chart_tokens(self.tokenize(text), everywhere)

    def _chart_tokens(self, tokens, everywhere=True, masks=None):
        """Earley columns over ``tokens`` (``[]`` when the start rule
        cannot begin anywhere). ``masks`` is the tokens' ``(masks,
        union)`` pair from this parser's space, when already known."""
        masks, union = masks if masks is not None else self._masks(tokens)
        start_bits = self._start_bits
        if everywhere and not start_bits & 1 and not union & start_bits:
            return []
        columns = [EarleyColumn(0, None, 0)]
        for i, token in enumerate(tokens):
            columns.append(EarleyColumn(i + 1, token, masks[i]))

        budget = self.max_states
        done = 0  # states in the columns already processed
        n = len(columns)
        start_rule = self.rule
        for ci in range(n):
            column = columns[ci]
            predicted = column.predicted
            lookahead = columns[ci + 1] if ci + 1 < n else None
            # states go only to this column and the next one
            if lookahead is not None:
                ahead, mask = lookahead.states, lookahead.mask
            else:  # end of input: a token whose mask is bit 0 only
                ahead, mask = (), 1
            if ci == 0 or everywhere:
                predicted.add(id(start_rule))
                if mask & start_bits:
                    self._predict(column, lookahead, start_rule)
            si = 0
            states = column.states
            while si < len(states):
                state = states[si]
                si += 1
                if state.completed:
                    self._complete(columns, column, state)
                else:
                    term = state.next_term
                    if term.is_rule:
                        # inline predicted-memo check: most states wait
                        # on an already-expanded rule
                        tid = id(term)
                        if tid not in predicted:
                            predicted.add(tid)
                            self._predict(column, lookahead, term)
                    elif lookahead is not None:
                        self._scan(lookahead, term, state)
                if budget is not None and (
                        done + len(states) + len(ahead) > budget):
                    raise StateOverflow(done + len(states) + len(ahead))
            done += len(states)
        return columns

    # No state is ever derived twice, so the chart keeps no dedup set: a
    # rule is predicted once per column from a duplicate-free plan, a
    # scan advances over a fresh leaf, and each completed state meets
    # each waiting parent once. Distinct (prev, child) pairs give distinct
    # (rule, production, dot, origin, children) states, so the chart is
    # the one a per-state signature dedup builds.

    def _predict(self, column, lookahead, rule):
        if type(rule) is not BNFRuleType:
            # gazetteer rules prune via their own token index
            pairs = enumerate(rule.productions if lookahead is None
                              else rule.predict(lookahead.token))
        else:
            # end of input has mask 1: only a nullable production, whose
            # bits hold bit 0, can complete where no token follows
            mask = lookahead.mask if lookahead is not None else 1
            key = (id(rule), mask)
            pairs = self._pairs.get(key)
            if pairs is None:
                pairs = self._pairs[key] = [
                    (rank, production)
                    for rank, production, first_bits in self._plan[id(rule)]
                    if first_bits & mask]
        ci = column.index
        for rank, production in pairs:
            column.push(EarleyState(
                rule, production, 0, ci, ci, rank, None, None))

    def _scan(self, lookahead, predicate, state):
        # a BNF terminal's result is the lookahead's mask bit (the memo
        # computed it with this very predicate); a gazetteer phrase term
        # has no bit and is called
        bit = self.space.bits.get(id(predicate))
        token = lookahead.token
        if (lookahead.mask & bit) if bit is not None else predicate(token):
            leaf = ParseLeaf(predicate, predicate.constrain(token))
            lookahead.push(EarleyState(
                state.rule, state.production, state.dot + 1,
                state.origin, lookahead.index, state.rank, state, leaf))

    def _complete(self, columns, column, completed):
        waiting = columns[completed.origin].waiting.get(id(completed.rule))
        if not waiting:
            return
        ci = column.index
        wi = 0
        while wi < len(waiting):
            state = waiting[wi]
            wi += 1
            column.push(EarleyState(
                state.rule, state.production, state.dot + 1,
                state.origin, ci, state.rank, state, completed))

    def _final_states(self, columns, everywhere=True):
        search = columns if everywhere else columns[-1:]
        start_rule = self.rule
        for column in search:
            for s in column.states:
                if s.completed and s.rule is start_rule:
                    yield s

    # -- public API ----------------------------------------------------------

    def tokenize(self, text):
        """Tokenize + tag once; reusable across parsers sharing a tokenizer."""
        return list(self.tagger(self.tokenizer(text)))

    def findall_tokens(self, tokens, masks=None):
        """``findall`` over a pre-tokenized stream.

        Lets an extraction worker running N grammars tokenize (and run
        morphology) once per document instead of once per grammar; with
        ``masks`` (``self.space.masks(tokens)``) it also computes token
        masks once for every parser on the space. A stream whose union
        mask misses a required set (``_build_first``) gets no chart.
        """
        if masks is None:
            masks = self._masks(tokens)
        union = masks[1]
        for required in self._required:
            if not union & required:
                return []
        return self._resolve(self._chart_tokens(tokens, masks=masks))

    def findall(self, text):
        """All non-overlapping matches, maximum-coverage, span order."""
        return self.findall_tokens(self.tokenize(text))

    def _resolve(self, columns):
        """Matches as the reference picks them (sort the final trees,
        prepare each span's first valid tree, select spans), building
        trees only for the spans that need them."""
        by_span = {}
        for state in self._final_states(columns):
            span = (state.origin, state.column)
            by_span.setdefault(span, []).append(state)
        if not by_span:
            return []
        # ParseTree order: start ascending, the longer span first
        spans = sorted(by_span, key=lambda span: (span[0], -span[1]))
        memo = {}

        def ranked(span):
            return sorted(ParseTree(_node(s, memo), span)
                          for s in by_span[span])

        if not self._relations:
            # Without relations a tree is valid iff it covers a token, and
            # preparing it rewrites no token: prepare only the kept spans,
            # with no agreement pass. A span with one final state needs no
            # ranking, so its pruned tree is built straight from the chart.
            matches = []
            for span in best_nonoverlapping(
                    [s for s in spans if s[0] < s[1]]):
                states = by_span[span]
                if len(states) == 1:
                    matches.append(Match(ParseTree(_pruned(states[0]), span),
                                         _char_span(columns, span)))
                else:
                    matches.append(_prepare_plain(ranked(span)[0], columns))
            return matches
        # constrain() rewrites leaves other spans' trees share, so every
        # span is prepared, in order, before any is dropped
        valid = []
        chosen = {}
        for span in spans:
            for tree in ranked(span):
                match = _prepare_match(tree, columns)
                if match is not None:
                    valid.append(span)
                    chosen[span] = match
                    break
        return [chosen[span] for span in best_nonoverlapping(valid)]

    def find(self, text):
        for match in self.findall(text):
            return match
        return None

    def trees(self, text):
        """All final parse trees, deterministic order (debug aid;
        feeds ``kernel.dot.tree_as_dot``)."""
        return sorted(_trees(self._final_states(self._chart(text))))

    def explain(self, text):
        """Chart dump as text — the reference's chart pretty-printing
        (parser.py:107-124): per column, its token and every Earley
        state with a dotted production. Debug aid only."""
        from .dot import chart_source
        columns = self._chart(text)
        return '\n'.join(chart_source(columns))

    def match(self, text):
        """Whole-string parse; best tree only."""
        columns = self._chart(text, everywhere=False)
        final = self._final_states(columns, everywhere=False)
        for tree in sorted(_trees(final)):
            m = _prepare_match(tree, columns)
            if m is not None:
                return m
        return None

    def extract(self, text):
        """Every (possibly overlapping) match — debug mode."""
        columns = self._chart(text)
        for tree in _trees(self._final_states(columns)):
            m = _prepare_match(tree, columns)
            if m is not None:
                yield m
