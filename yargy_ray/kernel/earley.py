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
  ``_predict``). Each column holds the same states, in the same order,
  as plain Earley prediction with per-state dedup would push: the state
  budget and tree tie-breaking count on that.
"""

from __future__ import annotations

from .grammar import BNFRule as BNFRuleType
from .grammar import GrammarNode, is_bnf_rule
from .gazetteer import GazProd
from .interp import Chain
from .records import best_nonoverlapping, tokens_span
from .relations import AgreementGraph
from .tagging import PassTagger
from .tokenizer import MorphTokenizer, Tokenizer


# token-feature -> mask memo entries kept per parser (cleared when full)
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

    def attach(self, child):
        return ParseNode(
            self.rule, self.production, self.rank, self.children + [child])

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
        def prune(item):
            if isinstance(item, ParseLeaf):
                return item
            children = [c for c in map(prune, item.children) if c is not None]
            if not children:
                return None
            return ParseNode(item.rule, item.production, item.rank, children)

        root = prune(self.root)
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

        def significant(item):
            # flatten away nodes without interpretators
            for child in item.children:
                if isinstance(child, ParseLeaf) or child.interpretator:
                    yield child
                else:
                    yield from significant(child)

        def fold(item):
            if isinstance(item, ParseLeaf):
                return item.token
            values = [fold(c) for c in significant(item)]
            key = (
                item.production.value
                if isinstance(item.production, GazProd)
                else None
            )
            return item.interpretator(values, key)

        return fold(self.root)


# ---------------------------------------------------------------------------
# Chart
# ---------------------------------------------------------------------------

class EarleyState:
    __slots__ = ('rule', 'production', 'dot', 'origin', 'column', 'node',
                 'completed', 'next_term')

    def __init__(self, rule, production, dot, origin, column, node):
        self.rule = rule
        self.production = production
        self.dot = dot
        self.origin = origin     # start column
        self.column = column     # stop column
        self.node = node
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


class Match:
    """One resolved extraction: tokens, char span, lazily interpreted fact."""

    __slots__ = ('tree', 'tokens', 'span')

    def __init__(self, tree):
        self.tree = tree
        self.tokens = [leaf.token for leaf in walk_leaves(tree.root)]
        self.span = tokens_span(self.tokens)

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


def _prepare_match(tree):
    tree = tree.prune_empty()
    if tree is None:
        return None
    graph = tree.collect_relations()
    if not graph.validate():
        return None
    tree.constrain(graph)
    return Match(tree)


class Parser:
    """Compiled grammar + tokenizer context; reusable across documents.

    Build once per Ray worker (``__init__`` of the extraction callable);
    each ``findall`` call is independent and deterministic.
    """

    def __init__(self, rule, tokenizer=None, tagger=None, max_states=None):
        if tokenizer is None:
            tokenizer = MorphTokenizer()
        if not isinstance(tokenizer, Tokenizer):
            raise TypeError(type(tokenizer))
        self.tokenizer = tokenizer
        self.tagger = tagger if tagger is not None else PassTagger()
        self.max_states = max_states

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
        can begin a derivation of it. Every distinct matcher gets one bit;
        bit 0 is set in every token mask and in the bits of each nullable
        production, so a nullable production survives any lookahead.

        * ``self._matchers`` — ``(bit, matcher, is_gazetteer)``; a token's
          mask (``_masks``) is the OR of the bits it satisfies.
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
        """
        # gazetteer rules are atomic matchers, not expanded here
        rules = []
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

        bits = {}
        self._matchers = []

        def bit(matcher):
            if id(matcher) not in bits:
                bits[id(matcher)] = 2 << len(bits)
                self._matchers.append(
                    (bits[id(matcher)], matcher, is_bnf_rule(matcher)))
            return bits[id(matcher)]

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
        self._mask_memo = {}
        self._pairs = {}

    def _masks(self, tokens):
        """FIRST mask per token, and their union; memoized by token features.

        Predicates read only a token's class, value, type, tag and forms.
        Forms lists come from the analyzer's LRU, so an entry keeps the
        list it was computed for and a hit counts only on that very
        object: a constrained or re-analyzed token gets its own mask.
        """
        memo = self._mask_memo
        masks = []
        union = 0
        for token in tokens:
            forms = token.forms
            key = (type(token), token.value, token.type,
                   getattr(token, 'tag', None))
            entry = memo.get(key)
            if entry is None or entry[0] is not forms:
                mask = 1
                for bit, matcher, gazetteer in self._matchers:
                    if (len(matcher.predict(token)) > 0 if gazetteer
                            else matcher(token)):
                        mask |= bit
                if len(memo) >= MASK_MEMO_SIZE:
                    memo.clear()
                entry = memo[key] = (forms, mask)
            masks.append(entry[1])
            union |= entry[1]
        return masks, union

    # -- chart construction --------------------------------------------------

    def _chart(self, text, everywhere=True):
        return self._chart_tokens(self.tokenize(text), everywhere)

    def _chart_tokens(self, tokens, everywhere=True):
        masks, union = self._masks(tokens)
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
            ahead = lookahead.states if lookahead is not None else ()
            if ci == 0 or everywhere:
                predicted.add(id(start_rule))
                if lookahead is None or lookahead.mask & start_bits:
                    self._predict(column, lookahead, start_rule)
            si = 0
            states = column.states
            while si < len(states):
                state = states[si]
                si += 1
                if state.completed:
                    self._complete(column, state)
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
    # scan attaches a fresh leaf, and each completed state meets each
    # waiting parent once. Distinct (parent, child) pairs give distinct
    # (rule, production, dot, origin, children) states, so the chart is
    # the one a per-state signature dedup builds.

    def _predict(self, column, lookahead, rule):
        if type(rule) is not BNFRuleType:
            # gazetteer rules prune via their own token index
            pairs = enumerate(rule.productions if lookahead is None
                              else rule.predict(lookahead.token))
        elif lookahead is None:
            pairs = [(rank, prod) for rank, prod, _ in self._plan[id(rule)]]
        else:
            key = (id(rule), lookahead.mask)
            pairs = self._pairs.get(key)
            if pairs is None:
                mask = lookahead.mask
                pairs = self._pairs[key] = [
                    (rank, production)
                    for rank, production, first_bits in self._plan[id(rule)]
                    if first_bits & mask]
        for rank, production in pairs:
            node = ParseNode(rule, production, rank, [])
            column.push(EarleyState(rule, production, 0, column, column, node))

    def _scan(self, lookahead, predicate, state):
        # scan predicates are mostly cheap eq-compares: calling them
        # directly was measured faster than memoizing their result
        token = lookahead.token
        if predicate(token):
            leaf = ParseLeaf(predicate, predicate.constrain(token))
            lookahead.push(EarleyState(
                state.rule, state.production, state.dot + 1,
                state.origin, lookahead, state.node.attach(leaf)))

    def _complete(self, column, completed):
        waiting = completed.origin.waiting.get(id(completed.rule))
        if not waiting:
            return
        child = completed.node
        wi = 0
        while wi < len(waiting):
            state = waiting[wi]
            wi += 1
            column.push(EarleyState(
                state.rule, state.production, state.dot + 1,
                state.origin, column, state.node.attach(child)))

    def _final_trees(self, columns, everywhere=True):
        search = columns if everywhere else columns[-1:]
        for column in search:
            for s in column.states:
                if s.completed and id(s.rule) == id(self.rule):
                    yield ParseTree(s.node, (s.origin.index, s.column.index))

    # -- public API ----------------------------------------------------------

    def tokenize(self, text):
        """Tokenize + tag once; reusable across parsers sharing a tokenizer."""
        return list(self.tagger(self.tokenizer(text)))

    def findall_tokens(self, tokens):
        """``findall`` over a pre-tokenized stream.

        Lets an extraction worker running N grammars tokenize (and run
        morphology) once per document instead of once per grammar.
        """
        return self._resolve(self._chart_tokens(tokens))

    def findall(self, text):
        """All non-overlapping matches, maximum-coverage, span order."""
        return self._resolve(self._chart(text))

    def _resolve(self, columns):
        spans = []
        by_span = {}
        for tree in sorted(self._final_trees(columns)):
            span = tree.range
            if span in by_span:
                continue
            match = _prepare_match(tree)
            if match is not None:
                spans.append(span)
                by_span[span] = match
        for span in best_nonoverlapping(spans):
            yield by_span[span]

    def find(self, text):
        for match in self.findall(text):
            return match
        return None

    def trees(self, text):
        """All final parse trees, deterministic order (debug aid;
        feeds ``kernel.dot.tree_as_dot``)."""
        return sorted(self._final_trees(self._chart(text)))

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
        for tree in sorted(self._final_trees(columns, everywhere=False)):
            m = _prepare_match(tree)
            if m is not None:
                return m
        return None

    def extract(self, text):
        """Every (possibly overlapping) match — debug mode."""
        for tree in self._final_trees(self._chart(text)):
            m = _prepare_match(tree)
            if m is not None:
                yield m
