"""Declarative grammar DSL and its compiler to a BNF IR.

The DSL (seq / alt / optional / repeatable / bounds / named /
interpretation / match / forward / empty_rule / gazetteers) and the
compilation pipeline replicate the observable semantics of the reference
rule algebra (/root/reference/yargy/rule/: constructors, transformators,
bnf — golden-pinned by the BNF source strings in tests/test_rule.py).

Compilation runs once per Ray worker at grammar build time: grammars are
shipped to workers as importable factory callables (picklable), compiled in
``__init__`` and reused for every batch.

Passes (all pure, memoized by object identity so shared subrules stay
shared, with forward rules mutated in place to preserve recursion):

1. ``squash``    — collapse stacked ?/+/{m,n} wrappers
2. ``desugar``   — rewrite ?/+/{m,n} into recursion via fresh forwards
3. ``expand_alt``— alternation -> multi-production rule
4. ``expand_empty`` — empty rule -> epsilon production
5. ``flatten``   — splice trivial single-term wrappers
6. ``to_bnf``    — context-free IR, shared-subrule lifting, annotation lift
7. ``unfold_forwards`` — replace forward placeholders with their targets
"""

from __future__ import annotations

from .predicates import Predicate, eq, is_predicate


class Main:
    """Marks the head term of a production (agreement propagation)."""

    def __init__(self, term):
        self.term = term


class Prod:
    __slots__ = ('terms', 'main')

    def __init__(self, items, main=0):
        terms = []
        head = None
        for index, item in enumerate(items):
            if isinstance(item, Main):
                if head is not None:
                    raise ValueError('more than one main() term')
                head = index
                item = item.term
            if not (is_predicate(item) or isinstance(item, GrammarNode)):
                raise TypeError(type(item))
            terms.append(item)
        self.terms = terms
        self.main = head if head is not None else (main if main > 0 else 0)

    @property
    def children(self):
        return self.terms

    def __str__(self):
        out = []
        for index, term in enumerate(self.terms):
            label = term.label
            if self.main > 0 and index == self.main:
                label = '^' + label
            out.append(label)
        return ' '.join(out)


class EpsilonProd(Prod):
    def __init__(self):
        super().__init__([])

    def __str__(self):
        return 'e'


class GrammarNode:
    """Base of every DSL node; carries the user-facing combinators."""

    is_rule = False  # hot-path discriminator; BNFRule overrides (see
    #                  Predicate.is_rule in predicates.py)

    @property
    def children(self):
        return ()

    def optional(self, reverse=False):
        return Opt(self, reverse)

    def repeatable(self, min=None, max=None, reverse=False):
        if min and max:
            return MinMaxB(self, min, max, reverse)
        if min:
            return MinB(self, min, reverse)
        if max:
            return MaxB(self, max, reverse)
        return Rep(self, reverse)

    def named(self, name):
        return Named(self, name)

    def interpretation(self, item):
        from .interp import rule_interpretator
        return Interp(self, rule_interpretator(item))

    def match(self, relation):
        return Rel(self, relation)

    def walk(self, types=None):
        seen = {id(self)}
        queue = [self]
        while queue:
            item = queue.pop(0)
            yield_it = types is None or isinstance(item, types)
            if yield_it:
                yield item
            for child in item.children:
                if id(child) not in seen:
                    seen.add(id(child))
                    queue.append(child)

    def activate(self, context):
        return activate(self, context)

    @property
    def normalized(self):
        root = self
        for step in (squash, desugar, expand_alt, expand_empty, flatten):
            root = _pass(root, step)
        return root

    @property
    def as_bnf(self):
        root = self.normalized
        root = compile_bnf(root)
        return root.as_bnf


class Seq(GrammarNode):
    """A plain rule: ordered list of productions (usually one)."""

    def __init__(self, productions):
        self.productions = list(productions)

    @property
    def children(self):
        return self.productions


class Alt(GrammarNode):
    def __init__(self, alts):
        self.alts = list(alts)

    @property
    def children(self):
        return self.alts


class Wrap(GrammarNode):
    def __init__(self, inner):
        if not isinstance(inner, GrammarNode):
            raise TypeError(type(inner))
        self.inner = inner

    @property
    def children(self):
        return (self.inner,)

    def define(self, *args):
        return self.inner.define(*args)


class Opt(Wrap):
    def __init__(self, inner, reverse=False):
        super().__init__(inner)
        self.reverse = reverse


class Rep(Wrap):
    def __init__(self, inner, reverse=False):
        super().__init__(inner)
        self.reverse = reverse


class RepOpt(Wrap):
    def __init__(self, inner, rev_rep=False, rev_opt=False):
        super().__init__(inner)
        self.rev_rep = rev_rep
        self.rev_opt = rev_opt


class Bounded(Wrap):
    pass


class MinB(Bounded):
    def __init__(self, inner, lo, reverse=False):
        super().__init__(inner)
        if lo < 1:
            raise ValueError('min < 1')
        self.lo = lo
        self.reverse = reverse


class MaxB(Bounded):
    def __init__(self, inner, hi, reverse=False):
        super().__init__(inner)
        if hi < 1:
            raise ValueError('max < 1')
        self.hi = hi
        self.reverse = reverse


class MinMaxB(Bounded):
    def __init__(self, inner, lo, hi, reverse=False):
        super().__init__(inner)
        if lo < 1:
            raise ValueError('min < 1')
        if hi < lo:
            raise ValueError('max < min')
        self.lo = lo
        self.hi = hi
        self.reverse = reverse


class Named(Wrap):
    def __init__(self, inner, name):
        super().__init__(inner)
        self.name = name


class Interp(Wrap):
    def __init__(self, inner, interpretator):
        super().__init__(inner)
        self.interpretator = interpretator


class Rel(Wrap):
    def __init__(self, inner, relation):
        super().__init__(inner)
        self.relation = relation


class Fwd(GrammarNode):
    """Recursion placeholder; ``define`` fills it in later."""

    def __init__(self):
        self.inner = None

    def define(self, item, *items):
        if not items and isinstance(item, GrammarNode):
            if isinstance(item, Fwd):
                raise ValueError('forward(forward) not allowed')
            self.inner = item
        else:
            self.inner = seq(item, *items)
        return self

    @property
    def children(self):
        return (self.inner,) if self.inner is not None else ()


class EmptyNode(GrammarNode):
    pass


class GazNode(GrammarNode):
    """Wraps a gazetteer (phrase pipeline) scheme or activated pipeline."""

    def __init__(self, pipeline):
        self.pipeline = pipeline


# ---------------------------------------------------------------------------
# DSL builders
# ---------------------------------------------------------------------------

def _lift(item):
    if is_predicate(item) or isinstance(item, (GrammarNode, Main)):
        return item
    return eq(item)


def seq(*items):
    return Seq([Prod([_lift(i) for i in items])])


def alt(*items):
    return Alt(items)


def forward():
    return Fwd()


def empty_rule():
    return EmptyNode()


def main(term):
    return Main(term)


# ---------------------------------------------------------------------------
# Pass driver: memoized rewriting with in-place forward redefinition
# ---------------------------------------------------------------------------

def _pass(root, step):
    # id(item) -> (item, result). The memo holds every visited item, so
    # no id is freed and reused by another node during the pass: steps
    # visit temporaries they build themselves.
    memo = {}

    def visit(item):
        entry = memo.get(id(item))
        if entry is None:
            entry = memo[id(item)] = (item, step(item, visit))
        return entry[1]

    for fwd in root.walk(types=Fwd):
        if fwd.inner is not None:
            fwd.define(visit(fwd.inner))
    return visit(root)


def _rebuild(item, visit):
    """Structure-preserving recursion used by every pass as the default."""
    if isinstance(item, Seq):
        return Seq([_rebuild_prod(p, visit) for p in item.productions])
    if isinstance(item, Alt):
        return Alt([visit(a) for a in item.alts])
    if isinstance(item, Opt):
        return Opt(visit(item.inner), item.reverse)
    if isinstance(item, Rep):
        return Rep(visit(item.inner), item.reverse)
    if isinstance(item, RepOpt):
        return RepOpt(visit(item.inner), item.rev_rep, item.rev_opt)
    if isinstance(item, MinMaxB):
        return MinMaxB(visit(item.inner), item.lo, item.hi, item.reverse)
    if isinstance(item, MinB):
        return MinB(visit(item.inner), item.lo, item.reverse)
    if isinstance(item, MaxB):
        return MaxB(visit(item.inner), item.hi, item.reverse)
    if isinstance(item, Named):
        return Named(visit(item.inner), item.name)
    if isinstance(item, Interp):
        return Interp(visit(item.inner), item.interpretator)
    if isinstance(item, Rel):
        return Rel(visit(item.inner), item.relation)
    if isinstance(item, (Fwd, EmptyNode, GazNode, BNFRule)):
        return item
    raise TypeError(type(item))


def _rebuild_prod(prod, visit):
    if isinstance(prod, EpsilonProd):
        return prod
    if type(prod) is not Prod:  # gazetteer productions pass through
        return prod
    terms = [visit(t) if isinstance(t, GrammarNode) else t for t in prod.terms]
    return Prod(terms, prod.main)


# --- pass 1: squash stacked extended wrappers -------------------------------

def squash(item, visit):
    if isinstance(item, Rep):
        child = item.inner
        if isinstance(child, RepOpt):
            return visit(RepOpt(child.inner, item.reverse, child.rev_opt))
        if isinstance(child, Opt):
            return visit(RepOpt(child.inner, item.reverse, child.reverse))
        if isinstance(child, (Rep, Bounded)):
            return visit(Rep(child.inner, item.reverse))
        return Rep(visit(child), item.reverse)

    if isinstance(item, Opt):
        child = item.inner
        if isinstance(child, RepOpt):
            return visit(RepOpt(child.inner, child.rev_rep, item.reverse))
        if isinstance(child, Rep):
            return visit(RepOpt(child.inner, child.reverse, item.reverse))
        if isinstance(child, Opt):
            return visit(Opt(child.inner, item.reverse))
        return Opt(visit(child), item.reverse)

    if isinstance(item, RepOpt):
        child = item.inner
        if isinstance(child, (Rep, Bounded, Opt, RepOpt)):
            return visit(RepOpt(child.inner, item.rev_rep, item.rev_opt))
        return RepOpt(visit(child), item.rev_rep, item.rev_opt)

    if isinstance(item, Bounded):
        child = item.inner
        # a bound over an unbounded repeat collapses to the repeat
        if isinstance(child, Rep):
            return visit(Rep(child.inner, child.reverse))
        if isinstance(child, RepOpt):
            return visit(RepOpt(child.inner, child.rev_rep, child.rev_opt))
        if isinstance(child, Opt):
            # push the bound inside the optional
            if isinstance(item, MinMaxB):
                pushed = MinMaxB(child.inner, item.lo, item.hi, item.reverse)
            elif isinstance(item, MinB):
                pushed = MinB(child.inner, item.lo, item.reverse)
            else:
                pushed = MaxB(child.inner, item.hi, item.reverse)
            return visit(Opt(pushed, child.reverse))
        if isinstance(item, MinMaxB):
            return MinMaxB(visit(child), item.lo, item.hi, item.reverse)
        if isinstance(item, MinB):
            return MinB(visit(child), item.lo, item.reverse)
        return MaxB(visit(child), item.hi, item.reverse)

    return _rebuild(item, visit)


# --- pass 2: desugar extended wrappers into recursion -----------------------

def _desugar_rep(item, reverse):
    loop = Fwd()
    a = seq(item, loop)
    b = item
    if reverse:
        a, b = b, a
    return loop.define(alt(a, b))


def _desugar_opt(item, reverse):
    a = EmptyNode()
    b = item
    if reverse:
        a, b = b, a
    return alt(a, b)


def _desugar_rep_opt(item, rev_rep, rev_opt):
    loop = Fwd()
    a = EmptyNode()
    b = seq(item, loop)
    c = item
    if rev_rep:
        b, c = c, b
    if rev_opt:
        a, b, c = b, c, a
    return loop.define(alt(a, b, c))


def _desugar_max(item, count, reverse):
    if count == 1:
        return item
    a = seq(item, _desugar_max(item, count - 1, reverse))
    b = item
    if reverse:
        a, b = b, a
    return alt(a, b)


def desugar(item, visit):
    if isinstance(item, Rep):
        return _desugar_rep(visit(item.inner), item.reverse)
    if isinstance(item, Opt):
        return _desugar_opt(visit(item.inner), item.reverse)
    if isinstance(item, RepOpt):
        return _desugar_rep_opt(visit(item.inner), item.rev_rep, item.rev_opt)
    if isinstance(item, MinMaxB):
        child = visit(item.inner)
        items = [child] * (item.lo - 1)
        items.append(_desugar_max(child, item.hi - item.lo + 1, item.reverse))
        return seq(*items)
    if isinstance(item, MinB):
        child = visit(item.inner)
        items = [child] * (item.lo - 1)
        items.append(_desugar_rep(child, item.reverse))
        return seq(*items)
    if isinstance(item, MaxB):
        return _desugar_max(visit(item.inner), item.hi, item.reverse)
    return _rebuild(item, visit)


# --- passes 3-5 -------------------------------------------------------------

def expand_alt(item, visit):
    if isinstance(item, Alt):
        return Seq([Prod([visit(a)]) for a in item.alts])
    return _rebuild(item, visit)


def expand_empty(item, visit):
    if isinstance(item, EmptyNode):
        return Seq([EpsilonProd()])
    return _rebuild(item, visit)


def _flatten_term(term, visit):
    # a plain single-production single-term rule dissolves into its term
    while (type(term) is Seq and len(term.productions) == 1
           and type(term.productions[0]) is Prod
           and len(term.productions[0].terms) == 1):
        term = term.productions[0].terms[0]
    if isinstance(term, GrammarNode):
        return visit(term)
    return term


def _flatten_prod(prod, visit):
    # a production holding just one trivial nested rule splices it in
    if type(prod) is Prod and len(prod.terms) == 1:
        term = prod.terms[0]
        if type(term) is Seq and len(term.productions) == 1:
            return _flatten_prod(term.productions[0], visit)
    if isinstance(prod, EpsilonProd):
        return prod
    return Prod([_flatten_term(t, visit) for t in prod.terms], prod.main)


def flatten(item, visit):
    if isinstance(item, Seq):
        return Seq([_flatten_prod(p, visit) for p in item.productions])
    return _rebuild(item, visit)


# ---------------------------------------------------------------------------
# BNF IR
# ---------------------------------------------------------------------------

class BNFRule(GrammarNode):
    """A named context-free rule with optional interpretation/relation."""

    is_rule = True

    def __init__(self, productions, name=None, interpretator=None,
                 relation=None):
        self.productions = list(productions)
        self.name = name
        self.interpretator = interpretator
        self.relation = relation

    @property
    def children(self):
        return self.productions

    def predict(self, token):
        return self.productions

    @property
    def label(self):
        name = self.name
        if self.interpretator is not None:
            name = self.interpretator.label
        if self.relation is not None:
            name = f'{name}^{self.relation.label}'
        return name

    def __str__(self):
        body = ' | '.join(str(p) for p in self.productions)
        return f'{self.label} -> {body}'

    @property
    def as_bnf(self):
        return BNF(self.walk(types=BNFRule))


def is_bnf_rule(item):
    return isinstance(item, BNFRule)


class BNF:
    """The compiled grammar: list of BNF rules, start rule first."""

    def __init__(self, rules):
        self.rules = list(rules)
        count = 0
        for rule in self.rules:
            if not rule.name:
                rule.name = 'R%d' % count
                count += 1

    @property
    def start(self):
        return self.rules[0]

    @property
    def source(self):
        for rule in self.rules:
            yield str(rule)


def _wrap_single(rule):
    return BNFRule([Prod([rule])])


def compile_bnf(root):
    """Normalized DSL tree -> BNF IR with shared-subrule lifting."""
    # reference-count child edges so shared subrules become named references
    refcount = {}
    for item in root.walk():
        for child in item.children:
            refcount[id(child)] = refcount.get(id(child), 0) + 1

    memo = {}

    def visit(item):
        key = id(item)
        if key in memo:
            return memo[key]
        result = convert(item)
        memo[key] = result
        return result

    def visit_term(term):
        if isinstance(term, GrammarNode):
            return visit(term)
        return term

    def convert_prod(prod):
        if isinstance(prod, EpsilonProd):
            return prod
        return Prod([visit_term(t) for t in prod.terms], prod.main)

    def convert_wrapped(item):
        inner = item.inner
        if isinstance(inner, Fwd):
            return _wrap_single(inner)
        shared = refcount.get(id(inner), 0) > 1
        result = visit(inner)
        if shared:
            result = _wrap_single(result)
        return result

    def convert(item):
        if type(item) is Seq:
            return BNFRule([convert_prod(p) for p in item.productions])
        if isinstance(item, Named):
            result = convert_wrapped(item)
            if result.name:
                result = _wrap_single(result)
            result.name = item.name
            return result
        if isinstance(item, Interp):
            result = convert_wrapped(item)
            if result.interpretator is not None:
                result = _wrap_single(result)
            result.interpretator = item.interpretator
            return result
        if isinstance(item, Rel):
            result = convert_wrapped(item)
            if result.relation is not None:
                result = _wrap_single(result)
            result.relation = item.relation
            return result
        if isinstance(item, GazNode):
            return item.pipeline.as_bnf
        if isinstance(item, Fwd):
            return item
        raise TypeError(type(item))

    for fwd in root.walk(types=Fwd):
        if fwd.inner is not None:
            fwd.define(visit(fwd.inner))
    result = visit(root)
    return unfold_forwards(result)


def unfold_forwards(root):
    """Replace forward placeholders inside productions with their targets."""
    seen = set()
    queue = [root]
    while queue:
        item = queue.pop(0)
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Fwd):
            if item.inner is not None:
                queue.append(item.inner)
            continue
        for prod in item.productions:
            terms = prod.terms
            for i, term in enumerate(terms):
                if isinstance(term, Fwd):
                    if term.inner is None:
                        raise TypeError('forward not defined')
                    terms[i] = term.inner
            for term in terms:
                if isinstance(term, BNFRule):
                    queue.append(term)
    if isinstance(root, Fwd):
        if root.inner is None:
            raise TypeError('forward not defined')
        return root.inner
    return root


# ---------------------------------------------------------------------------
# Activation: bind predicate schemes + gazetteers to a tokenizer context
# ---------------------------------------------------------------------------

def activate(root, context):
    """In-place activation of predicate schemes and gazetteer schemes."""
    for item in root.walk():
        if isinstance(item, Seq):
            for prod in item.productions:
                if type(prod) is Prod or isinstance(prod, EpsilonProd):
                    prod.terms = [
                        t.activate(context) if is_predicate(t) else t
                        for t in prod.terms
                    ]
        elif isinstance(item, GazNode):
            item.pipeline = item.pipeline.activate(context)
    return root
