"""DOT-source rendering of rules, BNF grammars and parse trees, plus
chart pretty-printing — the reference's grammar-debugging surface
(reference: dot.py:18-170, rule/transformators.py:413-539,
tree/transformators.py:129-168, parser.py:59-69,107-124).

Everything here generates graphviz DOT *source text* (the part a
grammar author reads and diffs); rendering to SVG needs the ``dot``
binary, which may not exist on a worker image — ``dot2svg`` is gated
behind a runtime check. No engine code depends on this module.
"""

from __future__ import annotations

from .earley import ParseLeaf, ParseNode, ParseTree
from .grammar import (
    Alt,
    BNFRule,
    EmptyNode,
    Fwd,
    GazNode,
    GrammarNode,
    Interp,
    Named,
    Prod,
    Rel,
    Seq,
    Wrap,
)

BLUE = '#aec7e8'
ORANGE = '#ffbb78'
GREEN = '#dbdb8d'
RED = '#ff9896'
PURPLE = '#f7b6d2'
SILVER = '#eeeeee'


def _quote(value):
    value = str(value)
    for a, b in (('"', r'\"'), ('\n', r'\n'), ('\r', r'\r')):
        value = value.replace(a, b)
    return f'"{value}"'


class DotGraph:
    """Accumulates nodes/edges; ``source`` is the DOT digraph text."""

    def __init__(self):
        self.nodes = []           # (node_id, label, fillcolor)
        self.edges = []           # (source_id, target_id)
        self._ids = {}

    def node_id(self, obj):
        key = id(obj)
        if key not in self._ids:
            self._ids[key] = f'n{len(self._ids)}'
        return self._ids[key]

    def add_node(self, obj, label, color=SILVER):
        self.nodes.append((self.node_id(obj), label, color))

    def add_edge(self, source, target):
        self.edges.append((self.node_id(source), self.node_id(target)))

    @property
    def source(self):
        lines = [
            'digraph G {',
            'graph [margin=0, nodesep=0.1, ranksep=0.3];',
            'node [shape=box, style=filled, fontsize=10, height=0.3];',
            'edge [arrowsize=0.5];',
        ]
        for node_id, label, color in self.nodes:
            lines.append(
                f'{node_id} [label={_quote(label)}, '
                f'fillcolor={_quote(color)}];')
        for source, target in self.edges:
            lines.append(f'{source} -> {target};')
        lines.append('}')
        return '\n'.join(lines)


def _label_of(item):
    if isinstance(item, Named):
        return f'Named({item.name})', BLUE
    if isinstance(item, Interp):
        return f'Interp({item.interpretator.label})', GREEN
    if isinstance(item, Rel):
        return f'Rel({item.relation.label})', PURPLE
    if isinstance(item, Fwd):
        return 'Forward', RED
    if isinstance(item, EmptyNode):
        return 'Empty', SILVER
    if isinstance(item, GazNode):
        return 'Pipeline', ORANGE
    if isinstance(item, Alt):
        return 'Or', SILVER
    if isinstance(item, Seq):
        return 'Rule', SILVER
    if isinstance(item, Prod):
        return 'Production', SILVER
    if isinstance(item, Wrap):
        return type(item).__name__, SILVER
    if isinstance(item, BNFRule):
        return item.label, BLUE
    label = getattr(item, 'label', None)
    return (label if label is not None else repr(item)), ORANGE


def rule_as_dot(root):
    """DSL rule AST -> DOT source (reference rule.as_dot equivalent).

    Shared subrules appear once (same node, multiple in-edges), so the
    rendering makes reuse and recursion visually obvious.
    """
    if not isinstance(root, GrammarNode):
        raise TypeError(type(root))
    graph = DotGraph()
    seen = set()
    queue = [root]
    while queue:
        item = queue.pop(0)
        if id(item) in seen:
            continue
        seen.add(id(item))
        label, color = _label_of(item)
        graph.add_node(item, label, color)
        children = getattr(item, 'children', ())
        for child in children:
            queue.append(child)
            graph.add_edge(item, child)
    return graph.source


def bnf_as_dot(rule):
    """Compiled BNF -> DOT source: one box per rule, one per production."""
    if not isinstance(rule, BNFRule):
        raise TypeError(type(rule))
    graph = DotGraph()
    seen = set()
    queue = [rule]
    while queue:
        item = queue.pop(0)
        if id(item) in seen:
            continue
        seen.add(id(item))
        graph.add_node(item, item.label, BLUE)
        for prod in item.productions:
            graph.add_node(prod, 'Production', SILVER)
            graph.add_edge(item, prod)
            for term in prod.terms:
                if isinstance(term, BNFRule):
                    queue.append(term)
                    graph.add_edge(prod, term)
                else:
                    label, color = _label_of(term)
                    graph.add_node(term, label, color)
                    graph.add_edge(prod, term)
    return graph.source


def tree_as_dot(tree):
    """Parse tree/forest node -> DOT source (reference tree.as_dot)."""
    root = tree.root if isinstance(tree, ParseTree) else tree
    graph = DotGraph()
    queue = [root]
    while queue:
        item = queue.pop(0)
        if isinstance(item, ParseLeaf):
            label = f'{item.predicate.label}\n{item.token.value!r}'
            graph.add_node(item, label, GREEN)
            continue
        if isinstance(item, ParseNode):
            graph.add_node(item, item.rule.label, BLUE)
            for child in item.children:
                queue.append(child)
                graph.add_edge(item, child)
    return graph.source


def dot2svg(source):
    """Render DOT source with the graphviz binary (if installed)."""
    import shutil
    import subprocess
    if shutil.which('dot') is None:
        raise RuntimeError(
            'graphviz `dot` binary not found — DOT source generation '
            'works everywhere; rendering needs graphviz installed')
    proc = subprocess.run(['dot', '-T', 'svg'], input=source.encode(),
                          capture_output=True)
    if proc.returncode != 0:
        raise ValueError(proc.stderr.decode())
    return proc.stdout.decode()


def chart_source(columns, tokens, view):
    """Chart dump for debugging (reference parser.py:107-124): one
    section per column — index, token, then every Earley state.
    ``view`` reads a state through its parser's item table
    (``Parser.view``)."""
    for index, column in enumerate(columns):
        token = tokens[index - 1] if index else None
        yield f'{index!r} {token!r}'
        yield '----------------'
        for state in map(view, column):
            rule = state.rule.label or state.rule.name
            terms = [getattr(t, 'label', None) or getattr(t, 'name', '?')
                     for t in state.production.terms]
            terms.insert(state.dot, '·')
            yield (f'{rule} -> {" ".join(str(t) for t in terms)} '
                   f'[{state.origin}:{index}]')
        yield ''
