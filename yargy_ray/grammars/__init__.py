"""Transcript extraction grammars (the P/R corpus of the KG pipeline).

Each grammar is exposed as a *factory*: a top-level zero-arg callable
returning a :class:`GrammarSpec`. Extraction workers receive factory
dotted-names (plain strings — trivially picklable), import and build
them once per worker process per Dataset; the compiled Parser is
reused for every batch.

Grammar shapes follow the reference documentation examples
(/root/reference/docs/index.ipynb cells 46-62, ref.ipynb 27-33,
cookbook cell 49): DATE, MONEY, PERSON (gnc-agreed name + gazetteer
position), clause references and «quoted titles».
"""

from __future__ import annotations

from importlib import import_module

from .specs import (  # noqa: F401
    GrammarSpec,
    address_grammar,
    clause_grammar,
    date_grammar,
    money_grammar,
    person_grammar,
    title_grammar,
)

DEFAULT_FACTORIES = (
    'yargy_ray.grammars.specs:date_grammar',
    'yargy_ray.grammars.specs:money_grammar',
    'yargy_ray.grammars.specs:person_grammar',
    'yargy_ray.grammars.specs:address_grammar',
    'yargy_ray.grammars.specs:clause_grammar',
    'yargy_ray.grammars.specs:title_grammar',
)


def load_factory(path):
    """'pkg.module:callable' -> the callable."""
    module, _, name = path.partition(':')
    return getattr(import_module(module), name)


def build_specs(factory_paths=DEFAULT_FACTORIES):
    return [load_factory(p)() for p in factory_paths]
