"""Pure-Python extraction kernel (no Ray dependency).

Equivalent-semantics reimplementation of the reference rule-based
fact-extraction stack (tokenizer → morphology → predicates → grammar DSL
→ Earley parsing → agreement relations → fact interpretation), designed
to run inside Ray Data ``map_batches`` workers: all state is built once
per worker process and every entry point is deterministic and
side-effect free.
"""

from .api import (  # noqa: F401
    Context,
    Match,
    Parser,
    StateOverflow,
    and_,
    caseless_pipeline,
    empty,
    forward,
    main,
    morph_pipeline,
    not_,
    or_,
    pipeline,
    rule,
)
from .interp import attribute, fact  # noqa: F401
from .tokenizer import MorphTokenizer, Tokenizer  # noqa: F401
