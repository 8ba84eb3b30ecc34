"""Compiling generated code: the CSV and COO row readers and the
update-line reader of ``kdata``, the build and walk of each plan
(``static_engine``), the update step of each relation symbol
(``dynamic_engine``) and the builtin semiring operators are written as
Python source and compiled here.  Each generator lays out its source
from the plan as it writes it, and nothing reads the text back.  A plan
leaf's key is an expression that the builds and update steps write inline.

A generated source holds only fixed names, integer literals, the update
script's ``"+"``, ``"-"`` and ``"#"``, and the semiring's operator
templates (``SemiringDescriptor.templates``), which are the only text not
written by the generator itself; never a symbol of the query or a data
value.  The function it defines reads everything else off its arguments,
so one compiled function serves every caller whose source is the same.
Sources see six names besides the builtins: ``STALE``, ``StaleStateError``,
``INSERT``, ``DELETE``, ``inf``, the tropical zero, and ``isfinite``, which
the real numbers' ``admits`` calls.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

from .errors import StaleStateError

# the message of the error a walk raises when its state was updated
STALE = "enumeration cursor invalidated by an update"
# the kinds of update (``kdata.SingleTupleUpdate``): an update step tells an
# insert from a delete, and the update-line reader writes both
INSERT = "insert"
DELETE = "delete"
MAX_NESTED_BLOCKS = 20  # CPython's limit of nested blocks in one function


@lru_cache(maxsize=256)
def compile_source(source: str, name: str) -> Callable:
    """The function ``name`` that ``source`` defines.  A walk nests one loop
    per level and free range of its plan, a count that ``preprocess_with_plan``
    checks against ``MAX_NESTED_BLOCKS``; any other source at most two."""
    namespace = dict(STALE=STALE, StaleStateError=StaleStateError, INSERT=INSERT, DELETE=DELETE, inf=math.inf, isfinite=math.isfinite)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def project(t: str, positions: Sequence[int], width: int) -> str:
    """The source of the key of ``t``'s components at ``positions`` (``t`` when
    that is all ``width`` of them): one component's bare value, else a tuple."""
    if tuple(positions) == tuple(range(width)):
        return t
    return f"{t}[{positions[0]}]" if len(positions) == 1 else display([f"{t}[{pos}]" for pos in positions])


def display(comps: Sequence[str]) -> str:
    """The source of the tuple of the expressions ``comps``."""
    return "(" + ", ".join(comps) + ("," if len(comps) == 1 else "") + ")"
