"""Compiling generated code: the CSV row readers and update apply steps of
``kdata``, the bottom-up scans and connex walks of ``static_engine``, the
update paths of ``dynamic_engine`` and the builtin semiring operators are
each written as Python source and compiled here.  A plan leaf's key is an
expression that the scans and update paths write inline.

A generated source holds only fixed names, integer literals and the
semiring's operator templates (``SemiringDescriptor.templates``), which are
the only text not written by the generator itself; never a symbol of the
query or a data value.  The function it defines reads everything else off
its arguments, so one compiled function serves every caller whose source is
the same.  Sources see four names besides the builtins: ``STALE``,
``INSERT``, ``inf``, the tropical zero, and ``isfinite``, which the real
numbers' ``admits`` calls.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

# the message of the error a walk raises when its state was updated
STALE = "enumeration cursor invalidated by an update"
# the kind of an insert update (``kdata.SingleTupleUpdate``), which an
# apply step tells from a delete
INSERT = "insert"


@lru_cache(maxsize=256)
def compile_source(source: str, name: str) -> Callable:
    """The function ``name`` that ``source`` defines."""
    namespace = {"STALE": STALE, "INSERT": INSERT, "inf": math.inf, "isfinite": math.isfinite}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def project(t: str, positions: Sequence[int], width: int) -> str:
    """The source of the tuple of ``t``'s components at ``positions``: ``t``
    itself when that is all ``width`` of them."""
    if tuple(positions) == tuple(range(width)):
        return t
    return display([f"{t}[{pos}]" for pos in positions])


def display(comps: Sequence[str]) -> str:
    """The source of the tuple of the expressions ``comps``."""
    return "(" + ", ".join(comps) + ("," if len(comps) == 1 else "") + ")"
