"""Commutative semirings, capability flags, and constant-time sum accumulators.

Every annotation the engine touches is a value of some commutative,
non-trivial semiring (K, add, mul, zero, one).  The engine never inspects
values directly; it goes through a ``SemiringDescriptor``, which bundles the
operations with three capability flags:

* ``zero_divisor_free`` -- a*b = 0 implies a = 0 or b = 0 (a semi-integral
  domain).  Required by static enumeration, where absence of a stored tuple
  must coincide with a zero annotation.
* ``zero_sum_free``     -- a+b = 0 implies a = b = 0.  When it fails (the
  reals), additions can cancel and stored support can shrink under inserts.
* ``sum_maintainable``  -- the descriptor has a ``sub`` that takes a member
  back out of a sum of nonzero members, as long as one member remains, so a
  sum and a member count support O(1) insert, delete and total.  Required by
  the dynamic engine.

Generated code (the scans, walks, update paths and apply steps) writes an
operator through its source template, such as ``({0} * {1})``, so that a
builtin's operators run inline; each builtin's callables are compiled from
the same templates, so each operator is defined once, the test of which
values are annotations (``admits``) among them.  A descriptor without
templates, such as a custom semiring, gets the call form ``mul({0}, {1})``
or ``admits({0})``, which generated code binds to the descriptor's
callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from .codegen import compile_source
from .errors import CapabilityError, ConfigurationError, ContractViolationError

Value = Any


class SumAccumulator:
    """Multiset of semiring values with O(1) insert/delete/total, over the
    descriptor's ``add`` and ``sub``.

    ``total()`` always equals the semiring sum of the represented multiset.
    Zero members are counted but not added, and the total restarts from zero
    when no nonzero member remains.  Deleting a value that is not a member is
    a contract violation; the engine always knows the old annotation before
    deleting.
    """

    __slots__ = ("_s", "_total", "_nonzero", "size")

    def __init__(self, s: SemiringDescriptor):
        self._s = s
        self._total = s.zero
        self._nonzero = 0
        self.size = 0

    def insert(self, k: Value) -> None:
        self.size += 1
        if not self._s.is_zero(k):
            self._nonzero += 1
            self._total = self._s.add(self._total, k)

    def delete(self, k: Value) -> None:
        if self.size == 0:
            raise ContractViolationError("delete from an empty accumulator")
        self.size -= 1
        if not self._s.is_zero(k):
            self._nonzero -= 1
            self._total = self._s.sub(self._total, k) if self._nonzero else self._s.zero

    def total(self) -> Value:
        return self._total

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class SemiringDescriptor:
    """A commutative non-trivial semiring plus engine-facing capabilities."""

    name: str
    zero: Value
    one: Value
    add: Callable[[Value, Value], Value]
    mul: Callable[[Value, Value], Value]
    is_zero: Callable[[Value], bool]
    zero_divisor_free: bool
    zero_sum_free: bool
    parse: Callable[[str], Value]
    format: Callable[[Value], str]
    # sub(a, b) for a sum a of nonzero members, one of them b, and at least
    # one other: the sum of the others.  None when there is no such map.
    sub: Optional[Callable[[Value, Value], Value]] = field(default=None, repr=False)
    # which values are annotations: ``parse`` applies it to the converted
    # text, ``kdata.apply_update`` and the apply step (``kdata.apply_source``)
    # to the value of an insert and to its sum
    admits: Callable[[Value], bool] = field(default=lambda v: True, repr=False)
    # per operator ("add", "mul", "sub", "is_zero", "admits"), the source of
    # its application to the sources {0} and {1} of its operands, each used
    # once, such as "({0} * {1})"; see ``expr``.  Generated code passes
    # ``admits`` a name, which its template may use more than once
    templates: Dict[str, str] = field(default_factory=dict, repr=False, compare=False)

    def expr(self, op: str, *operands: str) -> str:
        """The source of operator ``op`` applied to the sources
        ``operands``: its template filled in, or without one the call of the
        name ``op``, which generated code binds to the callable."""
        template = self.templates.get(op) or op + ("({0})" if len(operands) == 1 else "({0}, {1})")
        return template.format(*operands)

    @property
    def sum_maintainable(self) -> bool:
        return self.sub is not None

    def __post_init__(self) -> None:
        if self.zero == self.one:
            raise ConfigurationError(f"semiring {self.name!r} is trivial (zero == one)")


def _parse_bool(s: str) -> bool:
    s = s.strip().lower()
    if s in ("t", "true", "1"):
        return True
    if s in ("f", "false", "0"):
        return False
    raise ValueError(f"not a boolean annotation: {s!r}")


def _parser(convert: Callable[[str], Value], message: str) -> Callable:
    """``parser(admits)`` for ``_builtin``: ``parse`` converts the text and
    raises ``ValueError`` with ``message`` on a value that ``admits`` rejects."""
    def parser(admits: Callable[[Value], bool]) -> Callable[[str], Value]:
        def parse(s: str) -> Value:
            v = convert(s)
            if not admits(v):
                raise ValueError(f"{message}: {s!r}")
            return v

        return parse

    return parser


def _builtin(templates: Dict[str, str], parser: Callable, **fields: Any) -> SemiringDescriptor:
    """A descriptor whose operators are compiled from their ``templates``,
    so that each is defined once, for generated code and for callers alike;
    ``parser(admits)`` makes its ``parse``, given the compiled ``admits``."""
    ops = {}
    for op, template in templates.items():
        params = "a" if op in ("is_zero", "admits") else "a, b"
        ops[op] = compile_source(f"def {op}({params}):\n    return {template.format('a', 'b')}\n", op)
    return SemiringDescriptor(**fields, **ops, parse=parser(ops["admits"]), templates=templates)


_BOOLEAN = _builtin(
    # every nonzero member is True, and one remains: sub keeps the sum
    {
        "add": "({0} or {1})", "mul": "({0} and {1})", "sub": "{0}", "is_zero": "(not {0})",
        "admits": "(type({0}) is bool)",
    },
    name="boolean",
    zero=False,
    one=True,
    zero_divisor_free=True,
    zero_sum_free=True,
    parser=lambda admits: _parse_bool,
    format=lambda v: "t" if v else "f",
)

_NATURAL = _builtin(
    # Subtraction never leaves the naturals here: a deleted value was
    # previously added to the same total.
    {
        "add": "({0} + {1})", "mul": "({0} * {1})", "sub": "({0} - {1})", "is_zero": "({0} == 0)",
        "admits": "(type({0}) is int and {0} >= 0)",
    },
    name="natural",
    zero=0,
    one=1,
    zero_divisor_free=True,
    zero_sum_free=True,
    parser=_parser(int, "natural annotation must be non-negative"),
    format=str,
)

_REAL = _builtin(
    # inf - inf is nan: a non-finite annotation would poison every sum it
    # enters, also after it is deleted again
    {
        "add": "({0} + {1})", "mul": "({0} * {1})", "sub": "({0} - {1})", "is_zero": "({0} == 0.0)",
        "admits": "(type({0}) is float and isfinite({0}))",
    },
    name="real",
    zero=0.0,
    one=1.0,
    zero_divisor_free=True,
    zero_sum_free=False,
    parser=_parser(float, "real annotation must be finite"),
    format=repr,
)

_TROPICAL_MIN = _builtin(
    # no sub: min has no inverse, so the dynamic engine rejects it
    {
        "add": "min({0}, {1})", "mul": "({0} + {1})", "is_zero": "({0} == inf)",
        "admits": "(type({0}) is float and -inf < {0})",
    },
    name="tropical-min",
    zero=math.inf,
    one=0.0,
    zero_divisor_free=True,
    zero_sum_free=True,
    parser=_parser(float, "tropical annotation must be a number or inf"),
    format=lambda v: "inf" if v == math.inf else repr(v),
)

_BUILTINS = {s.name: s for s in (_BOOLEAN, _NATURAL, _REAL, _TROPICAL_MIN)}

BUILTIN_SEMIRING_NAMES = tuple(_BUILTINS)


def builtin_semiring(name: str) -> SemiringDescriptor:
    """Return one of the shipped semirings by name.

    Known names: ``boolean``, ``natural``, ``real``, ``tropical-min``.
    """
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown semiring {name!r}; expected one of {sorted(_BUILTINS)}"
        ) from None


def acc_new(s: SemiringDescriptor) -> SumAccumulator:
    """Fresh empty accumulator; ``total()`` is the semiring zero."""
    if s.sub is None:
        raise CapabilityError(f"semiring {s.name!r} is not sum-maintainable")
    return SumAccumulator(s)


def sum_of_ones(s: SemiringDescriptor, n: int) -> Value:
    """The n-fold semiring sum 1 + ... + 1, computed with O(log n) additions.

    n = 0 gives the semiring zero (empty sum).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    result = s.zero
    power = s.one  # one * 2^i under repeated doubling
    while n:
        if n & 1:
            result = s.add(result, power)
        n >>= 1
        if n:
            power = s.add(power, power)
    return result
