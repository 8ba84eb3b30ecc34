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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

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
    # text, ``kdata.apply_update`` to the value of an insert
    admits: Callable[[Value], bool] = field(default=lambda v: True, repr=False)

    @property
    def sum_maintainable(self) -> bool:
        return self.sub is not None

    def __post_init__(self) -> None:
        if self.zero == self.one:
            raise ConfigurationError(f"semiring {self.name!r} is trivial (zero == one)")


def _is_natural(v: Value) -> bool:
    return type(v) is int and v >= 0


def _is_real(v: Value) -> bool:
    # inf - inf is nan: a non-finite annotation would poison every sum it
    # enters, also after it is deleted again
    return type(v) is float and math.isfinite(v)


def _is_tropical(v: Value) -> bool:
    return type(v) is float and v == v and v != -math.inf


def _parse_bool(s: str) -> bool:
    s = s.strip().lower()
    if s in ("t", "true", "1"):
        return True
    if s in ("f", "false", "0"):
        return False
    raise ValueError(f"not a boolean annotation: {s!r}")


def _parse_natural(s: str) -> int:
    n = int(s)
    if not _is_natural(n):
        raise ValueError(f"natural annotation must be non-negative: {s!r}")
    return n


def _parse_real(s: str) -> float:
    v = float(s)
    if not _is_real(v):
        raise ValueError(f"real annotation must be finite: {s!r}")
    return v


def _parse_tropical(s: str) -> float:
    s = s.strip().lower()
    v = math.inf if s in ("inf", "+inf", "infinity") else float(s)
    if not _is_tropical(v):
        raise ValueError(f"tropical annotation must be a number or inf: {s!r}")
    return v


_BOOLEAN = SemiringDescriptor(
    name="boolean",
    zero=False,
    one=True,
    add=lambda a, b: a or b,
    mul=lambda a, b: a and b,
    is_zero=lambda a: not a,
    zero_divisor_free=True,
    zero_sum_free=True,
    parse=_parse_bool,
    format=lambda v: "t" if v else "f",
    # every nonzero member is True, and one remains
    sub=lambda a, b: a,
    admits=lambda v: type(v) is bool,
)

_NATURAL = SemiringDescriptor(
    name="natural",
    zero=0,
    one=1,
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    is_zero=lambda a: a == 0,
    zero_divisor_free=True,
    zero_sum_free=True,
    parse=_parse_natural,
    format=str,
    # Subtraction never leaves the naturals here: a deleted value was
    # previously added to the same total.
    sub=lambda a, b: a - b,
    admits=_is_natural,
)

_REAL = SemiringDescriptor(
    name="real",
    zero=0.0,
    one=1.0,
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    is_zero=lambda a: a == 0.0,
    zero_divisor_free=True,
    zero_sum_free=False,
    parse=_parse_real,
    format=repr,
    sub=lambda a, b: a - b,
    admits=_is_real,
)

_TROPICAL_MIN = SemiringDescriptor(
    name="tropical-min",
    zero=math.inf,
    one=0.0,
    add=min,
    mul=lambda a, b: a + b,
    is_zero=lambda a: a == math.inf,
    zero_divisor_free=True,
    zero_sum_free=True,
    parse=_parse_tropical,
    format=lambda v: "inf" if v == math.inf else repr(v),
    # no sub: min has no inverse, so the dynamic engine rejects it
    admits=_is_tropical,
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
