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
* ``sum_maintainable``  -- a multiset of values supports O(1) insert, delete
  and total.  Required by the dynamic engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .errors import CapabilityError, ConfigurationError, ContractViolationError

Value = Any


class SumAccumulator:
    """Multiset of semiring values with O(1) insert/delete/total.

    ``total()`` always equals the semiring sum of the represented multiset.
    Deleting a value that is not a member is a contract violation; the engine
    always knows the old annotation before deleting.
    """

    size: int

    def insert(self, k: Value) -> None:
        raise NotImplementedError

    def delete(self, k: Value) -> None:
        raise NotImplementedError

    def total(self) -> Value:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.size


class _InverseAccumulator(SumAccumulator):
    """Running total for semirings whose addition can be undone exactly."""

    __slots__ = ("_total", "_sub", "_zero", "size")

    def __init__(self, zero: Value, sub: Callable[[Value, Value], Value]):
        self._total = zero
        self._zero = zero
        self._sub = sub
        self.size = 0

    def insert(self, k: Value) -> None:
        self._total = self._total + k
        self.size += 1

    def delete(self, k: Value) -> None:
        if self.size == 0:
            raise ContractViolationError("delete from an empty accumulator")
        self._total = self._sub(self._total, k)
        self.size -= 1
        if self.size == 0:
            self._total = self._zero

    def total(self) -> Value:
        return self._total


class _BooleanAccumulator(SumAccumulator):
    """Counts true members; the disjunction is true iff the count is positive."""

    __slots__ = ("_true_count", "size")

    def __init__(self) -> None:
        self._true_count = 0
        self.size = 0

    def insert(self, k: Value) -> None:
        if k:
            self._true_count += 1
        self.size += 1

    def delete(self, k: Value) -> None:
        if self.size == 0:
            raise ContractViolationError("delete from an empty accumulator")
        if k:
            self._true_count -= 1
        self.size -= 1

    def total(self) -> Value:
        return self._true_count > 0


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
    sum_maintainable: bool
    parse: Callable[[str], Value]
    format: Callable[[Value], str]
    sample: Callable[[Any], Value]  # rng -> value, used by tests and --verify corpora
    acc_factory: Optional[Callable[[], SumAccumulator]] = field(default=None, repr=False)

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


def _parse_natural(s: str) -> int:
    n = int(s)
    if n < 0:
        raise ValueError(f"natural annotation must be non-negative: {s!r}")
    return n


def _parse_tropical(s: str) -> float:
    s = s.strip().lower()
    if s in ("inf", "+inf", "infinity"):
        return math.inf
    return float(s)


_BOOLEAN = SemiringDescriptor(
    name="boolean",
    zero=False,
    one=True,
    add=lambda a, b: a or b,
    mul=lambda a, b: a and b,
    is_zero=lambda a: not a,
    zero_divisor_free=True,
    zero_sum_free=True,
    sum_maintainable=True,
    parse=_parse_bool,
    format=lambda v: "t" if v else "f",
    sample=lambda rng: rng.random() < 0.5,
    acc_factory=_BooleanAccumulator,
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
    sum_maintainable=True,
    parse=_parse_natural,
    format=str,
    sample=lambda rng: rng.randrange(0, 6),
    # Subtraction never leaves the naturals here: a deleted value was
    # previously added to the same total.
    acc_factory=lambda: _InverseAccumulator(0, lambda t, k: t - k),
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
    sum_maintainable=True,
    parse=float,
    format=repr,
    # Dyadic rationals keep float arithmetic exact in tests while still
    # exercising cancellation (k + (-k) == 0.0).
    sample=lambda rng: rng.randrange(-12, 13) / 4.0,
    acc_factory=lambda: _InverseAccumulator(0.0, lambda t, k: t - k),
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
    sum_maintainable=False,  # min has no inverse; the dynamic engine rejects it
    parse=_parse_tropical,
    format=lambda v: "inf" if v == math.inf else repr(v),
    # Integer-valued floats keep min/+ exact in the axiom suite.
    sample=lambda rng: math.inf if rng.random() < 0.1 else float(rng.randrange(0, 20)),
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
    if not s.sum_maintainable or s.acc_factory is None:
        raise CapabilityError(f"semiring {s.name!r} is not sum-maintainable")
    return s.acc_factory()


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
