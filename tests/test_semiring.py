import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaenum.errors import CapabilityError, ConfigurationError, ContractViolationError
from deltaenum.semiring import (
    BUILTIN_SEMIRING_NAMES,
    acc_new,
    builtin_semiring,
    sum_of_ones,
)

ALL = [builtin_semiring(n) for n in BUILTIN_SEMIRING_NAMES]


def fold(s, values):
    total = s.zero
    for v in values:
        total = s.add(total, v)
    return total


def test_builtin_names_and_flags():
    flags = {
        "boolean": (True, True, True),
        "natural": (True, True, True),
        "real": (True, False, True),
        "tropical-min": (True, True, False),
    }
    for name, (zdf, zsf, sm) in flags.items():
        s = builtin_semiring(name)
        assert (s.zero_divisor_free, s.zero_sum_free, s.sum_maintainable) == (zdf, zsf, sm)


def test_unknown_semiring_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        builtin_semiring("galois")


def test_boolean_or_is_idempotent():
    b = builtin_semiring("boolean")
    assert b.add(b.one, b.one) == b.one


def test_natural_arithmetic():
    n = builtin_semiring("natural")
    assert n.add(n.mul(2, 3), n.mul(1, 1)) == 7


def test_tropical_zero_annihilates():
    t = builtin_semiring("tropical-min")
    assert t.mul(t.zero, 5.0) == t.zero
    assert t.zero == math.inf and t.one == 0.0


@pytest.mark.parametrize("name", BUILTIN_SEMIRING_NAMES)
def test_axioms_on_random_triples(name):
    s = builtin_semiring(name)
    rng = random.Random(20240811)
    tol = 1e-9 if name == "real" else 0.0

    def close(a, b):
        if tol and isinstance(a, float) and math.isfinite(a) and math.isfinite(b):
            return abs(a - b) <= tol
        return a == b

    for _ in range(10_000):
        a, b, c = s.sample(rng), s.sample(rng), s.sample(rng)
        assert close(s.add(s.add(a, b), c), s.add(a, s.add(b, c)))
        assert close(s.add(a, b), s.add(b, a))
        assert close(s.add(a, s.zero), a)
        assert close(s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c)))
        assert close(s.mul(a, b), s.mul(b, a))
        assert close(s.mul(a, s.one), a)
        assert close(s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c)))
        assert s.is_zero(s.mul(s.zero, a))
        if s.zero_divisor_free and s.is_zero(s.mul(a, b)):
            assert s.is_zero(a) or s.is_zero(b)
        if s.zero_sum_free and s.is_zero(s.add(a, b)):
            assert s.is_zero(a) and s.is_zero(b)


def test_nontrivial():
    for s in ALL:
        assert s.zero != s.one


@pytest.mark.parametrize("name", ["boolean", "natural", "real"])
def test_acc_empty_total_is_zero(name):
    s = builtin_semiring(name)
    assert acc_new(s).total() == s.zero


def test_acc_rejects_non_sum_maintainable():
    with pytest.raises(CapabilityError):
        acc_new(builtin_semiring("tropical-min"))


def test_acc_natural_inserts():
    s = builtin_semiring("natural")
    a = acc_new(s)
    a.insert(3)
    a.insert(4)
    assert a.total() == 7
    a.delete(3)
    assert a.total() == 4


def test_acc_boolean_multiset_semantics():
    s = builtin_semiring("boolean")
    a = acc_new(s)
    a.insert(s.one)
    a.insert(s.one)
    assert a.total() == s.one
    a.delete(s.one)
    assert a.total() == s.one  # one copy remains
    a.delete(s.one)
    assert a.total() == s.zero


def test_acc_real_reference():
    s = builtin_semiring("real")
    a = acc_new(s)
    a.insert(1.5)
    a.insert(-0.5)
    assert a.total() == 1.0


def test_acc_delete_from_empty_is_contract_violation():
    s = builtin_semiring("natural")
    a = acc_new(s)
    with pytest.raises(ContractViolationError):
        a.delete(1)


@pytest.mark.parametrize("name", ["boolean", "natural", "real"])
def test_acc_random_interleavings_match_reference(name):
    s = builtin_semiring(name)
    rng = random.Random(7)
    acc = acc_new(s)
    members = []
    for step in range(10_000):
        if members and rng.random() < 0.4:
            v = members.pop(rng.randrange(len(members)))
            acc.delete(v)
        else:
            v = s.sample(rng)
            members.append(v)
            acc.insert(v)
        if step % 500 == 0 or not members:
            want = fold(s, members)
            got = acc.total()
            if name == "real":
                assert got == pytest.approx(want, rel=1e-6, abs=1e-9)
            else:
                assert got == want


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=120)
def test_sum_of_ones_matches_linear_fold(n):
    for s in ALL:
        assert sum_of_ones(s, n) == fold(s, [s.one] * n)


def test_sum_of_ones_examples():
    assert sum_of_ones(builtin_semiring("natural"), 5) == 5
    b = builtin_semiring("boolean")
    assert sum_of_ones(b, 3) == b.one
    assert sum_of_ones(b, 0) == b.zero
