import random

import pytest

from deltaenum.errors import CapabilityError, ClassificationError, VocabularyError
from deltaenum.kdata import AnnotatedRelation, Database
from deltaenum.oracle import oracle_eval_cq
from deltaenum.query import parse_query
from deltaenum.semiring import builtin_semiring
from deltaenum.static_engine import (
    enumerate_state,
    eval_materialized,
    preprocess,
    verify_node_invariants,
)

from test_query import random_cq

NAT = builtin_semiring("natural")
BOOL = builtin_semiring("boolean")
REAL = builtin_semiring("real")


def make_db(semiring, relations, constants=None):
    db = Database(semiring, constants=dict(constants or {}))
    for name, (arity, entries) in relations.items():
        db.relations[name] = AnnotatedRelation(arity, dict(entries))
    return db


# ---------------------------------------------------------------------------
# preprocess + enumerate oracle equivalence
# ---------------------------------------------------------------------------

def test_preprocess_projection_aggregates():
    q = parse_query("H(x) :- R(x,y).")
    db = make_db(NAT, {"R": (2, {(1, 2): 2, (1, 3): 1, (4, 4): 5})})
    state = preprocess(q, db)
    root_rel = state.relations[state.plan.root]
    assert root_rel == {(1,): 3, (4,): 5}
    assert verify_node_invariants(state) == []


def test_preprocess_empty_db():
    q = parse_query("H(x) :- R(x,y).")
    db = make_db(NAT, {"R": (2, {})})
    state = preprocess(q, db)
    assert list(enumerate_state(state)) == []


def test_preprocess_semijoin_example():
    q = parse_query("H(x,y) :- R(x,y), S(y).")
    db = make_db(NAT, {"R": (2, {(1, 2): 2}), "S": (1, {(2,): 3, (9,): 1})})
    state = preprocess(q, db)
    assert state.relations[state.plan.root] == {(1, 2): 6}
    assert dict(enumerate_state(state)) == {(1, 2): 6}


def test_preprocess_rejects_non_free_connex():
    q = parse_query("H(x,y) :- R(x,z), S(z,y).")
    db = make_db(NAT, {"R": (2, {}), "S": (2, {})})
    with pytest.raises(ClassificationError):
        preprocess(q, db)


# atoms that disagree with the database vocabulary: arity too small, arity
# too large, unknown relation symbol
VOCABULARY_MISMATCHES = ["H(x) :- R(x).", "H(x) :- R(x,y,z).", "H(x) :- Q(x)."]


@pytest.mark.parametrize("text", VOCABULARY_MISMATCHES)
def test_preprocess_rejects_vocabulary_mismatch(text):
    db = make_db(NAT, {"R": (2, {(1, 1): 1, (3, 2): 2, (2, 3): 3})})
    with pytest.raises(VocabularyError):
        preprocess(parse_query(text), db)


def test_preprocess_rejects_zero_divisor_semirings():
    class Mod6:
        pass

    from deltaenum.semiring import SemiringDescriptor

    mod6 = SemiringDescriptor(
        name="mod6",
        zero=0,
        one=1,
        add=lambda a, b: (a + b) % 6,
        mul=lambda a, b: (a * b) % 6,
        is_zero=lambda a: a == 0,
        zero_divisor_free=False,
        zero_sum_free=False,
        sum_maintainable=False,
        parse=int,
        format=str,
        sample=lambda rng: rng.randrange(6),
    )
    q = parse_query("H(x) :- R(x).")
    db = Database(mod6)
    db.relations["R"] = AnnotatedRelation(1, {})
    with pytest.raises(CapabilityError):
        preprocess(q, db)


def test_enumerate_full_join():
    q = parse_query("H(x,y,z) :- R(x,z), S(z,y).")
    db = make_db(NAT, {"R": (2, {(1, 2): 2}), "S": (2, {(2, 4): 3})})
    assert dict(enumerate_state(preprocess(q, db))) == {(1, 4, 2): 6}


def test_enumerate_pure_inequality_query():
    q = parse_query("Q(z) :- z <= d.")
    db = make_db(NAT, {}, {"d": 2})
    assert dict(enumerate_state(preprocess(q, db))) == {(1,): 1, (2,): 1}


def test_enumerate_identity_matrix_query():
    q = parse_query("I(x,x) :- x <= alpha.")
    db = make_db(BOOL, {}, {"alpha": 3})
    assert dict(enumerate_state(preprocess(q, db))) == {
        (1, 1): True,
        (2, 2): True,
        (3, 3): True,
    }


def test_eval_materialized_zero_erasure():
    q = parse_query("H(x) :- R(x,y).")
    db = make_db(REAL, {"R": (2, {(1, 1): 2.0, (1, 2): -2.0})})
    assert eval_materialized(q, db).entries == {}


def test_enumerate_limit_and_no_duplicates():
    q = parse_query("H(x,y) :- R(x,y).")
    entries = {(i, j): 1 for i in range(1, 6) for j in range(1, 6)}
    db = make_db(NAT, {"R": (2, entries)})
    state = preprocess(q, db)
    out = list(enumerate_state(state, limit=7))
    assert len(out) == 7
    full = list(enumerate_state(state))
    assert len(full) == len(set(t for t, _ in full)) == 25


def test_cancelled_projection_does_not_block_connex_navigation():
    # over the reals the root aggregate for x=1 cancels to zero, but both
    # output rows (x,y) survive because y is free
    q = parse_query("H(x,y) :- R(x,y).")
    db = make_db(REAL, {"R": (2, {(1, 1): 2.0, (1, 2): -2.0})})
    got = dict(enumerate_state(preprocess(q, db)))
    assert got == {(1, 1): 2.0, (1, 2): -2.0}


# ---------------------------------------------------------------------------
# Random oracle equivalence
# ---------------------------------------------------------------------------

def random_db(rng: random.Random, q, semiring, max_tuples=30, domain=5):
    db = Database(semiring)
    arities = {}
    for atom in q.relational_atoms:
        arities[atom.symbol] = len(atom.args)
    for symbol, arity in arities.items():
        rel = AnnotatedRelation(arity)
        for _ in range(rng.randrange(0, max_tuples // max(1, len(arities)) + 1)):
            t = tuple(rng.randrange(1, domain + 1) for _ in range(arity))
            value = semiring.sample(rng)
            if not semiring.is_zero(value):
                rel.entries[t] = value
        db.relations[symbol] = rel
    for const in ("c", "d"):
        db.constants[const] = rng.randrange(1, domain + 1)
    return db


def equal_answers(got, want, semiring):
    if semiring.name == "real":
        if set(got) != set(want):
            return False
        return all(abs(got[t] - want[t]) <= 1e-9 for t in got)
    return got == want


@pytest.mark.parametrize("sname", ["boolean", "natural", "real"])
def test_random_oracle_equivalence(sname):
    semiring = builtin_semiring(sname)
    rng = random.Random(600 + len(sname))
    found = 0
    while found < 400:
        q = random_cq(rng)
        from deltaenum.planner import is_free_connex

        if not is_free_connex(q):
            continue
        found += 1
        db = random_db(rng, q, semiring)
        state = preprocess(q, db)
        got = dict(enumerate_state(state))
        want = oracle_eval_cq(q, db).entries
        assert equal_answers(got, want, semiring), (q.to_text(), db.relations, db.constants)
        assert verify_node_invariants(state) == []
        assert all(not semiring.is_zero(v) for v in got.values())


def test_enumerate_cross_product_multi_node_connex():
    # free variables split across branches force a multi-node connex region
    q = parse_query("H(x,y) :- A(x), B(y).")
    db = make_db(NAT, {"A": (1, {(1,): 2, (3,): 1}), "B": (1, {(2,): 5})})
    state = preprocess(q, db)
    assert len(state.plan.connex) > 1
    assert dict(enumerate_state(state)) == {(1, 2): 10, (3, 2): 5}
    assert dict(enumerate_state(state)) == oracle_eval_cq(q, db).entries


def test_enumerate_self_join_with_covered_inequality():
    # the same stored tuple feeds two atoms with different inequality filters
    q = parse_query("H() :- R(x,y), R(y,x), x <= c.")
    db = make_db(NAT, {"R": (2, {(1, 5): 1, (5, 1): 1})}, {"c": 2})
    got = dict(enumerate_state(preprocess(q, db)))
    assert got == oracle_eval_cq(q, db).entries == {(): 1}


def test_tropical_min_plus_aggregation():
    # min-plus semiring: projection takes the cheapest extension
    TROP = builtin_semiring("tropical-min")
    q = parse_query("H(x) :- R(x,y), S(y).")
    db = make_db(
        TROP,
        {"R": (2, {(1, 2): 3.0, (1, 3): 1.0, (2, 2): 7.0}), "S": (1, {(2,): 10.0, (3,): 100.0})},
    )
    got = dict(enumerate_state(preprocess(q, db)))
    # x=1: min(3+10, 1+100) = 13; x=2: 7+10 = 17
    assert got == {(1,): 13.0, (2,): 17.0}
    assert got == oracle_eval_cq(q, db).entries


def test_two_interleaved_cursors_are_independent():
    q = parse_query("H(x,y) :- R(x,y).")
    entries = {(i, j): 1 for i in range(1, 4) for j in range(1, 4)}
    db = make_db(NAT, {"R": (2, entries)})
    state = preprocess(q, db)
    a, b = enumerate_state(state), enumerate_state(state)
    seen_a, seen_b = [], []
    for _ in range(9):
        seen_a.append(next(a))
        seen_b.append(next(b))
    assert seen_a == seen_b
    assert len(seen_a) == 9
