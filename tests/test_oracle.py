from deltaenum.oracle import oracle_eval_cq, oracle_eval_ucq
from deltaenum.query import parse_query, parse_rule, rule_union
from deltaenum.semiring import builtin_semiring

from test_static_engine import make_db

NAT = builtin_semiring("natural")
BOOL = builtin_semiring("boolean")


def test_relational_atom_is_the_relation():
    db = make_db(NAT, {"R": (2, {(1, 2): 2, (3, 1): 5})})
    out = oracle_eval_ucq(rule_union(parse_rule("H(x,y) :- R(x,y).")), db)
    assert out == {(1, 2): 2, (3, 1): 5}


def test_exists_sums_extensions():
    db = make_db(NAT, {"R": (2, {(1, 2): 2, (1, 3): 1})})
    out = oracle_eval_cq(parse_query("H(x) :- R(x,y)."), db)
    assert out.entries == {(1,): 3}


def test_comparison_semantics():
    db = make_db(NAT, {}, constants={"c": 2})
    out = oracle_eval_cq(parse_query("H(x) :- x <= c."), db)
    assert out.entries == {(1,): 1, (2,): 1}


def test_identity_query():
    db = make_db(NAT, {}, constants={"alpha": 2})
    out = oracle_eval_cq(parse_query("I(x,x) :- x <= alpha."), db)
    assert out.entries == {(1, 1): 1, (2, 2): 1}


def test_single_atom_full_query_is_identity():
    db = make_db(NAT, {"R": (2, {(1, 2): 2, (3, 1): 5})})
    out = oracle_eval_cq(parse_query("H(x,y) :- R(x,y)."), db)
    assert out.entries == db.relations["R"].entries


def test_join_example():
    db = make_db(NAT, {"R": (2, {(1, 2): 2}), "S": (2, {(2, 4): 3})})
    out = oracle_eval_cq(parse_query("H(x,y,z) :- R(x,z), S(z,y)."), db)
    assert out.entries == {(1, 4, 2): 6}


def test_repeated_variable_atom():
    db = make_db(NAT, {"S": (2, {(1, 1): 2, (1, 2): 7})})
    out = oracle_eval_cq(parse_query("H(x) :- S(x,x)."), db)
    assert out.entries == {(1,): 2}


def test_cancellation_in_projection():
    REAL = builtin_semiring("real")
    db = make_db(REAL, {"R": (2, {(1, 1): 2.0, (1, 2): -2.0})})
    out = oracle_eval_cq(parse_query("H(x) :- R(x,y)."), db)
    assert out.entries == {}


def test_union_sums_the_answers_of_its_cqs():
    REAL = builtin_semiring("real")
    db = make_db(REAL, {"R": (1, {(1,): 2.0, (3,): 0.5}), "S": (2, {(1, 1): -2.0, (2, 2): 1.0, (3, 1): 0.25})})
    out = oracle_eval_ucq(rule_union(parse_rule("H(x) :- R(x) ; S(x,x).")), db)
    assert out == {(3,): 0.5, (2,): 1.0}  # 2.0 + -2.0 cancels
