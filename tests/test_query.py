import random

import pytest

from deltaenum.errors import NotConjunctiveError, QuerySyntaxError, UnsafeFormulaError
from deltaenum.planner import build_fc_plan
from deltaenum.query import (
    ConjunctiveQuery,
    IneqAtom,
    RelAtom,
    has_self_join,
    is_constant_disjoint,
    parse_query,
    parse_rule,
    rule_union,
)


def test_parse_basic_join():
    q = parse_query("H(x,y) :- R(x,z), S(z,y).")
    assert q.head_symbol == "H"
    assert q.head_vars == ("x", "y")
    assert q.relational_atoms == (RelAtom("R", ("x", "z")), RelAtom("S", ("z", "y")))


def test_parse_repeated_head_variable():
    q = parse_query("I(x,x) :- x <= alpha.")
    assert q.head_vars == ("x", "x")
    assert q.atoms == (IneqAtom("x", "alpha"),)


def test_parse_rejects_disjunction_distinctly():
    with pytest.raises(NotConjunctiveError):
        parse_query("H(x) :- R(x) ; S(x).")


def test_parse_fo_query_accepts_disjunction():
    assert rule_union(parse_rule("H(x) :- R(x,y), y <= c ; S(x).")) == (
        ConjunctiveQuery("H", ("x",), (RelAtom("R", ("x", "y")), IneqAtom("y", "c"))),
        ConjunctiveQuery("H", ("x",), (RelAtom("S", ("x",)),)),
    )


def test_parse_ucq_rejects_a_block_without_a_head_variable():
    with pytest.raises(UnsafeFormulaError, match=r"\['x'\] missing"):
        rule_union(parse_rule("H(x) :- R(x) ; S(y)."))


def test_parse_errors():
    with pytest.raises(QuerySyntaxError):
        parse_query("H(x) :- R(x)")  # missing final dot
    with pytest.raises(QuerySyntaxError):
        parse_query("H(x) :- R(y).")  # head var not free in body
    with pytest.raises(QuerySyntaxError):
        parse_query("H(x) :- H(x).")  # head symbol in body
    with pytest.raises(QuerySyntaxError):
        parse_query("H(x) :- R(x), R(x,y).")  # inconsistent arity


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("H(x) :-\n  R(x) $", "unexpected character '$'", 2, 8),
        ("H(x) :- R(x", "unexpected end of input", 1, 1),
        ("H(x) :- R(x). S", "trailing input after query: 'S'", 1, 15),
    ],
)
def test_parse_errors_carry_positions(text, message, line, column):
    with pytest.raises(QuerySyntaxError) as exc:
        parse_query(text)
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_parse_comments_and_whitespace():
    q = parse_query("# header\nH(x) :-\n  R(x). # tail\n")
    assert q.to_text() == "H(x) :- R(x)."


def test_roundtrip_is_fixpoint():
    texts = [
        "H(x, y) :- R(x, z), S(z, y).",
        "I(x, x) :- x <= alpha.",
        "H(y, z) :- R(x, y), y <= c, z <= d.",
        "B() :- R(x, y), x <= c.",
    ]
    for text in texts:
        q = parse_query(text)
        assert parse_query(q.to_text()).to_text() == q.to_text()


def test_split_mixed_inequalities():
    # the plan's inequality layout: y <= c is covered by R, z is a free range
    plan = build_fc_plan(parse_query("H(y,z) :- R(x,y), y<=c, z<=d."))
    assert plan.atoms == (RelAtom("R", ("x", "y")),)
    assert plan.covered == (("y",),)
    assert plan.ranges == ("z",)
    assert plan.summed == ()


def test_split_covered_only():
    plan = build_fc_plan(parse_query("H(x) :- R(x), x<=c."))
    assert plan.covered == (("x",),)
    assert plan.ranges == () and plan.summed == ()


def test_constant_disjoint_covered_one():
    ok, witness = is_constant_disjoint(parse_query("H(x) :- R(x), x<=1."))
    assert not ok and witness == (IneqAtom("x", "1"), None)


def test_constant_disjoint_shared_free():
    ok, witness = is_constant_disjoint(parse_query("H(x,y) :- R(x), x<=c, y<=c."))
    assert not ok and witness == (IneqAtom("x", "c"), IneqAtom("y", "c"))


def test_constant_disjoint_vacuous():
    ok, witness = is_constant_disjoint(parse_query("H(x) :- R(x), x<=c."))
    assert ok and witness is None


def test_constant_disjoint_shared_bound_is_fine():
    q = parse_query("H(x) :- R(x), x<=c, y<=c.")  # y bound
    assert is_constant_disjoint(q)[0]


def test_has_self_join():
    assert has_self_join(parse_query("H(x,y) :- R(x,z), R(z,y)."))
    assert not has_self_join(parse_query("H(x,y) :- R(x,z), S(z,y)."))
    assert not has_self_join(parse_query("H(x) :- R(x), x<=c, x<=d."))


# ---------------------------------------------------------------------------
# Random corpus properties
# ---------------------------------------------------------------------------

from support import random_db_for_query, random_free_connex_cq


def test_split_partitions_free_vars_on_corpus():
    rng = random.Random(20240812)
    for _ in range(1000):
        q = random_free_connex_cq(rng)
        plan = build_fc_plan(q)
        rel_free = {v for nid in plan.connex for v in plan.vars(nid)}
        assert rel_free & set(plan.ranges) == set()
        assert rel_free | set(plan.ranges) == set(q.head_vars)
        assert list(plan.ranges) == [v for v in dict.fromkeys(q.head_vars) if v in plan.ranges]
        # an inequality is covered by exactly the atoms that mention its variable
        for atom, covered in zip(plan.atoms, plan.covered):
            assert set(covered) == {i.var for i in q.inequality_atoms if i.var in atom.vars}


def atomically_consistent(db, q, plan):
    """Copy of ``db`` without the tuples that match some atom of ``q`` but
    violate an inequality that atom covers, by ``plan.covered``."""
    out = db.copy()
    for atom, covered in zip(plan.atoms, plan.covered):
        entries = out.relations[atom.symbol].entries
        for t in list(entries):
            # t matches the atom when the components at a repeated variable agree
            value = {}
            if all(value.setdefault(v, x) == x for v, x in zip(atom.args, t)):
                if any(
                    value[ineq.var] > db.constant(ineq.bound)
                    for ineq in q.inequality_atoms
                    if ineq.var in covered
                ):
                    del entries[t]
    return out


def test_split_product_identity_on_atomically_consistent_dbs():
    # on an atomically consistent database the query factorizes into the
    # product of its relational part and its uncovered inequalities, which
    # the plan lays out as its free ranges and summed variables
    from deltaenum.oracle import oracle_eval_cq
    from deltaenum.semiring import builtin_semiring

    NAT = builtin_semiring("natural")
    rng = random.Random(424242)
    checked = 0
    while checked < 300:
        q = random_free_connex_cq(rng)
        plan = build_fc_plan(q)
        db = atomically_consistent(random_db_for_query(rng, q, NAT), q, plan)
        rel_head = tuple(v for v in dict.fromkeys(q.head_vars) if v not in plan.ranges)
        covered = set().union(*plan.covered)
        uncovered = tuple(i for i in q.inequality_atoms if i.var not in covered)
        full = oracle_eval_cq(q, db).entries
        rel = oracle_eval_cq(ConjunctiveQuery("H", rel_head, plan.atoms), db).entries
        ineq = {(): 1}  # the true query, when every inequality is covered
        if uncovered:
            ineq = oracle_eval_cq(ConjunctiveQuery("H", plan.ranges, uncovered), db).entries
        product = {}
        for t1, v1 in rel.items():
            env = dict(zip(rel_head, t1))
            for t2, v2 in ineq.items():
                env.update(zip(plan.ranges, t2))
                product[tuple(env[v] for v in q.head_vars)] = v1 * v2
        assert product == full, q.to_text()
        checked += 1
