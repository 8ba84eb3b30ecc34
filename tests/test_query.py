import random

import pytest

from deltaenum.errors import NotConjunctiveError, QuerySyntaxError, UnsafeFormulaError
from deltaenum.query import (
    ConjunctiveQuery,
    IneqAtom,
    RelAtom,
    has_self_join,
    is_constant_disjoint,
    parse_query,
    parse_ucq,
    split,
)


def test_parse_basic_join():
    q = parse_query("H(x,y) :- R(x,z), S(z,y).")
    assert q.head_symbol == "H"
    assert q.head_vars == ("x", "y")
    assert q.bound_vars == ("z",)
    assert q.relational_atoms == (RelAtom("R", ("x", "z")), RelAtom("S", ("z", "y")))


def test_parse_repeated_head_variable():
    q = parse_query("I(x,x) :- x <= alpha.")
    assert q.head_vars == ("x", "x")
    assert q.atoms == (IneqAtom("x", "alpha"),)


def test_parse_rejects_disjunction_distinctly():
    with pytest.raises(NotConjunctiveError):
        parse_query("H(x) :- R(x) ; S(x).")


def test_parse_fo_query_accepts_disjunction():
    assert parse_ucq("H(x) :- R(x,y), y <= c ; S(x).") == (
        ConjunctiveQuery("H", ("x",), (RelAtom("R", ("x", "y")), IneqAtom("y", "c"))),
        ConjunctiveQuery("H", ("x",), (RelAtom("S", ("x",)),)),
    )


def test_parse_ucq_rejects_a_block_without_a_head_variable():
    with pytest.raises(UnsafeFormulaError, match=r"\['x'\] missing"):
        parse_ucq("H(x) :- R(x) ; S(y).")


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
    q = parse_query("H(y,z) :- R(x,y), y<=c, z<=d.")
    sp = split(q)
    assert sp.rel_part.head_vars == ("y",)
    assert sp.rel_part.atoms == (RelAtom("R", ("x", "y")),)
    assert sp.covered[0] == (IneqAtom("y", "c"),)
    assert sp.ineq_part.head_vars == ("z",)
    assert sp.ineq_part.atoms == (IneqAtom("z", "d"),)


def test_split_no_inequalities_gives_canonical_true():
    q = parse_query("H(x) :- R(x).")
    sp = split(q)
    assert sp.ineq_part.head_vars == ()
    assert sp.ineq_part.atoms == (IneqAtom("x", "1"),)


def test_split_covered_only():
    q = parse_query("H(x) :- R(x), x<=c.")
    sp = split(q)
    assert sp.ineq_part.atoms == (IneqAtom("x", "1"),)
    assert sp.covered[0] == (IneqAtom("x", "c"),)


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

from support import random_cq, random_db_for_query


def test_split_partitions_free_vars_on_corpus():
    rng = random.Random(20240812)
    for _ in range(1000):
        q = random_cq(rng)
        sp = split(q)
        rel_free = set(sp.rel_part.head_vars)
        ineq_free = set(sp.ineq_part.head_vars)
        assert rel_free & ineq_free == set()
        assert rel_free | ineq_free == set(q.head_vars)
        # covered iff some relational atom mentions the variable
        rel_vars = set()
        for a in q.relational_atoms:
            rel_vars |= a.vars
        covered_ineqs = {i for v in sp.covered.values() for i in v}
        for ineq in q.inequality_atoms:
            assert (ineq in covered_ineqs) == (ineq.var in rel_vars)


def atomically_consistent(db, q):
    """Copy of ``db`` without the tuples that match some atom of ``q`` but
    violate an inequality that atom covers."""
    sp = split(q)
    out = db.copy()
    for i, atom in enumerate(sp.rel_part.relational_atoms):
        entries = out.relations[atom.symbol].entries
        for t in list(entries):
            # t matches the atom when the components at a repeated variable agree
            value = {}
            if all(value.setdefault(v, x) == x for v, x in zip(atom.args, t)):
                if any(value[ineq.var] > db.constant(ineq.bound) for ineq in sp.covered[i]):
                    del entries[t]
    return out


def test_split_product_identity_on_atomically_consistent_dbs():
    # on an atomically consistent database the query factorizes into the
    # product of its relational and inequality parts
    from deltaenum.oracle import oracle_eval_cq
    from deltaenum.semiring import builtin_semiring

    NAT = builtin_semiring("natural")
    rng = random.Random(424242)
    checked = 0
    while checked < 300:
        q = random_cq(rng)
        db = atomically_consistent(random_db_for_query(rng, q, NAT), q)
        sp = split(q)
        full = oracle_eval_cq(q, db).entries
        rel = oracle_eval_cq(sp.rel_part, db).entries
        ineq = oracle_eval_cq(sp.ineq_part, db).entries
        product = {}
        for t1, v1 in rel.items():
            env = dict(zip(sp.rel_part.head_vars, t1))
            for t2, v2 in ineq.items():
                env.update(zip(sp.ineq_part.head_vars, t2))
                product[tuple(env[v] for v in q.head_vars)] = v1 * v2
        assert product == full, q.to_text()
        checked += 1
