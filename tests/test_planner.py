import random

from deltaenum.planner import (
    build_fc_ghd,
    build_fc_plan,
    build_guarded_plan,
    build_join_tree,
    classify,
    disconnected_variables,
    verify_plan,
)
from deltaenum.query import RelAtom, parse_query, split

from test_query import random_cq


def join_tree_disconnected(jt):
    return disconnected_variables({i: a.vars for i, a in enumerate(jt.atoms)}, jt.edges)


def test_join_tree_path_query():
    jt = build_join_tree(parse_query("H(x,y,z) :- R(x,z), S(z,y).").atoms)
    assert jt is not None
    assert len(jt.edges) == 1
    assert join_tree_disconnected(jt) == []


def test_join_tree_triangle_is_cyclic():
    jt = build_join_tree(parse_query("H(x,y,z) :- R(x,y), S(y,z), T(z,x).").atoms)
    assert jt is None


def test_join_tree_star():
    q = parse_query("H(x,y) :- A(x,y), U(x), V(y).")
    jt = build_join_tree(q.atoms)
    assert jt is not None
    # A is adjacent to both U and V
    a_ix = q.atoms.index(RelAtom("A", ("x", "y")))
    neighbors = jt.neighbors()[a_ix]
    assert len(neighbors) == 2
    assert join_tree_disconnected(jt) == []


def test_classify_textbook_fixtures():
    fixtures = [
        ("H(x,y) :- A(x,z), B(z,y).", dict(acyclic=True, free_connex=False, q_hierarchical=False)),
        ("H(x) :- A(x,y), U(x).", dict(free_connex=True, q_hierarchical=True)),
        ("H(x) :- A(x,y), U(y).", dict(free_connex=True, q_hierarchical=False)),
        ("H(x,y) :- A(x,y), U(x), V(y).", dict(free_connex=True, q_hierarchical=False)),
    ]
    for text, expected in fixtures:
        flags = classify(parse_query(text)).as_dict()
        for key, want in expected.items():
            assert flags[key] == want, (text, key, flags)


def test_classify_inequalities_are_unary_for_acyclicity():
    # the triangle plus inequalities stays cyclic; inequalities never help
    assert not classify(parse_query("H(x,y,z) :- R(x,y), S(y,z), T(z,x), x<=c.")).acyclic
    assert classify(parse_query("H(x) :- R(x,y), x<=c, y<=d.")).acyclic


def test_fc_ghd_single_atom():
    q = parse_query("H(x,y) :- R(x,y).")
    ghd, connex = build_fc_ghd(q)
    assert len(connex) == 1
    assert len(ghd.bags) <= 2
    (u,) = connex
    assert ghd.bags[u] == frozenset({"x", "y"})
    assert ghd.is_complete()
    assert disconnected_variables(ghd.bags, ghd.edges) == []


def test_fc_ghd_projection_query():
    q = parse_query("H(x) :- A(x,y), U(y).")
    ghd, connex = build_fc_ghd(q)
    assert all(ghd.bags[u] <= {"x"} for u in connex)
    assert len(connex) <= 1
    assert ghd.is_complete()


def test_fc_ghd_rejects_non_free_connex():
    assert build_fc_ghd(parse_query("H(x,y) :- A(x,z), B(z,y).")) is None


def test_fc_plan_single_atom():
    q = parse_query("H(x,y) :- R(x,y).")
    plan = build_fc_plan(q)
    assert plan is not None
    root = plan.nodes[plan.root]
    assert plan.vars(plan.root) == frozenset({"x", "y"})
    assert not root.is_leaf and len(root.children) == 1
    assert plan.nodes[root.children[0]].is_leaf
    assert plan.connex == {plan.root}
    assert verify_plan(plan, split(q).rel_part) == []


def test_fc_plan_projection_query():
    q = parse_query("H(x) :- A(x,y), U(y).")
    plan = build_fc_plan(q)
    assert verify_plan(plan, split(q).rel_part) == []
    assert plan.vars(plan.root) == frozenset({"x"})


def test_guarded_plan_filtered_projection():
    q = parse_query("H(x) :- A(x,y), U(x).")
    plan = build_guarded_plan(q)
    assert plan is not None
    assert plan.guarded
    assert verify_plan(plan, split(q).rel_part) == []
    assert plan.connex_vars() == frozenset({"x"})


def test_guarded_plan_rejects_non_qh():
    assert build_guarded_plan(parse_query("H(x) :- A(x,y), U(y).")) is None


def test_guarded_plan_single_atom():
    q = parse_query("H(x,y) :- R(x,y).")
    plan = build_guarded_plan(q)
    assert plan is not None and plan.guarded
    assert verify_plan(plan, split(q).rel_part) == []


def test_guarded_plan_cross_product():
    q = parse_query("H(x,y) :- A(x), B(y).")
    plan = build_guarded_plan(q)
    assert plan is not None and plan.guarded
    assert verify_plan(plan, split(q).rel_part) == []
    assert plan.connex_vars() == frozenset({"x", "y"})


def corpus(seed, count, **kw):
    rng = random.Random(seed)
    return [random_cq(rng, **kw) for _ in range(count)]


def test_fc_plan_exists_iff_free_connex_on_corpus():
    for q in corpus(1001, 1000):
        flags = classify(q)
        built = build_fc_ghd(q)
        rel = split(q).rel_part
        if not rel.relational_atoms:
            assert flags.free_connex  # empty relational part is trivially fc
            continue
        assert flags.free_connex == (built is not None), q.to_text()
        if built is not None:
            ghd, connex = built
            assert ghd.is_complete(), q.to_text()
            assert disconnected_variables(ghd.bags, ghd.edges) == [], q.to_text()
            assert len(ghd.bags) <= 2 * len(rel.relational_atoms), q.to_text()
            if rel.head_vars:
                assert len(connex) <= len(rel.head_vars), q.to_text()
            plan = build_fc_plan(q)
            assert verify_plan(plan, rel) == [], (q.to_text(), verify_plan(plan, rel))


def test_guarded_plan_exists_iff_q_hierarchical_on_corpus():
    for q in corpus(2002, 1000):
        flags = classify(q)
        rel = split(q).rel_part
        if not rel.relational_atoms:
            continue
        plan = build_guarded_plan(q)
        assert flags.q_hierarchical == (plan is not None), q.to_text()
        if plan is not None:
            assert plan.guarded
            assert verify_plan(plan, rel) == [], (q.to_text(), verify_plan(plan, rel))


def test_q_hierarchical_implies_free_connex_on_corpus():
    for q in corpus(3003, 1000):
        flags = classify(q)
        if flags.q_hierarchical:
            assert flags.free_connex, q.to_text()


def _all_trees(n):
    # labeled trees on n nodes from Prüfer sequences
    import itertools

    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        seq = list(seq)
        edges = []
        leaves = sorted(v for v in range(n) if degree[v] == 1)
        for v in seq:
            leaf = leaves.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                import bisect

                bisect.insort(leaves, v)
        edges.append((leaves[0], leaves[1]))
        yield edges


def _has_join_tree_brute_force(atoms):
    from deltaenum.planner import JoinTree

    n = len(atoms)
    for edges in _all_trees(n):
        if join_tree_disconnected(JoinTree(tuple(atoms), tuple(edges))) == []:
            return True
    return False


def test_gyo_agrees_with_brute_force_tree_enumeration():
    rng = random.Random(20240815)
    for _ in range(400):
        q = random_cq(rng, max_atoms=5, max_vars=5)
        atoms = q.atoms
        if len(atoms) > 5:
            continue
        jt = build_join_tree(atoms)
        want = _has_join_tree_brute_force(atoms)
        assert (jt is not None) == want, q.to_text()
        if jt is not None:
            assert join_tree_disconnected(jt) == [], q.to_text()
            assert len(jt.edges) == len(atoms) - 1
