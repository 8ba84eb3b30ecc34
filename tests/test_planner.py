import json
import random

from deltaenum.matlang import load_matrix_schema, parse_matlang, translate_to_cq, with_head
from deltaenum.planner import (
    PlanNode,
    build_fc_plan,
    build_guarded_plan,
    classify,
)
from deltaenum.query import parse_query

from support import connex_vars, disconnected_variables, random_cq, relational_free, verify_plan


def test_join_tree_triangle_is_cyclic():
    q = parse_query("H(x,y,z) :- R(x,y), S(y,z), T(z,x).")
    assert not _has_join_tree([a.vars for a in q.atoms])
    assert not classify(q).acyclic


def test_empty_relational_part_is_in_every_class():
    q = parse_query("H(x) :- x <= c.")
    flags = classify(q).as_dict()
    assert flags["acyclic"] and flags["free_connex"] and flags["q_hierarchical"]
    # its plans have no nodes: no root, no levels, nothing stored
    for plan in (build_fc_plan(q), build_guarded_plan(q)):
        assert not plan.nodes and plan.root is None and not plan.levels and not plan.stored
        assert plan.bounded == plan.ranges == ("x",) and not plan.summed


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


def test_fc_ghd_rejects_non_free_connex():
    assert build_fc_plan(parse_query("H(x,y) :- A(x,z), B(z,y).")) is None


def test_fc_plan_single_atom():
    q = parse_query("H(x,y) :- R(x,y).")
    plan = build_fc_plan(q)
    assert plan is not None
    assert plan.vars(plan.root) == frozenset({"x", "y"})
    assert plan.nodes[plan.root].is_leaf
    assert plan.connex == {plan.root}
    assert verify_plan(plan, relational_free(q)) == []


def test_fc_plan_full_join_has_no_identity_nodes():
    q = parse_query("H(x,y,z) :- R(x,y), S(y,z).")
    plan = build_fc_plan(q)
    assert verify_plan(plan, relational_free(q)) == []
    # the two leaves, the projection of S onto y, and their join
    assert len(plan.nodes) == 4


def test_verify_plan_rejects_identity_and_misoriented_nodes():
    q = parse_query("H(x,y,z) :- R(x,y), S(y,z).")
    free = relational_free(q)
    plan = build_fc_plan(q)
    plan.nodes[plan.root].children.reverse()
    assert verify_plan(plan, free) == [
        f"2-child node {plan.root}: first child lacks the node's variables"
    ]
    plan.nodes[plan.root].children.reverse()
    top = max(plan.nodes) + 1
    plan.nodes[top] = PlanNode(plan.vars(plan.root), None, [plan.root])
    plan.nodes[plan.root].parent = top
    plan.root = top
    plan.connex.add(top)
    assert verify_plan(plan, free) == [f"node {top} is an identity copy of its child"]


def test_levels_cut_the_connex_region_and_verify_plan_checks_them():
    q = parse_query("H(x,y,z) :- R(x,y), S(y,z).")
    free = relational_free(q)
    plan = build_fc_plan(q)
    # the root's candidates (x, y), then the group of S under y
    assert [(lv.source, lv.order) for lv in plan.levels] == [(None, ("x", "y")), (0, ("y", "z"))]
    assert sorted(n for lv in plan.levels for n in lv.nodes) == sorted(plan.connex)
    levels = plan.levels
    plan.levels = levels[:1]
    assert verify_plan(plan, free) == [
        f"levels walk connex nodes {sorted(levels[0].nodes)}, not {sorted(plan.connex)}",
        "level variables ['x', 'y'] != free vars ['x', 'y', 'z']",
    ]
    plan.levels = levels + levels[1:]
    assert len(verify_plan(plan, free)) == 1
    plan.levels = levels
    assert verify_plan(plan, free) == []


def test_verify_plan_checks_the_stored_set():
    q = parse_query("H(x,y) :- A(x,y), U(x), V(y).")
    free = relational_free(q)
    plan = build_fc_plan(q)
    stored = plan.stored
    guard = plan.nodes[plan.root].children[0]  # A joined with V, streamed
    plan.stored = stored | {guard}
    assert verify_plan(plan, free) == [f"node {guard} should be streamed"]
    plan.stored = stored - {plan.root}
    assert verify_plan(plan, free) == [f"node {plan.root} should be stored"]
    plan.stored = stored
    assert verify_plan(plan, free) == []
    # a guarded plan streams nothing: an update looks up both children
    q = parse_query("H(x) :- A(x,y), U(x).")
    guarded = build_guarded_plan(q)
    leaf = next(n for n in guarded.stored if guarded.nodes[n].is_leaf)
    guarded.stored -= {leaf}
    assert verify_plan(guarded, relational_free(q)) == [f"node {leaf} should be stored"]


def _shape(plan, nid=None):
    """(atom or sorted label, in the connex set, children's shapes in order)."""
    nid = plan.root if nid is None else nid
    node = plan.nodes[nid]
    label = str(plan.atoms[node.atom_index]) if node.is_leaf else ",".join(sorted(plan.vars(nid)))
    return (label, nid in plan.connex, [_shape(plan, c) for c in node.children])


def _stored(plan):
    """Sorted labels of the stored nodes, the root's as "root"."""
    labels = [_shape(plan, n)[0] for n in plan.stored if n != plan.root]
    return sorted(labels + ["root"] * (plan.root in plan.stored))


def test_benchmark_query_plans_are_pinned(tmp_path):
    """The plans of the perfbench workloads' queries, node for node."""
    schema = tmp_path / "s.json"
    schema.write_text(
        json.dumps(
            {
                "sizes": {"n": 4},
                "matrices": {
                    "A": {"type": ["n", "n"]},
                    "U": {"type": ["n", "1"], "encoding": "unary"},
                    "V": {"type": ["n", "1"], "encoding": "unary"},
                },
            }
        )
    )
    matrices = load_matrix_schema(schema)
    hadamard = parse_matlang("H := A .* (U * V^T)", matrices)
    hadamard_cq = translate_to_cq(hadamard, with_head(hadamard, matrices))
    assert hadamard_cq == parse_query("H(x,y) :- A(x,y), U(x), V(y).")

    join_drain = build_fc_plan(parse_query("H(x,y,z) :- R(x,y), S(y,z)."))
    assert _shape(join_drain) == (
        "x,y", True, [("R(x, y)", True, []), ("y", True, [("S(y, z)", True, [])])],
    )
    project_agg = build_fc_plan(
        parse_query("H(x,w) :- R(x,y), S(y,z), T(z), y <= alpha, w <= beta.")
    )
    assert _shape(project_agg) == (
        "x", True, [
            ("x,y", False, [
                ("R(x, y)", False, []),
                ("y", False, [
                    ("y,z", False, [("S(y, z)", False, []), ("T(z)", False, [])]),
                ]),
            ]),
        ],
    )
    assert _shape(build_fc_plan(hadamard_cq)) == (
        "x,y", True, [
            ("x,y", False, [("A(x, y)", False, []), ("V(y)", False, [])]),
            ("U(x)", False, []),
        ],
    )
    # only the frontier, the projections and the second children of 2-child
    # nodes keep a relation
    assert _stored(join_drain) == ["R(x, y)", "S(y, z)"]
    assert _stored(project_agg) == ["T(z)", "root", "y"]
    assert _stored(build_fc_plan(hadamard_cq)) == ["U(x)", "V(y)", "root"]
    update_stream = build_guarded_plan(parse_query("H(x,y) :- R(x,y,z), S(x,y), U(x)."))
    assert _shape(update_stream) == (
        "x", True, [
            ("U(x)", True, []),
            ("x", True, [
                ("x,y", True, [
                    ("S(x, y)", True, []),
                    ("x,y", True, [("R(x, y, z)", False, [])]),
                ]),
            ]),
        ],
    )
    assert _stored(update_stream) == ["R(x, y, z)", "S(x, y)", "U(x)", "x,y"]
    below = set(update_stream.nodes) - update_stream.connex
    assert update_stream.stored == below | update_stream.frontier


def test_fc_plan_projection_query():
    q = parse_query("H(x) :- A(x,y), U(y).")
    plan = build_fc_plan(q)
    assert verify_plan(plan, relational_free(q)) == []
    assert plan.vars(plan.root) == frozenset({"x"})


def test_guarded_plan_filtered_projection():
    q = parse_query("H(x) :- A(x,y), U(x).")
    plan = build_guarded_plan(q)
    assert plan is not None
    assert plan.guarded
    assert verify_plan(plan, relational_free(q)) == []
    assert connex_vars(plan) == frozenset({"x"})


def test_guarded_plan_rejects_non_qh():
    assert build_guarded_plan(parse_query("H(x) :- A(x,y), U(y).")) is None


def test_guarded_plan_single_atom():
    q = parse_query("H(x,y) :- R(x,y).")
    plan = build_guarded_plan(q)
    assert plan is not None and plan.guarded
    assert verify_plan(plan, relational_free(q)) == []


def test_guarded_plan_cross_product():
    q = parse_query("H(x,y) :- A(x), B(y).")
    plan = build_guarded_plan(q)
    assert plan is not None and plan.guarded
    assert verify_plan(plan, relational_free(q)) == []
    assert connex_vars(plan) == frozenset({"x", "y"})


def corpus(seed, count, **kw):
    rng = random.Random(seed)
    return [random_cq(rng, **kw) for _ in range(count)]


def test_fc_plan_exists_iff_free_connex_on_corpus():
    for q in corpus(1001, 1000):
        plan = build_fc_plan(q)
        free = relational_free(q)
        assert _free_connex_by_definition(q) == (plan is not None), q.to_text()
        assert classify(q).free_connex == (plan is not None), q.to_text()
        if plan is not None:
            assert len(plan.nodes) <= 3 * len(q.relational_atoms), q.to_text()
            if free:
                assert len(plan.levels) <= len(free), q.to_text()
            assert verify_plan(plan, free) == [], (q.to_text(), verify_plan(plan, free))


def test_guarded_plan_exists_iff_q_hierarchical_on_corpus():
    for q in corpus(2002, 1000):
        free = relational_free(q)
        plan = build_guarded_plan(q)
        assert _q_hierarchical_by_definition(q) == (plan is not None), q.to_text()
        assert classify(q).q_hierarchical == (plan is not None), q.to_text()
        if plan is not None:
            assert plan.guarded
            assert verify_plan(plan, free) == [], (q.to_text(), verify_plan(plan, free))


def test_q_hierarchical_implies_free_connex_on_corpus():
    for q in corpus(3003, 1000):
        flags = classify(q)
        if flags.q_hierarchical:
            assert flags.free_connex, q.to_text()


# ---------------------------------------------------------------------------
# References that share no code with build_plan: a brute-force search for a
# join tree, and the pairwise definition of q-hierarchical
# ---------------------------------------------------------------------------

def _all_trees(n):
    # labeled trees on n nodes from Prüfer sequences
    import bisect
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
        edges = []
        leaves = sorted(v for v in range(n) if degree[v] == 1)
        for v in seq:
            leaf = leaves.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                bisect.insort(leaves, v)
        edges.append((leaves[0], leaves[1]))
        yield edges


def _has_join_tree(bags):
    """Some tree over the variable sets ``bags`` has the running-intersection
    property: the hypergraph is acyclic."""
    nodes = dict(enumerate(bags))
    return any(disconnected_variables(nodes, edges) == [] for edges in _all_trees(len(bags)))


def _free_connex_by_definition(q):
    """The relational body is acyclic, and stays acyclic once an atom over
    its free variables joins it."""
    body = [a.vars for a in q.relational_atoms]
    return _has_join_tree(body) and _has_join_tree(body + [frozenset(relational_free(q))])


def _q_hierarchical_by_definition(q):
    """The relational atom sets of any two variables are nested or disjoint,
    and a variable whose atom set strictly contains a free variable's is
    free too."""
    free, atoms_of = set(q.head_vars), {}
    for i, a in enumerate(q.relational_atoms):
        for v in a.vars:
            atoms_of.setdefault(v, set()).add(i)
    for x, ax in atoms_of.items():
        for y, ay in atoms_of.items():
            if ax & ay and not (ax <= ay or ay <= ax):
                return False
            if x in free and ax < ay and y not in free:
                return False
    return True


def test_q_hierarchical_definition_on_textbook_fixtures():
    assert _q_hierarchical_by_definition(parse_query("H(x) :- A(x,y), U(x)."))
    # free x below bound y
    assert not _q_hierarchical_by_definition(parse_query("H(x) :- A(x,y), U(y)."))
    # the atom sets of x and y overlap without nesting
    assert not _q_hierarchical_by_definition(parse_query("H() :- A(x,y), U(x), V(y)."))


def test_gyo_agrees_with_brute_force_tree_enumeration():
    rng = random.Random(20240815)
    for _ in range(400):
        q = random_cq(rng, max_atoms=5, max_vars=5)
        if len(q.atoms) > 5:
            continue
        flags = classify(q)
        assert flags.acyclic == _has_join_tree([a.vars for a in q.atoms]), q.to_text()
        assert flags.free_connex == _free_connex_by_definition(q), q.to_text()
