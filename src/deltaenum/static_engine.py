"""Linear-time preprocessing and constant-delay enumeration for free-connex CQs.

Preprocessing runs one bottom-up pass over the nodes of the query plan
below the connex region and on its frontier, whose relations are defined by:

* a leaf holds the atom's relation filtered by repeated-variable matching
  and by the inequalities the atom covers, and re-keyed by its variables:
  unless every tuple is its own key, one generated expression
  (``leaf_key``) tests and re-keys a tuple where the build or update path
  reads it, with the covered limits read off ``EnumerationState.bounds``;
* a single-child node aggregates its child by semiring addition over the
  projection (dropping zero sums);
* a 2-child node intersects the guard child with the smaller-variable child,
  multiplying annotations (dropping zero products).

Only the nodes in ``QueryPlan.stored`` keep their relation: the frontier,
which enumeration reads, the projection outputs, which grouping builds
anyway, and the second child of each 2-child node, which is looked up by
key.  Every other node of a free-connex plan is read once, by one scan in
its parent's pass, and streams.  Each stored relation comes out of one loop
that reads its source -- a leaf's database entries or the relation of the
nearest stored node below -- and carries every row up through the lookups
of the streamed 2-child nodes above it: Yannakakis' bottom-up pass,
pipelined up to its pipeline breakers (Neumann, VLDB 2011).  One generated
function per plan, ``build`` (``build_source``), runs these loops in
postorder as straight-line Python, with its lookups written as tuple
displays into the relations it built before and the semiring's operators
written out; a stored leaf whose tuples are their own keys is its database
entries themselves, not a copy.  A guarded plan stores every node below
the connex region and on its frontier, since an update looks up both
children of a 2-child node.

Every query that preprocessing takes has a plan (``planner.build_plan``),
which also fixes the inequality layout that the sources read; a query
without relational atoms has the plan with no nodes, whose walk is its free
inequality ranges alone.  Enumeration then walks only the connex region of
the plan.  Navigation there is driven by *candidate* structures built on
tuple support, not on aggregated annotations: over semirings with
cancelling sums (the reals) an aggregated value can vanish while its
extensions remain enumerable, and the connex variables are free, so no
aggregation is allowed to prune them.  Only the keys of a candidate set
count: a frontier node's candidate set is its relation, and a projection's
is its child's extension group.  ``build`` builds them after the relations,
in one more pass in postorder.

The planner cuts the connex region into *levels* (``QueryPlan.levels``): the
root's candidates, then one level per projection edge into a connex child,
ranging over that child's extension group under the tuple of an earlier
level.  Each free inequality range adds one more level.  ``walk_source``
writes the levels out as nested Python loops, the last level innermost: the
data-centric code generation of Neumann (VLDB 2011), applied to the walk.
Preprocessing compiles the walk and the build of ``plan_sources``, each
distinct source once (``codegen.compile_source``); ``plan --json`` prints
them.  An answer is the head read off the level tuples, and its
annotation the product of the frontier annotations along the way.
Candidates keep every level non-empty, so the delay is bounded by the
number of levels, independent of the database.  When the root is on the
frontier, level 0 reads the root relation's entries, annotations included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .codegen import compile_source, display, project
from .errors import CapabilityError, ClassificationError, VocabularyError
from .kdata import AnnotatedRelation, Database, DataTuple, SingleTupleUpdate
from .planner import QueryPlan, build_fc_plan
from .query import ConjunctiveQuery
from .semiring import SemiringDescriptor, Value, sum_of_ones


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

@dataclass
class EnumerationState:
    """What preprocessing builds for the query of ``plan`` over ``db``, and
    what its compiled sources read; the dynamic engine extends it."""

    plan: QueryPlan  # with no nodes when the query has no relational atoms
    semiring: SemiringDescriptor
    db: Database
    # per plan node in ``plan.stored``: its node relation, keyed in
    # ``plan.order``; a leaf whose tuples are their own keys has the
    # database's entries, so the database changes only through
    # ``dynamic_engine.dyn_update`` while a state over it is in use
    relations: Dict[int, Dict[DataTuple, Value]] = field(default_factory=dict)
    # connex navigation structures; only the keys of a candidate set count:
    # a frontier node's is its relation, a projection's its child's group
    groups: Dict[int, Dict[DataTuple, Dict[DataTuple, bool]]] = field(default_factory=dict)
    candidates: Dict[int, Dict[DataTuple, object]] = field(default_factory=dict)
    # per inequality variable of the query, in the order of ``plan.bounded``,
    # the least constant that bounds it; the covered leaf keys and the free
    # ranges of the walk read it by index
    bounds: Tuple[int, ...] = ()
    # the walk's constant factor: the sum of ones over the valuations of the
    # bound uncovered inequality variables (``plan.summed``)
    factor: Value = None
    # the compiled ``walk_source`` of the plan: state -> answers
    walk: Optional[Callable] = field(default=None, repr=False)
    # over a guarded plan, per stored projection, parent tuple -> its number
    # of child tuples; in a dynamic state (``dynamic_engine.dyn_preprocess``),
    # per relation symbol, ``update(u)``, its compiled ``update_source``,
    # which writes the database and runs its plan leaves' paths
    accs: Dict[int, Dict[DataTuple, int]] = field(default_factory=dict)
    paths: Dict[str, Callable[[SingleTupleUpdate], None]] = field(default_factory=dict)
    version: int = 0


def leaf_key(plan: QueryPlan, leaf: int) -> Optional[str]:
    """The source of the key expression of the plan ``leaf`` over a tuple
    ``t`` of its relation; None when every tuple is its own key, that is
    when the atom's variables are distinct and in sorted order and it covers
    no inequality.

    A tuple matches its atom when the components at a repeated variable's
    positions are equal and every inequality the atom covers
    (``plan.covered``) holds, its limit read off ``bounds``
    (``EnumerationState.bounds``, indexed like ``plan.bounded``); its key lists
    the values of the atom's distinct variables in sorted order, and a tuple
    that does not match has the key None.  Only fixed names and integer
    literals are written, no symbol of the query.
    """
    i = plan.nodes[leaf].atom_index
    first: Dict[str, int] = {}
    misses = []
    for pos, arg in enumerate(plan.atoms[i].args):
        j = first.setdefault(arg, pos)
        if j != pos:
            misses.append(f"t[{pos}] != t[{j}]")
    misses += [f"t[{first[v]}] > bounds[{plan.bounded.index(v)}]" for v in plan.covered[i]]
    if not misses and list(first) == sorted(first):
        return None
    key = project("t", [first[v] for v in sorted(first)], len(plan.atoms[i].args))
    return f"None if {' or '.join(misses)} else {key}" if misses else key


def plan_sources(plan: QueryPlan, s: SemiringDescriptor) -> Tuple[str, str]:
    """The sources preprocessing compiles for ``plan`` and the semiring
    ``s``: the walk's (``walk_source``) and the build's (``build_source``)."""
    return walk_source(plan, s), build_source(plan, s)


def preprocess(q: ConjunctiveQuery, db: Database) -> EnumerationState:
    """Build the enumeration data structure; linear in the database size."""
    plan = build_fc_plan(q)
    if plan is None:
        raise ClassificationError(f"query is not free-connex: {q.to_text()}")
    return preprocess_with_plan(q, db, plan)


def preprocess_with_plan(q: ConjunctiveQuery, db: Database, plan: QueryPlan) -> EnumerationState:
    """Preprocess ``q`` over a caller-supplied plan of it (the dynamic
    engine passes a guarded one).  A leaf's relation symbol must be in the
    database, at the atom's arity (``VocabularyError`` otherwise)."""
    s = db.semiring
    if not s.zero_divisor_free:
        raise CapabilityError(
            f"static enumeration needs a zero-divisor-free semiring, not {s.name!r}"
        )
    state = EnumerationState(plan, s, db)
    limits: Dict[str, int] = {}
    for ineq in q.inequality_atoms:
        c = db.constant(ineq.bound)
        limits[ineq.var] = min(limits.get(ineq.var, c), c)
    state.bounds = tuple(limits[v] for v in plan.bounded)
    state.factor = sum_of_ones(s, math.prod(limits[v] for v in plan.summed))
    walk, build = plan_sources(plan, s)
    state.walk = compile_source(walk, "walk")
    entries = {}
    for nid, node in plan.nodes.items():
        if node.is_leaf:
            atom = plan.atoms[node.atom_index]
            rel = db.relation(atom.symbol)
            if len(atom.args) != rel.arity:
                raise VocabularyError(
                    f"atom {atom} has arity {len(atom.args)}, relation {atom.symbol!r} expects {rel.arity}"
                )
            entries[nid] = rel.entries
    compile_source(build, "build")(state, entries)
    return state


def build_source(plan: QueryPlan, s: SemiringDescriptor) -> str:
    """The source of ``build(state, entries)``, which builds, given per plan
    leaf its database entries, the relations of the stored nodes
    (``plan.stored``) in postorder, node ``n``'s also as the local ``rn``
    that the nodes above it read (``_scan``), and then, in postorder, the
    connex structures, each into its dict of the state: the candidate sets
    of the connex region (a node's tuples that extend to the connex
    variables below it), its extension groups and, over a guarded plan,
    each stored projection's member counts.  A frontier node's candidates
    are its relation, a projection's its child's group, built by one loop,
    and a 2-child node's its guard's whose key is in the other child's,
    kept by one comprehension.  Besides the semiring's operator templates,
    only fixed names and integer literals are written, no symbol of the
    query.
    """
    body: List[str] = []
    for nid in plan.postorder():
        if nid in plan.stored:
            body += _scan(plan, nid, s)
    if any(line.startswith("for ") for line in body):
        body[:0] = ["add, mul, is_zero = state.semiring.add, state.semiring.mul, state.semiring.is_zero"]
    if "bounds[" in "\n".join(body):
        body[:0] = ["bounds = state.bounds"]
    for nid in plan.postorder():
        children = plan.nodes[nid].children
        if nid in plan.frontier:
            body.append(f"c{nid} = state.candidates[{nid}] = r{nid}")
        if not children:
            continue
        # the first child's tuple under the last child's positions: the key of
        # a projection, or of a 2-child node's lookup in its second child
        c, key = children[0], project("t", plan.positions[children[-1]], len(plan.order[children[0]]))
        if plan.guarded and nid in plan.stored and len(children) == 1:
            body += [f"a{nid} = state.accs[{nid}] = {{}}", f"for t in r{c}:", f"    g = {key}", f"    a{nid}[g] = a{nid}.get(g, 0) + 1"]
        # the connex set is sibling-closed: all children are connex, or none
        if nid not in plan.connex or nid in plan.frontier:
            continue
        if len(children) == 1:
            body += [f"c{nid} = state.candidates[{nid}] = state.groups[{c}] = {{}}", f"for t in c{c}:"]
            body.append(f"    c{nid}.setdefault({key}, {{}})[t] = True")
        else:
            body.append(f"c{nid} = state.candidates[{nid}] = {{t: True for t in c{c} if {key} in c{children[1]}}}")
    return "\n".join(["def build(state, entries):", *("    " + line for line in body or ["pass"])]) + "\n"


def _scan(plan: QueryPlan, nid: int, s: SemiringDescriptor) -> List[str]:
    """The lines of ``build_source`` that build the relation ``rn`` of the
    stored node ``n`` = ``nid``: its database entries themselves for a leaf
    whose tuples are their own keys (``leaf_key``), and otherwise one loop
    that reads the relation of the nearest stored node below, or a leaf's
    entries, each re-keyed by the leaf's key expression and dropped under
    the key None.  Each streamed 2-child node on the way up, and ``nid``
    itself when it is one, looks the row's tuple up in its second child's
    relation, lowest first: the row is dropped when the lookup misses or
    the product of the annotations is zero.  A row that passes is stored,
    or under a projection added into its group, and over a semiring whose
    sums cancel the zero sums are dropped at the end."""
    children = plan.nodes[nid].children
    m = children[0] if len(children) == 1 else nid
    probes: List[int] = []
    while len(plan.nodes[m].children) == 2 and (m == nid or m not in plan.stored):
        c1, c2 = plan.nodes[m].children
        probes.append(c2)
        m = c1  # the guard child carries m's variables, so the row keeps its tuple
    width = len(plan.order[m])
    from_leaf = m == nid or m not in plan.stored
    key = leaf_key(plan, m) if from_leaf else None
    r = f"r{nid}"
    if not children and key is None:
        return [f"{r} = state.relations[{nid}] = entries[{nid}]"]
    body = [f"t = {key}"] if key else []
    if key and key.startswith("None if "):
        body += ["if t is None:", "    continue"]
    product = s.expr("mul", "k", "x")
    for c in reversed(probes):  # the lowest join multiplies first
        body += [f"x = r{c}.get({project('t', plan.positions[c], width)})"]
        body += [f"if x is None or {s.expr('is_zero', f'(k := {product})')}:", "    continue"]
    if len(children) != 1:
        body.append(f"{r}[t] = k")
    else:
        body += [f"g = {project('t', plan.positions[children[0]], width)}", f"if g in {r}:"]
        body += [f"    {r}[g] = {s.expr('add', f'{r}[g]', 'k')}", "else:", f"    {r}[g] = k"]
    lines = [f"{r} = state.relations[{nid}] = {{}}", f"for t, k in {f'entries[{m}]' if from_leaf else f'r{m}'}.items():"]
    lines += ["    " + line for line in body]
    if len(children) == 1 and not s.zero_sum_free:
        lines.append(f"{r} = state.relations[{nid}] = {{g: k for g, k in {r}.items() if not {s.expr('is_zero', 'k')}}}")
    return lines


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def walk_source(plan: QueryPlan, s: SemiringDescriptor) -> str:
    """The source of ``walk(state)``, the generator of the answers of a state
    preprocessed over ``plan`` and the semiring ``s``.

    It nests one ``for`` per level, binding level ``j``'s tuple to ``tj``,
    then one per free inequality range ``n`` (``plan.ranges``), binding
    ``in`` from 1 up to its variable's limit in ``state.bounds``.  A level with frontier
    annotations ``f1, f2, f3`` multiplies the product so far:
    ``pj = mul(p(j-1), mul(mul(f1, f2), f3))``, from the constant factor
    ``k = state.factor``, each ``mul`` written through the semiring's
    template.
    The innermost loop checks ``state.version`` and yields the head, read
    off the tuples and ranges, with the product.  Besides the templates,
    only fixed names and integer literals are written, no symbol of the
    query.
    """
    levels, ranges = plan.levels, plan.ranges
    place: Dict[str, str] = {}  # variable -> the expression of its value
    for j, level in enumerate(levels):
        for pos, v in enumerate(level.order):
            place.setdefault(v, f"t{j}[{pos}]")
    place.update((v, f"i{n}") for n, v in enumerate(ranges))
    comps = [place[v] for v in plan.query.head_vars]
    head = display(comps)
    for j, level in enumerate(levels):
        if comps == [f"t{j}[{pos}]" for pos in range(len(level.order))]:
            head = f"t{j}"  # the level's tuple itself

    hoists = ["version = state.version"]
    if ranges:
        hoists.append("bounds = state.bounds")
    loops: List[str] = []
    p = "k"  # the product of the levels entered so far
    for j, level in enumerate(levels):
        t, width = f"t{j}", len(level.order)
        hoists += [f"r{f} = state.relations[{f}]" for f, _ in level.frontier]
        factors = [f"r{f}[{project(t, pos, width)}]" for f, pos in level.frontier]
        if j == 0 and plan.root in plan.frontier:
            loops.append(f"for t0, v0 in r{plan.root}.items():")
            factors = ["v0"]
        elif j == 0:
            hoists.append(f"c{plan.root} = state.candidates[{plan.root}]")
            loops.append(f"for t0 in c{plan.root}:")
        else:
            n, src = level.nodes[0], level.source
            hoists.append(f"g{n} = state.groups[{n}]")
            loops.append(f"for {t} in g{n}[{project(f't{src}', level.key, len(levels[src].order))}]:")
        if factors:
            product = factors[0]
            for factor in factors[1:]:
                product = s.expr("mul", product, factor)
            p_new = s.expr("mul", p, product)
            if j < len(levels) - 1 or ranges:
                loops.append(f"p{j} = {p_new}")
                p_new = f"p{j}"
            p = p_new  # the innermost level's is read once, in the yield
    loops += [f"for i{n} in range(1, bounds[{plan.bounded.index(v)}] + 1):" for n, v in enumerate(ranges)]
    loops += ["if state.version != version:", "    raise RuntimeError(STALE)", f"yield {head}, {p}"]
    lines = ["def walk(state):", "    k = state.factor", "    mul, is_zero = state.semiring.mul, state.semiring.is_zero"]
    lines += [f"    if {s.expr('is_zero', 'k')}:", "        return"]
    lines += ["    " + line for line in hoists]
    depth = 1
    for line in loops:
        lines.append("    " * depth + line)
        depth += line.startswith("for ")
    return "\n".join(lines) + "\n"


def enumerate_state(
    state: EnumerationState, limit: Optional[int] = None
) -> Iterator[Tuple[DataTuple, Value]]:
    """Stream (head tuple, annotation) pairs, each exactly once, at most
    ``limit`` of them.

    ``state.walk`` runs the levels of the walk (the plan's, then one per
    free inequality range) as nested loops, compiled from ``walk_source``.
    The last level changes fastest, so the output order is the plan's
    depth-first order, guard children first, with the inequality ranges
    innermost.  An update to the state invalidates the cursor.
    """
    answers = state.walk(state)
    return answers if limit is None else islice(answers, max(limit, 0))


def eval_materialized(q: ConjunctiveQuery, db: Database) -> AnnotatedRelation:
    """Preprocess then drain the enumeration into an annotated relation."""
    state = preprocess(q, db)
    entries = dict(enumerate_state(state))
    return AnnotatedRelation(len(q.head_vars), entries)
