"""Linear-time preprocessing and constant-delay enumeration for free-connex CQs.

Preprocessing runs one bottom-up pass over the nodes of the query plan
below the connex region and on its frontier, whose relations are defined by:

* a leaf holds the atom's relation filtered by repeated-variable matching
  and by the inequalities the atom covers, and re-keyed by its variables:
  unless every tuple is its own key, one generated expression
  (``key_source``) tests and re-keys a tuple, with the covered limits
  passed in;
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
pipelined up to its pipeline breakers (Neumann, VLDB 2011).  A guarded plan
stores every node below the connex region and on its frontier, since an
update looks up both children of a 2-child node.

Enumeration then walks only the connex region of the plan.  Navigation there
is driven by *candidate* structures built on tuple support, not on aggregated
annotations: over semirings with cancelling sums (the reals) an aggregated
value can vanish while its extensions remain enumerable, and the connex
variables are free, so no aggregation is allowed to prune them.  Only the
keys of a candidate set count: a frontier node's candidate set is its
relation, and a projection's is its child's extension group.

The planner cuts the connex region into *levels* (``QueryPlan.levels``): the
root's candidates, then one level per projection edge into a connex child,
ranging over that child's extension group under the tuple of an earlier
level.  Each free inequality range adds one more level.  ``walk_source``
writes the levels out as nested Python loops, the last level innermost: the
data-centric code generation of Neumann (VLDB 2011), applied to the walk.
Preprocessing compiles the walk and leaf keys that ``plan_sources`` writes,
each distinct source once (``codegen.compile_source``); ``plan --json``
prints them.  An answer is the head read off the level tuples, and its
annotation the product of the frontier annotations along the way.
Candidates keep every level non-empty, so the delay is bounded by the
number of levels, independent of the database.  When the root is on the
frontier, level 0 reads the root relation's entries, annotations included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .codegen import compile_source, display, project
from .errors import CapabilityError, ClassificationError, VocabularyError
from .kdata import AnnotatedRelation, Database, DataTuple
from .planner import QueryPlan, TupleGetter, build_fc_plan
from .query import ConjunctiveQuery, IneqAtom, QuerySplit, RelAtom, split
from .semiring import SemiringDescriptor, Value, sum_of_ones


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

@dataclass
class IneqPlanState:
    """Uncovered-inequality part: per free variable its range bound, plus the
    constant annotation contributed by the bound inequality variables."""

    free_ranges: Tuple[Tuple[str, int], ...]  # (variable, upper bound)
    annotation: Value


def _limits(ineqs: Sequence[IneqAtom], db: Database) -> Dict[str, int]:
    """Per variable of ``ineqs``, the least constant that bounds it."""
    limits: Dict[str, int] = {}
    for ineq in ineqs:
        c = db.constant(ineq.bound)
        limits[ineq.var] = min(limits.get(ineq.var, c), c)
    return limits


def build_ineq_state(sp: QuerySplit, db: Database, s: SemiringDescriptor) -> IneqPlanState:
    bounds = _limits(sp.ineq_part.inequality_atoms, db)
    free = sp.ineq_part.head_vars
    free_ranges = tuple((v, bounds[v]) for v in free)
    # the annotation is the sum of ones over all valuations of the bound
    # inequality variables
    count = 1
    for v, bound in bounds.items():
        if v not in free:
            count *= bound
    return IneqPlanState(free_ranges, sum_of_ones(s, count))


@dataclass
class EnumerationState:
    query: ConjunctiveQuery
    plan: Optional[QueryPlan]  # None when the relational part is empty
    semiring: SemiringDescriptor
    db: Database
    # per plan node in ``plan.stored``: its node relation, keyed in
    # ``plan.order``
    relations: Dict[int, Dict[DataTuple, Value]] = field(default_factory=dict)
    # connex navigation structures; only the keys of a candidate set count:
    # a frontier node's is its relation, a projection's its child's group
    groups: Dict[int, Dict[DataTuple, Dict[DataTuple, bool]]] = field(default_factory=dict)
    candidates: Dict[int, Dict[DataTuple, object]] = field(default_factory=dict)
    # per plan leaf: its key function (``build_leaf_matcher``), built once
    matchers: Dict[int, Callable[[DataTuple], Optional[DataTuple]]] = field(default_factory=dict)
    ineq: Optional[IneqPlanState] = None
    # the compiled ``walk_source`` of the query and plan: state -> answers
    walk: Optional[Callable] = field(default=None, repr=False)
    # a dynamic state's (``dynamic_engine.dyn_preprocess``), empty otherwise:
    # per stored projection, parent tuple -> its number of child tuples; per
    # relation symbol, ``update(t, old, new)`` along its plan leaves' paths
    accs: Dict[int, Dict[DataTuple, int]] = field(default_factory=dict)
    paths: Dict[str, Callable[[DataTuple, Optional[Value], Optional[Value]], None]] = field(default_factory=dict)
    version: int = 0


def identity_key(t: DataTuple) -> DataTuple:
    """The key function of a leaf whose every tuple is its own key."""
    return t


def build_leaf_matcher(
    atom: RelAtom, covered: Sequence[IneqAtom], source: Optional[str], db: Database
) -> Callable[[DataTuple], Optional[DataTuple]]:
    """The key function of ``atom`` and the inequalities it covers, checked
    against the database vocabulary (unknown symbols and arity mismatches
    raise ``VocabularyError``): ``identity_key`` when ``source`` is None,
    every tuple being its own key, and otherwise the function compiled from
    ``source``, its ``key_source``."""
    rel = db.relation(atom.symbol)
    if len(atom.args) != rel.arity:
        raise VocabularyError(
            f"atom {atom} has arity {len(atom.args)}, relation {atom.symbol!r} expects {rel.arity}"
        )
    if source is None:
        return identity_key
    bounds = tuple(c for _, c in sorted(_limits(covered, db).items()))
    return compile_source(source, "make")(bounds)


def key_source(atom: RelAtom, covered: Sequence[IneqAtom]) -> str:
    """The source of ``make(b)``, which returns the key function of ``atom``
    and the inequalities it covers, ``b`` holding per covered variable, in
    sorted order, the least constant that bounds it.

    A tuple matches its atom when the components at a repeated variable's
    positions are equal and every inequality the atom covers holds; its key
    lists the values of the atom's distinct variables in sorted order, and a
    tuple that does not match has the key None.  Only fixed names and
    integer literals are written, no symbol of the query.
    """
    first: Dict[str, int] = {}
    misses = []
    for i, arg in enumerate(atom.args):
        j = first.setdefault(arg, i)
        if j != i:
            misses.append(f"t[{i}] != t[{j}]")
    limited = sorted({ineq.var for ineq in covered})
    misses += [f"t[{first[v]}] > b[{n}]" for n, v in enumerate(limited)]
    key = project("t", [first[v] for v in sorted(first)], len(atom.args))
    if misses:
        key = f"None if {' or '.join(misses)} else {key}"
    return f"def make(b):\n    return lambda t: {key}\n"


def plan_sources(q: ConjunctiveQuery, plan: Optional[QueryPlan]) -> Tuple[str, Dict[int, str]]:
    """The sources preprocessing compiles for ``q`` over ``plan`` (None
    without relational atoms): the walk's and, in node order, the key
    function's of each plan leaf whose tuples are not their own keys; they
    are when the atom's variables are distinct and in sorted order and it
    covers no inequality."""
    sp = split(q)
    keys: Dict[int, str] = {}
    for nid, node in sorted(plan.nodes.items()) if plan is not None else ():
        if node.is_leaf:
            atom, covered = plan.atoms[node.atom_index], sp.covered[node.atom_index]
            if covered or list(atom.args) != sorted(set(atom.args)):
                keys[nid] = key_source(atom, covered)
    return walk_source(sp, plan), keys


def preprocess(q: ConjunctiveQuery, db: Database) -> EnumerationState:
    """Build the enumeration data structure; linear in the database size."""
    plan = build_fc_plan(q)
    if plan is None and q.relational_atoms:
        raise ClassificationError(f"query is not free-connex: {q.to_text()}")
    return preprocess_with_plan(q, db, plan)


def preprocess_with_plan(
    q: ConjunctiveQuery, db: Database, plan: Optional[QueryPlan]
) -> EnumerationState:
    """Preprocess over a caller-supplied plan (the dynamic engine passes a
    guarded one); ``plan`` may be None only for an empty relational part."""
    s = db.semiring
    if not s.zero_divisor_free:
        raise CapabilityError(
            f"static enumeration needs a zero-divisor-free semiring, not {s.name!r}"
        )
    sp = split(q)
    assert plan is not None or not sp.rel_part.relational_atoms
    state = EnumerationState(q, plan if sp.rel_part.relational_atoms else None, s, db)
    state.ineq = build_ineq_state(sp, db, s)
    walk, keys = plan_sources(q, state.plan)
    if state.plan is not None:
        for nid, node in plan.nodes.items():
            if node.is_leaf:
                i = node.atom_index
                state.matchers[nid] = build_leaf_matcher(plan.atoms[i], sp.covered[i], keys.get(nid), db)
        _bottom_up(state)
        _build_connex_structures(state)
    state.walk = compile_source(walk, "walk")
    return state


def _bottom_up(state: EnumerationState) -> None:
    """Build the stored node relations (``plan.stored``) in postorder.

    Each comes out of one ``_scan`` of its source: the relation of the
    nearest stored node below it, or the database entries of a leaf, read
    through the leaf's key function.  Every streamed 2-child node on the way
    up, and the stored node itself when it is a 2-child node, probes its
    second child's relation; a projection groups the rows that pass."""
    plan = state.plan
    s = state.semiring
    relations = state.relations
    for nid in plan.postorder():
        if nid not in plan.stored:
            continue
        children = plan.nodes[nid].children
        group = plan.key[children[0]] if len(children) == 1 else None
        m = nid if group is None else children[0]
        probes: List[Tuple[TupleGetter, Dict[DataTuple, Value]]] = []
        while len(plan.nodes[m].children) == 2 and (m == nid or m not in plan.stored):
            c1, c2 = plan.nodes[m].children
            probes.append((plan.key[c2], relations[c2]))
            m = c1  # the guard child carries m's variables, so the row keeps its tuple
        probes.reverse()  # the lowest join multiplies first
        if m in relations:
            source, key = relations[m], None
        else:
            key = state.matchers[m]
            source = state.db.relation(plan.atoms[plan.nodes[m].atom_index].symbol).entries
            if key is identity_key:
                key = None
        relations[nid] = _scan(source, key, probes, group, s)


def _scan(
    source: Dict[DataTuple, Value],
    key: Optional[Callable[[DataTuple], Optional[DataTuple]]],
    probes: Sequence[Tuple[TupleGetter, Dict[DataTuple, Value]]],
    group: Optional[TupleGetter],
    s: SemiringDescriptor,
) -> Dict[DataTuple, Value]:
    """One relation in one loop over ``source``: each row is re-keyed by
    ``key`` (None when it keeps its tuple; a None key drops the row), joined
    with each probed relation in turn by multiplying its annotation under
    that probe's key (dropping the row when it is absent or the product is
    zero), and then stored, or added into its group under ``group``
    (dropping zero sums)."""
    if key is None and not probes and group is None:
        return dict(source)
    mul, add, is_zero = s.mul, s.add, s.is_zero
    out: Dict[DataTuple, Value] = {}
    for t, k in source.items():
        if key is not None:
            t = key(t)
            if t is None:
                continue
        for get, rel in probes:
            other = rel.get(get(t))
            if other is None:
                break
            k = mul(k, other)
            if is_zero(k):
                break
        else:
            if group is None:
                out[t] = k
            else:
                g = group(t)
                if g in out:
                    out[g] = add(out[g], k)
                else:
                    out[g] = k
    if group is None or s.zero_sum_free:
        return out
    return {t: k for t, k in out.items() if not is_zero(k)}


def _build_connex_structures(state: EnumerationState) -> None:
    """Candidate sets and extension groups over the connex region.

    ``candidates[n]`` holds as keys the vars(n)-tuples that extend to at
    least one full assignment of the connex variables below n; ``groups[c]``
    (for a connex node whose parent edge is a projection) maps each parent
    key to the candidate tuples of c extending it.  A frontier node's
    candidate set is its relation, and a projection's is its child's group.
    """
    plan = state.plan
    for nid in plan.postorder():
        if nid not in plan.connex:
            continue
        # the connex set is sibling-closed: all children are connex, or none
        children = plan.nodes[nid].children
        if nid in plan.frontier:
            state.candidates[nid] = state.relations[nid]
        elif len(children) == 1:
            c = children[0]
            key = plan.key[c]
            grp: Dict[DataTuple, Dict[DataTuple, bool]] = {}
            for t in state.candidates[c]:
                grp.setdefault(key(t), {})[t] = True
            state.groups[c] = state.candidates[nid] = grp
        else:
            c1, c2 = children
            key = plan.key[c2]
            small = state.candidates[c2]
            state.candidates[nid] = {t: True for t in state.candidates[c1] if key(t) in small}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def walk_source(sp: QuerySplit, plan: Optional[QueryPlan]) -> str:
    """The source of ``walk(state)``, the generator of the answers of a state
    preprocessed for the query ``sp`` splits over ``plan`` (None without
    relational atoms).

    It nests one ``for`` per level, binding level ``j``'s tuple to ``tj``,
    then one per free inequality range ``n``, binding ``in``.  A level with
    frontier annotations ``f1, f2, f3`` multiplies the product so far:
    ``pj = mul(p(j-1), mul(mul(f1, f2), f3))``, from the inequality
    annotation ``k``.  The innermost loop checks ``state.version`` and
    yields the head, read off the tuples and ranges, with the product.  Only
    fixed names and integer literals are written, no symbol of the query.
    """
    levels = plan.levels if plan is not None else ()
    ranges = sp.ineq_part.head_vars
    place: Dict[str, str] = {}  # variable -> the expression of its value
    for j, level in enumerate(levels):
        for pos, v in enumerate(level.order):
            place.setdefault(v, f"t{j}[{pos}]")
    place.update((v, f"i{n}") for n, v in enumerate(ranges))
    comps = [place[v] for v in sp.query.head_vars]
    head = display(comps)
    for j, level in enumerate(levels):
        if comps == [f"t{j}[{pos}]" for pos in range(len(level.order))]:
            head = f"t{j}"  # the level's tuple itself

    hoists = ["k = state.ineq.annotation", "mul = state.semiring.mul", "version = state.version"]
    if ranges:
        hoists.append("b = [bound for _, bound in state.ineq.free_ranges]")
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
                product = f"mul({product}, {factor})"
            p_new = f"mul({p}, {product})"
            if j < len(levels) - 1 or ranges:
                loops.append(f"p{j} = {p_new}")
                p_new = f"p{j}"
            p = p_new  # the innermost level's is read once, in the yield
    loops += [f"for i{n} in range(1, b[{n}] + 1):" for n in range(len(ranges))]
    loops += ["if state.version != version:", "    raise RuntimeError(STALE)", f"yield {head}, {p}"]
    lines = ["def walk(state):", "    if state.semiring.is_zero(state.ineq.annotation):", "        return"]
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


# ---------------------------------------------------------------------------
# Invariant walker (tests)
# ---------------------------------------------------------------------------

def reference_relation(
    state: EnumerationState, nid: int, stored: Optional[Dict[int, Dict[DataTuple, Value]]] = None
) -> Dict[DataTuple, Value]:
    """Plan node ``nid``'s relation by its defining equation, with one plain
    loop per node: a child's relation is taken from ``stored`` when there
    and recomputed the same way from the database otherwise.  Keys are
    inserted in the order in which preprocessing inserts them."""
    plan = state.plan
    s = state.semiring
    node = plan.nodes[nid]
    out: Dict[DataTuple, Value] = {}
    if node.is_leaf:
        key = state.matchers[nid]
        for t, k in state.db.relation(plan.atoms[node.atom_index].symbol).entries.items():
            kt = key(t)
            if kt is not None:
                out[kt] = k
        return out
    stored = stored or {}
    rels = [stored[c] if c in stored else reference_relation(state, c, stored) for c in node.children]
    if len(rels) == 1:
        key = plan.key[node.children[0]]
        for t, k in rels[0].items():
            kt = key(t)
            out[kt] = s.add(out[kt], k) if kt in out else k
        return {t: k for t, k in out.items() if not s.is_zero(k)}
    key = plan.key[node.children[1]]
    for t, k in rels[0].items():
        other = rels[1].get(key(t))
        if other is not None:
            k = s.mul(k, other)
            if not s.is_zero(k):
                out[t] = k
    return out


def verify_node_invariants(state: EnumerationState) -> List[str]:
    """Check each stored node relation against its defining equation over
    its children's relations, recomputing from the database a child that is
    not stored (``reference_relation``)."""
    problems: List[str] = []
    if state.plan is None:
        return problems
    s = state.semiring
    for nid, rel in state.relations.items():
        for t, k in rel.items():
            if s.is_zero(k):
                problems.append(f"node {nid}: stored zero annotation at {t}")
        want = reference_relation(state, nid, state.relations)
        problems += [f"node {nid}: missing tuple {t}" for t in want if t not in rel]
        for t, k in rel.items():
            if t not in want:
                problems.append(f"node {nid}: extra tuple {t}")
            elif want[t] != k:
                problems.append(f"node {nid}: annotation {k!r} at {t}, want {want[t]!r}")
    return problems
