"""Linear-time preprocessing and constant-delay enumeration for free-connex CQs.

Preprocessing runs one bottom-up pass over the nodes of the query plan
below the connex region and on its frontier, whose relations are defined by:

* a leaf holds the atom's relation filtered by repeated-variable matching
  and by the inequalities the atom covers;
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
variables are free, so no aggregation is allowed to prune them.

The planner cuts the connex region into *levels* (``QueryPlan.levels``): the
root's candidates, then one level per projection edge into a connex child,
ranging over that child's extension group under the tuple of an earlier
level.  Each free inequality range adds one more level.  One loop, an
odometer, keeps an iterator per level and advances the last level fastest;
an answer is the head read off the concatenated level tuples, and its
annotation the product of the frontier annotations along the way.
Candidates keep every level non-empty, so the delay is bounded by the
number of levels, independent of the database.  A single connex node needs
no walk: enumeration then scans the root relation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import CapabilityError, ClassificationError, VocabularyError
from .kdata import AnnotatedRelation, Database, DataTuple
from .planner import QueryPlan, TupleGetter, build_fc_plan, tuple_getter
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
    # connex navigation structures; only the keys of a candidate set count,
    # and a frontier node's is its relation itself
    groups: Dict[int, Dict[DataTuple, Dict[DataTuple, bool]]] = field(default_factory=dict)
    candidates: Dict[int, Dict[DataTuple, Value]] = field(default_factory=dict)
    # per plan leaf: its tuple-to-key matcher, built once
    matchers: Dict[int, LeafMatcher] = field(default_factory=dict)
    ineq: Optional[IneqPlanState] = None
    # the concatenated tuples of the enumeration levels -> the head tuple
    head: TupleGetter = field(default=tuple_getter(()), repr=False)
    version: int = 0


@dataclass
class LeafMatcher:
    """Maps the tuples of one plan leaf's relation to the leaf's keys.

    A tuple matches its atom when the components at a repeated variable's
    positions are equal and every inequality the atom covers holds; its key
    lists the values of the atom's distinct variables in sorted order.
    ``key`` gives the key, or None for a tuple that does not match; without
    equalities and limits every tuple matches, and ``key`` is ``project``.
    ``identity`` says that every key is its tuple itself.
    """

    positions: Tuple[int, ...]  # first atom position of each key variable
    equalities: Tuple[Tuple[int, int], ...]  # (later, first) position of one variable
    limits: Tuple[Tuple[int, int], ...]  # (position, bound): component <= bound
    project: TupleGetter = field(init=False, repr=False, compare=False)
    key: Callable[[DataTuple], Optional[DataTuple]] = field(init=False, repr=False, compare=False)
    identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.project = tuple_getter(self.positions)
        filtered = bool(self.equalities or self.limits)
        self.key = self._filtered_key if filtered else self.project
        self.identity = not filtered and self.positions == tuple(range(len(self.positions)))

    def _filtered_key(self, t: DataTuple) -> Optional[DataTuple]:
        for i, j in self.equalities:
            if t[i] != t[j]:
                return None
        for i, bound in self.limits:
            if t[i] > bound:
                return None
        return self.project(t)


def build_leaf_matcher(atom: RelAtom, covered: Sequence[IneqAtom], db: Database) -> LeafMatcher:
    """Matcher for ``atom`` and the inequalities it covers, checked against
    the database vocabulary (unknown symbols and arity mismatches raise
    ``VocabularyError``)."""
    rel = db.relation(atom.symbol)
    if len(atom.args) != rel.arity:
        raise VocabularyError(
            f"atom {atom} has arity {len(atom.args)}, relation {atom.symbol!r} expects {rel.arity}"
        )
    first: Dict[str, int] = {}
    equalities = []
    for i, arg in enumerate(atom.args):
        j = first.setdefault(arg, i)
        if j != i:
            equalities.append((i, j))
    return LeafMatcher(
        tuple(first[v] for v in sorted(first)),
        tuple(equalities),
        tuple((first[v], c) for v, c in sorted(_limits(covered, db).items())),
    )


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
    state = EnumerationState(q, None, s, db)
    state.ineq = build_ineq_state(sp, db, s)
    level_vars: List[str] = []

    if sp.rel_part.relational_atoms:
        assert plan is not None
        state.plan = plan
        for nid, node in plan.nodes.items():
            if node.is_leaf:
                i = node.atom_index
                state.matchers[nid] = build_leaf_matcher(plan.atoms[i], sp.covered[i], db)
        _bottom_up(state)
        _build_connex_structures(state)
        level_vars = [v for level in plan.levels for v in level.order]
    level_vars += [v for v, _ in state.ineq.free_ranges]
    state.head = tuple_getter([level_vars.index(v) for v in q.head_vars])
    return state


def _bottom_up(state: EnumerationState) -> None:
    """Build the stored node relations (``plan.stored``) in postorder.

    Each comes out of one ``_scan`` of its source: the relation of the
    nearest stored node below it, or the database entries of a leaf, read
    through the leaf's matcher.  Every streamed 2-child node on the way up,
    and the stored node itself when it is a 2-child node, probes its second
    child's relation; a projection groups the rows that come through."""
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
            matcher = state.matchers[m]
            source = state.db.relation(plan.atoms[plan.nodes[m].atom_index].symbol).entries
            key = None if matcher.identity else matcher.key
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

    ``candidates[n]`` contains the vars(n)-tuples that extend to at least one
    full assignment of the connex variables below n (at a frontier node: the
    tuples of its relation, which it shares); ``groups[c]`` (for a
    connex node whose parent edge is a projection) maps each parent key to
    the candidate tuples of c extending it.
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
            state.groups[c] = grp
            state.candidates[nid] = dict.fromkeys(grp, True)
        else:
            c1, c2 = children
            key = plan.key[c2]
            small = state.candidates[c2]
            state.candidates[nid] = {t: True for t in state.candidates[c1] if key(t) in small}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _levels(state: EnumerationState) -> Tuple[list, list]:
    """Per enumeration level: the function from the current tuples of all
    levels to an iterator over this level's tuples, and the function from
    this level's tuple to the product of its frontier annotations (None when
    it has no frontier node).  An empty relational part is one level holding
    the empty tuple."""
    plan = state.plan
    mul = state.semiring.mul
    opens: list = []
    values: list = []
    if plan is None:
        opens.append(lambda cur: iter(((),)))
        values.append(None)
    else:
        for level in plan.levels:
            if level.source is None:
                cands = state.candidates[plan.root]
                opens.append(lambda cur, cands=cands: iter(cands))
            else:
                grp, src, key = state.groups[level.nodes[0]], level.source, level.key
                opens.append(lambda cur, grp=grp, src=src, key=key: iter(grp[key(cur[src])]))
            lookups = [
                state.relations[f].__getitem__ if get is None
                else (lambda t, rel=state.relations[f], get=get: rel[get(t)])
                for f, get in level.frontier
            ]
            if len(lookups) <= 1:
                values.append(lookups[0] if lookups else None)
            else:
                def value(t, first=lookups[0], rest=lookups[1:]):
                    k = first(t)
                    for lookup in rest:
                        k = mul(k, lookup(t))
                    return k

                values.append(value)
    for _, bound in state.ineq.free_ranges:
        # zip over one iterable yields 1-tuples
        opens.append(lambda cur, bound=bound: zip(range(1, bound + 1)))
        values.append(None)
    return opens, values


def enumerate_state(
    state: EnumerationState, limit: Optional[int] = None
) -> Iterator[Tuple[DataTuple, Value]]:
    """Stream (head tuple, annotation) pairs, each exactly once, at most
    ``limit`` of them.

    The levels of the walk (the plan's, then one per free inequality range)
    run as an odometer: the stack holds one iterator per level and, for each
    level, the product of the annotations and the concatenation of the tuples
    of the levels above it.  The last level changes fastest, so the output
    order is the plan's depth-first order, guard children first, with the
    inequality ranges innermost.  The common single-connex-node shape without
    ranges degenerates to a scan of the materialized root relation.  An
    update to the state invalidates the cursor.
    """
    answers = _answers(state)
    return answers if limit is None else islice(answers, max(limit, 0))


def _answers(state: EnumerationState) -> Iterator[Tuple[DataTuple, Value]]:
    s = state.semiring
    ineq = state.ineq
    if s.is_zero(ineq.annotation):
        return
    version = state.version
    mul = s.mul
    k_ineq = ineq.annotation
    head = state.head
    plan = state.plan

    if not ineq.free_ranges and plan is not None and len(plan.connex) == 1:
        # fast path: scan the root relation, project to the head order
        for t, val in state.relations[plan.root].items():
            if state.version != version:
                raise RuntimeError("enumeration cursor invalidated by an update")
            yield head(t), mul(val, k_ineq)
        return

    opens, values = _levels(state)
    last = len(opens) - 1
    its: list = [None] * len(opens)  # per level: iterator over its tuples
    cur: list = [None] * len(opens)  # per level: its current tuple
    prods = [k_ineq] + [None] * last  # annotation of the levels above
    prefix = [()] + [None] * last  # concatenated tuples of the levels above
    its[0] = opens[0](cur)
    i = 0
    while i >= 0:
        if i == last:
            p, pre, value = prods[i], prefix[i], values[i]
            for t in its[i]:
                if state.version != version:
                    raise RuntimeError("enumeration cursor invalidated by an update")
                yield head(pre + t), (p if value is None else mul(p, value(t)))
            i -= 1
            continue
        for t in its[i]:
            cur[i] = t
            value = values[i]
            prods[i + 1] = prods[i] if value is None else mul(prods[i], value(t))
            prefix[i + 1] = prefix[i] + t
            i += 1
            its[i] = opens[i](cur)
            break
        else:
            i -= 1


def eval_materialized(q: ConjunctiveQuery, db: Database) -> AnnotatedRelation:
    """Preprocess then drain the enumeration into an annotated relation."""
    state = preprocess(q, db)
    entries = dict(enumerate_state(state))
    return AnnotatedRelation(len(q.head_vars), entries)


# ---------------------------------------------------------------------------
# Invariant walker (tests and --verify)
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
        key = state.matchers[nid].key
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


# ---------------------------------------------------------------------------
# Timing helper used by the scaling tests
# ---------------------------------------------------------------------------

def timed_preprocess(q: ConjunctiveQuery, db: Database) -> Tuple[EnumerationState, float]:
    start = time.perf_counter()
    state = preprocess(q, db)
    return state, time.perf_counter() - start
