"""Linear-time preprocessing and constant-delay enumeration for free-connex CQs.

Preprocessing runs one bottom-up pass over the query plan:

* leaves hold the atom's relation filtered by repeated-variable matching and
  by the inequalities the atom covers;
* single-child nodes aggregate their child by semiring addition over the
  projection (dropping zero sums);
* 2-child nodes intersect the guard child with the smaller-variable child,
  multiplying annotations (dropping zero products).

Enumeration then walks only the connex region of the plan.  Navigation there
is driven by *candidate* structures built on tuple support, not on aggregated
annotations: over semirings with cancelling sums (the reals) an aggregated
value can vanish while its extensions remain enumerable, and the connex
variables are free, so no aggregation is allowed to prune them.  Candidates
guarantee the walk never hits a dead end, which is what makes the delay
independent of the database.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import CapabilityError, ClassificationError, VocabularyError
from .kdata import AnnotatedRelation, Database, DataTuple
from .planner import QueryPlan, TupleGetter, build_fc_plan, is_free_connex, tuple_getter
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


def build_ineq_state(sp: QuerySplit, db: Database, s: SemiringDescriptor) -> IneqPlanState:
    bounds: Dict[str, int] = {}
    for ineq in sp.ineq_part.inequality_atoms:
        c = db.constant(ineq.bound)
        bounds[ineq.var] = min(bounds.get(ineq.var, c), c)
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
    split: QuerySplit
    plan: Optional[QueryPlan]  # None when the relational part is empty
    semiring: SemiringDescriptor
    db: Database
    # per plan node: the aggregated node relation, keyed in ``plan.order``
    relations: Dict[int, Dict[DataTuple, Value]] = field(default_factory=dict)
    # connex navigation structures
    groups: Dict[int, Dict[DataTuple, Dict[DataTuple, bool]]] = field(default_factory=dict)
    candidates: Dict[int, Dict[DataTuple, bool]] = field(default_factory=dict)
    # per plan leaf: its tuple-to-key matcher, built once
    matchers: Dict[int, LeafMatcher] = field(default_factory=dict)
    ineq: Optional[IneqPlanState] = None
    version: int = 0


@dataclass
class LeafMatcher:
    """Maps the tuples of one plan leaf's relation to the leaf's keys.

    A tuple matches its atom when the components at a repeated variable's
    positions are equal and every inequality the atom covers holds; its key
    lists the values of the atom's distinct variables in sorted order.
    """

    positions: Tuple[int, ...]  # first atom position of each key variable
    equalities: Tuple[Tuple[int, int], ...]  # (later, first) position of one variable
    limits: Tuple[Tuple[int, int], ...]  # (position, bound): component <= bound
    project: TupleGetter = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.project = tuple_getter(self.positions)

    def key(self, t: DataTuple) -> Optional[DataTuple]:
        for i, j in self.equalities:
            if t[i] != t[j]:
                return None
        for i, bound in self.limits:
            if t[i] > bound:
                return None
        return self.project(t)

    def relation(self, entries: Dict[DataTuple, Value]) -> Dict[DataTuple, Value]:
        """The leaf relation: matching tuples re-keyed, annotations kept."""
        if not self.equalities and not self.limits and self.positions == tuple(
            range(len(self.positions))
        ):
            # common fast path: distinct, already-sorted variables, no filters
            return dict(entries)
        key = self.key
        out: Dict[DataTuple, Value] = {}
        for t, k in entries.items():
            kt = key(t)
            if kt is not None:
                out[kt] = k
        return out


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
    limits: Dict[str, int] = {}
    for ineq in covered:
        c = db.constant(ineq.bound)
        limits[ineq.var] = min(limits.get(ineq.var, c), c)
    return LeafMatcher(
        tuple(first[v] for v in sorted(first)),
        tuple(equalities),
        tuple((first[v], c) for v, c in sorted(limits.items())),
    )


def _project(
    child_rel: Dict[DataTuple, Value], key: TupleGetter, s: SemiringDescriptor
) -> Dict[DataTuple, Value]:
    out: Dict[DataTuple, Value] = {}
    add = s.add
    for t, k in child_rel.items():
        kt = key(t)
        if kt in out:
            out[kt] = add(out[kt], k)
        else:
            out[kt] = k
    if s.zero_sum_free:
        return out
    is_zero = s.is_zero
    return {t: k for t, k in out.items() if not is_zero(k)}


def preprocess(q: ConjunctiveQuery, db: Database) -> EnumerationState:
    """Build the enumeration data structure; linear in the database size."""
    if not is_free_connex(q):
        raise ClassificationError(f"query is not free-connex: {q.to_text()}")
    return preprocess_with_plan(q, db, build_fc_plan(q))


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
    state = EnumerationState(q, sp, None, s, db)
    state.ineq = build_ineq_state(sp, db, s)

    if sp.rel_part.relational_atoms:
        assert plan is not None
        state.plan = plan
        for nid, node in plan.nodes.items():
            if node.is_leaf:
                i = node.atom_index
                state.matchers[nid] = build_leaf_matcher(plan.atoms[i], sp.covered[i], db)
        _bottom_up(state)
        _build_connex_structures(state)
    return state


def _bottom_up(state: EnumerationState) -> None:
    plan = state.plan
    s = state.semiring
    for nid in plan.postorder():
        node = plan.nodes[nid]
        if node.is_leaf:
            rel = state.db.relation(plan.atoms[node.atom_index].symbol)
            state.relations[nid] = state.matchers[nid].relation(rel.entries)
        elif len(node.children) == 1:
            c = node.children[0]
            state.relations[nid] = _project(state.relations[c], plan.key[c], s)
        else:
            # c1 carries the node's variables; c2's are contained in them
            c1, c2 = node.children
            key = plan.key[c2]
            small = state.relations[c2]
            mul = s.mul
            is_zero = s.is_zero
            out: Dict[DataTuple, Value] = {}
            for t, k in state.relations[c1].items():
                other = small.get(key(t))
                if other is None:
                    continue
                combined = mul(k, other)
                if not is_zero(combined):
                    out[t] = combined
            state.relations[nid] = out


def _build_connex_structures(state: EnumerationState) -> None:
    """Candidate sets and extension groups over the connex region.

    ``candidates[n]`` contains the vars(n)-tuples that extend to at least one
    full assignment of the connex variables below n; ``groups[c]`` (for a
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
            state.candidates[nid] = dict.fromkeys(state.relations[nid], True)
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

def _walk(state: EnumerationState, nid: int, t: DataTuple, env: Dict[str, int]) -> Iterator[Value]:
    """Yield the annotation of every assignment of the connex variables below
    ``nid`` compatible with tuple ``t``; yields never dead-end."""
    plan = state.plan
    for v, val in zip(plan.order[nid], t):
        env[v] = val
    if nid in plan.frontier:
        yield state.relations[nid][t]
        return
    children = plan.nodes[nid].children
    if len(children) == 1:
        c = children[0]
        for t_c in state.groups[c][t]:
            yield from _walk(state, c, t_c, env)
        return
    c1, c2 = children
    t2 = plan.key[c2](t)
    mul = state.semiring.mul
    for k1 in _walk(state, c1, t, env):
        for k2 in _walk(state, c2, t2, env):
            yield mul(k1, k2)


def enumerate_state(
    state: EnumerationState, limit: Optional[int] = None
) -> Iterator[Tuple[DataTuple, Value]]:
    """Stream (head tuple, annotation) pairs, each exactly once.

    Output order is the deterministic depth-first order of the plan combined
    with nested loops over the inequality ranges.  The common single-connex-
    node shape degenerates to a scan of the materialized root relation with
    no per-output allocation beyond the emitted pair.
    """
    s = state.semiring
    ineq = state.ineq
    if s.is_zero(ineq.annotation) or (limit is not None and limit <= 0):
        return
    head = state.query.head_vars
    version = state.version
    emitted = 0
    mul = s.mul
    k_ineq = ineq.annotation

    ineq_vars = [v for v, _ in ineq.free_ranges]
    ineq_bounds = [b for _, b in ineq.free_ranges]
    plan = state.plan

    if not ineq_vars and plan is not None and len(plan.connex) == 1:
        # fast path: scan the root relation, project to the head order
        order = plan.order[plan.root]
        head_key = tuple_getter([order.index(v) for v in head])
        for t, val in state.relations[plan.root].items():
            if state.version != version:
                raise RuntimeError("enumeration cursor invalidated by an update")
            yield head_key(t), mul(val, k_ineq)
            emitted += 1
            if limit is not None and emitted >= limit:
                return
        return

    def rel_stream(env: Dict[str, int]) -> Iterator[Value]:
        if plan is None:
            yield s.one
            return
        for t_root in state.candidates[plan.root]:
            yield from _walk(state, plan.root, t_root, env)

    env: Dict[str, int] = {}
    if not ineq_vars:
        head_order = tuple(head)
        for val in rel_stream(env):
            if state.version != version:
                raise RuntimeError("enumeration cursor invalidated by an update")
            yield tuple(env[v] for v in head_order), mul(val, k_ineq)
            emitted += 1
            if limit is not None and emitted >= limit:
                return
        return

    for val in rel_stream(env):
        k = mul(val, k_ineq)
        counters = [1] * len(ineq_vars)
        while True:
            for v, c in zip(ineq_vars, counters):
                env[v] = c
            if state.version != version:
                raise RuntimeError("enumeration cursor invalidated by an update")
            yield tuple(env[v] for v in head), k
            emitted += 1
            if limit is not None and emitted >= limit:
                return
            i = len(counters) - 1
            while i >= 0 and counters[i] == ineq_bounds[i]:
                counters[i] = 1
                i -= 1
            if i < 0:
                break
            counters[i] += 1


def eval_materialized(q: ConjunctiveQuery, db: Database) -> AnnotatedRelation:
    """Preprocess then drain the enumeration into an annotated relation."""
    state = preprocess(q, db)
    entries = dict(enumerate_state(state))
    return AnnotatedRelation(len(q.head_vars), entries)


# ---------------------------------------------------------------------------
# Invariant walker (tests and --verify)
# ---------------------------------------------------------------------------

def verify_node_invariants(state: EnumerationState) -> List[str]:
    """Check the stored node relations against their defining equations."""
    problems: List[str] = []
    if state.plan is None:
        return problems
    plan = state.plan
    s = state.semiring
    for nid in plan.postorder():
        node = plan.nodes[nid]
        rel = state.relations[nid]
        for t, k in rel.items():
            if s.is_zero(k):
                problems.append(f"node {nid}: stored zero annotation at {t}")
        if node.is_leaf:
            continue
        if len(node.children) == 1:
            c = node.children[0]
            key = plan.key[c]
            want: Dict[DataTuple, Value] = {}
            for t, k in state.relations[c].items():
                kt = key(t)
                want[kt] = s.add(want[kt], k) if kt in want else k
            want = {t: k for t, k in want.items() if not s.is_zero(k)}
            if want != rel:
                problems.append(f"node {nid}: projection aggregate mismatch")
            if s.zero_sum_free:
                for t in state.relations[c]:
                    if key(t) not in rel:
                        problems.append(f"node {nid}: child tuple {t} lacks parent")
        else:
            c1, c2 = node.children
            key = plan.key[c2]
            for t, k in rel.items():
                k1 = state.relations[c1].get(t)
                k2 = state.relations[c2].get(key(t))
                if k1 is None or k2 is None or s.mul(k1, k2) != k:
                    problems.append(f"node {nid}: join value mismatch at {t}")
    return problems


# ---------------------------------------------------------------------------
# Timing helpers used by the benchmark CLI and the scaling tests
# ---------------------------------------------------------------------------

def timed_preprocess(q: ConjunctiveQuery, db: Database) -> Tuple[EnumerationState, float]:
    start = time.perf_counter()
    state = preprocess(q, db)
    return state, time.perf_counter() - start


def delay_gaps(state: EnumerationState, limit: Optional[int] = None) -> List[float]:
    """Inter-output gaps in seconds, excluding the time to the first output."""
    gaps: List[float] = []
    last = None
    for _ in enumerate_state(state, limit=limit):
        now = time.perf_counter()
        if last is not None:
            gaps.append(now - last)
        last = now
    return gaps
