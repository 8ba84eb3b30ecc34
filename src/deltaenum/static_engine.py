"""Linear-time preprocessing and constant-delay enumeration for free-connex CQs.

Preprocessing runs one bottom-up pass over the nodes of the query plan
below the connex region and on its frontier, the only node relations
enumeration reads:

* leaves hold the atom's relation filtered by repeated-variable matching and
  by the inequalities the atom covers;
* single-child nodes aggregate their child by semiring addition over the
  projection (dropping zero sums); for the dynamic engine the same pass
  keeps one sum accumulator per tuple and reads the sum off its total;
* 2-child nodes intersect the guard child with the smaller-variable child,
  multiplying annotations (dropping zero products).

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
from .semiring import SemiringDescriptor, SumAccumulator, Value, sum_of_ones


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
    split: QuerySplit
    plan: Optional[QueryPlan]  # None when the relational part is empty
    semiring: SemiringDescriptor
    db: Database
    # per plan node outside the connex region or on its frontier: the
    # aggregated node relation, keyed in ``plan.order``
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
    """

    positions: Tuple[int, ...]  # first atom position of each key variable
    equalities: Tuple[Tuple[int, int], ...]  # (later, first) position of one variable
    limits: Tuple[Tuple[int, int], ...]  # (position, bound): component <= bound
    project: TupleGetter = field(init=False, repr=False, compare=False)
    key: Callable[[DataTuple], Optional[DataTuple]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.project = tuple_getter(self.positions)
        self.key = self._filtered_key if self.equalities or self.limits else self.project

    def _filtered_key(self, t: DataTuple) -> Optional[DataTuple]:
        for i, j in self.equalities:
            if t[i] != t[j]:
                return None
        for i, bound in self.limits:
            if t[i] > bound:
                return None
        return self.project(t)

    def relation(self, entries: Dict[DataTuple, Value]) -> Dict[DataTuple, Value]:
        """The leaf relation: matching tuples re-keyed, annotations kept."""
        if self.key is self.project and self.positions == tuple(range(len(self.positions))):
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
    return LeafMatcher(
        tuple(first[v] for v in sorted(first)),
        tuple(equalities),
        tuple((first[v], c) for v, c in sorted(_limits(covered, db).items())),
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


def _accumulate(
    child_rel: Dict[DataTuple, Value],
    key: TupleGetter,
    s: SemiringDescriptor,
    table: Dict[DataTuple, SumAccumulator],
) -> Dict[DataTuple, Value]:
    """``_project`` through one sum accumulator per key, kept in ``table``:
    each total adds the same values in the same order, so it equals
    ``_project``'s sum."""
    new_acc = s.acc_factory
    for t, k in child_rel.items():
        kt = key(t)
        acc = table.get(kt)
        if acc is None:
            acc = table[kt] = new_acc()
        acc.insert(k)
    if s.zero_sum_free:
        return {kt: acc.total() for kt, acc in table.items()}
    is_zero = s.is_zero
    out: Dict[DataTuple, Value] = {}
    for kt, acc in table.items():
        total = acc.total()
        if not is_zero(total):
            out[kt] = total
    return out


def preprocess(q: ConjunctiveQuery, db: Database) -> EnumerationState:
    """Build the enumeration data structure; linear in the database size."""
    plan = build_fc_plan(q)
    if plan is None and q.relational_atoms:
        raise ClassificationError(f"query is not free-connex: {q.to_text()}")
    return preprocess_with_plan(q, db, plan)


def preprocess_with_plan(
    q: ConjunctiveQuery,
    db: Database,
    plan: Optional[QueryPlan],
    accs: Optional[Dict[int, Dict[DataTuple, SumAccumulator]]] = None,
) -> EnumerationState:
    """Preprocess over a caller-supplied plan (the dynamic engine passes a
    guarded one); ``plan`` may be None only for an empty relational part.

    With ``accs`` (the dynamic engine's table, over a sum-maintainable
    semiring), each single-child node with a relation gets there one sum
    accumulator per tuple, grouping the child's annotations, and its
    relation is read off their totals in the same pass."""
    s = db.semiring
    if not s.zero_divisor_free:
        raise CapabilityError(
            f"static enumeration needs a zero-divisor-free semiring, not {s.name!r}"
        )
    sp = split(q)
    state = EnumerationState(q, sp, None, s, db)
    state.ineq = build_ineq_state(sp, db, s)
    level_vars: List[str] = []

    if sp.rel_part.relational_atoms:
        assert plan is not None
        state.plan = plan
        for nid, node in plan.nodes.items():
            if node.is_leaf:
                i = node.atom_index
                state.matchers[nid] = build_leaf_matcher(plan.atoms[i], sp.covered[i], db)
        _bottom_up(state, accs)
        _build_connex_structures(state)
        level_vars = [v for level in plan.levels for v in level.order]
    level_vars += [v for v, _ in state.ineq.free_ranges]
    state.head = tuple_getter([level_vars.index(v) for v in q.head_vars])
    return state


def _bottom_up(
    state: EnumerationState, accs: Optional[Dict[int, Dict[DataTuple, SumAccumulator]]]
) -> None:
    plan = state.plan
    s = state.semiring
    for nid in plan.postorder():
        if nid in plan.connex and nid not in plan.frontier:
            continue  # enumeration reads the candidates of these nodes only
        node = plan.nodes[nid]
        if node.is_leaf:
            rel = state.db.relation(plan.atoms[node.atom_index].symbol)
            state.relations[nid] = state.matchers[nid].relation(rel.entries)
        elif len(node.children) == 1:
            c = node.children[0]
            if accs is None:
                state.relations[nid] = _project(state.relations[c], plan.key[c], s)
            else:
                table = accs[nid] = {}
                state.relations[nid] = _accumulate(state.relations[c], plan.key[c], s, table)
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

def verify_node_invariants(state: EnumerationState) -> List[str]:
    """Check the stored node relations against their defining equations."""
    problems: List[str] = []
    if state.plan is None:
        return problems
    plan = state.plan
    s = state.semiring
    for nid, rel in state.relations.items():
        node = plan.nodes[nid]
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
# Timing helper used by the scaling tests
# ---------------------------------------------------------------------------

def timed_preprocess(q: ConjunctiveQuery, db: Database) -> Tuple[EnumerationState, float]:
    start = time.perf_counter()
    state = preprocess(q, db)
    return state, time.perf_counter() - start
