"""Incremental maintenance of the enumeration structure under single-tuple
updates, with constant update time for q-hierarchical queries.

The dynamic state is the static one built over a *guarded* plan, extended
with one sum accumulator per (projection edge, parent tuple) below a node
that has a relation: the multiset of child annotations grouped under that
tuple.  An update touches one leaf per matching atom and then walks the
(query-constant) path up to the first connex node, which is on the connex
frontier; guarded plans make every step O(1) because the parent tuple
affected by a child delta is unique (vars(parent) is a subset of
vars(child)) and 2-child nodes carry equal variable sets on both children.

A frontier node's candidates are the tuples of its relation.  When its
support changes, the change ripples up the connex region through the
extension groups and, at a 2-child node, through one lookup in the sibling's
candidates, again O(1) per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import CapabilityError, ClassificationError
from .kdata import Database, DataTuple, SingleTupleUpdate, apply_update
from .planner import QueryPlan, build_guarded_plan
from .query import ConjunctiveQuery
from .semiring import SumAccumulator, Value, acc_new
from .static_engine import EnumerationState, enumerate_state, preprocess_with_plan


@dataclass
class DynamicState:
    """Maintained evaluation state; owns and mutates its database."""

    enum: EnumerationState
    # per single-child node with a relation (outside the connex region or on
    # its frontier): parent tuple -> accumulator over the multiset of child
    # annotations projecting onto it
    accs: Dict[int, Dict[DataTuple, SumAccumulator]] = field(default_factory=dict)
    # leaves by relation symbol
    leaves: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def db(self) -> Database:
        return self.enum.db

    @property
    def plan(self) -> Optional[QueryPlan]:
        return self.enum.plan


def dyn_preprocess(q: ConjunctiveQuery, db: Database) -> DynamicState:
    """Linear-time preprocessing for dynamic evaluation.

    Requires a q-hierarchical query and a sum-maintainable semi-integral
    domain; static evaluation remains available for merely free-connex
    queries.
    """
    s = db.semiring
    if not s.sum_maintainable:
        raise CapabilityError(
            f"dynamic maintenance needs a sum-maintainable semiring, not {s.name!r}"
        )
    plan = build_guarded_plan(q)
    if plan is None and q.relational_atoms:
        raise ClassificationError(
            f"query is not q-hierarchical (static evaluation is still available): {q.to_text()}"
        )
    enum = preprocess_with_plan(q, db, plan)
    state = DynamicState(enum)
    plan = enum.plan
    if plan is None:
        return state

    for nid in plan.postorder():
        node = plan.nodes[nid]
        if node.is_leaf:
            atom = plan.atoms[node.atom_index]
            state.leaves.setdefault(atom.symbol, []).append(nid)
        elif len(node.children) == 1 and nid in enum.relations:
            c = node.children[0]
            key = plan.key[c]
            table: Dict[DataTuple, SumAccumulator] = {}
            for t, k in enum.relations[c].items():
                kt = key(t)
                acc = table.get(kt)
                if acc is None:
                    acc = table[kt] = acc_new(s)
                acc.insert(k)
            state.accs[nid] = table
    return state


# ---------------------------------------------------------------------------
# Update propagation
# ---------------------------------------------------------------------------

def dyn_update(state: DynamicState, u: SingleTupleUpdate) -> None:
    """Apply a single-tuple update and repair all maintained structures."""
    enum = state.enum
    db = enum.db
    rel = db.relation(u.relation)
    old_db_val = rel.entries.get(u.tuple)
    apply_update(db, u)
    new_db_val = rel.entries.get(u.tuple)
    enum.version += 1
    if enum.plan is None or u.relation not in state.leaves:
        return
    if old_db_val is None and new_db_val is None:
        return

    for leaf_id in state.leaves[u.relation]:
        key = enum.matchers[leaf_id].key(u.tuple)
        if key is None:
            continue
        old = enum.relations[leaf_id].get(key)
        new = new_db_val
        if old == new:
            continue
        if new is None:
            del enum.relations[leaf_id][key]
        else:
            enum.relations[leaf_id][key] = new
        _propagate(state, leaf_id, key, old, new)


def _propagate(
    state: DynamicState, nid: int, key: DataTuple, old: Optional[Value], new: Optional[Value]
) -> None:
    """Carry the change of ``nid``'s relation at ``key`` from ``old`` to
    ``new`` (None: absent) up to the first connex node, a frontier node, and
    pass a change of that node's support on to the candidates above it."""
    enum = state.enum
    plan = enum.plan
    s = enum.semiring
    while nid not in plan.connex:  # the root is connex
        parent = plan.nodes[nid].parent
        pnode = plan.nodes[parent]
        if len(pnode.children) == 1:
            pkey = plan.key[nid](key)
            table = state.accs[parent]
            acc = table.get(pkey)
            if acc is None:
                acc = table[pkey] = acc_new(s)
            if old is not None:
                acc.delete(old)
            if new is not None:
                acc.insert(new)
            if len(acc) == 0:
                del table[pkey]
                pnew: Optional[Value] = None
            else:
                total = acc.total()
                pnew = None if s.is_zero(total) else total
        else:
            sibling = next(c for c in pnode.children if c != nid)
            pkey = key  # guarded plans: equal variable sets at 2-child nodes
            sib_val = enum.relations[sibling].get(key)
            if new is None or sib_val is None:
                pnew = None
            else:
                combined = s.mul(new, sib_val)
                pnew = None if s.is_zero(combined) else combined
        pold = enum.relations[parent].get(pkey)
        if pold == pnew:
            return  # nothing changes further up
        if pnew is None:
            del enum.relations[parent][pkey]
        else:
            enum.relations[parent][pkey] = pnew
        nid, key, old, new = parent, pkey, pold, pnew
    if (old is None) != (new is None):
        _candidate_delta(state, nid, key, added=new is not None)


def _candidate_delta(state: DynamicState, nid: int, t: DataTuple, added: bool) -> None:
    """Update the candidates above connex node ``nid``, whose candidate set
    has just gained (``added``) or lost ``t``."""
    enum = state.enum
    plan = enum.plan
    while nid != plan.root:
        parent = plan.nodes[nid].parent
        pnode = plan.nodes[parent]
        if len(pnode.children) == 1:
            pkey = plan.key[nid](t)
            grp = enum.groups[nid]
            if added:
                bucket = grp.get(pkey)
                if bucket is None:
                    bucket = grp[pkey] = {}
                bucket[t] = True
                if len(bucket) > 1:
                    return  # parent candidate already present
            else:
                bucket = grp[pkey]
                del bucket[t]
                if bucket:
                    return
                del grp[pkey]
            t = pkey
        else:
            # guarded plans: both children carry the node's tuple, and the
            # node's candidates are the tuples in both candidate sets
            sibling = next(c for c in pnode.children if c != nid)
            if t not in enum.candidates[sibling]:
                return
        if added:
            enum.candidates[parent][t] = True
        else:
            del enum.candidates[parent][t]
        nid = parent


def dyn_enumerate(state: DynamicState, limit: Optional[int] = None) -> Iterator[Tuple[DataTuple, Value]]:
    """Stream the maintained answer; same contract as static enumeration.

    Cursors are invalidated by any update (single-writer discipline).
    """
    return enumerate_state(state.enum, limit=limit)


# ---------------------------------------------------------------------------
# Invariant walker
# ---------------------------------------------------------------------------

def verify_dynamic_invariants(state: DynamicState) -> List[str]:
    """Cross-check accumulators, candidates, and node relations (small dbs)."""
    from .static_engine import verify_node_invariants

    enum = state.enum
    problems = verify_node_invariants(enum)
    if enum.plan is None:
        return problems
    plan = enum.plan
    s = enum.semiring
    for nid, table in state.accs.items():
        c = plan.nodes[nid].children[0]
        want: Dict[DataTuple, List[Value]] = {}
        for t, k in enum.relations[c].items():
            want.setdefault(plan.key[c](t), []).append(k)
        if set(want) != set(table):
            problems.append(f"node {nid}: accumulator keys mismatch")
            continue
        for key, values in want.items():
            acc = table[key]
            if len(acc) != len(values):
                problems.append(f"node {nid}: accumulator size mismatch at {key}")
            total = s.zero
            for v in values:
                total = s.add(total, v)
            got = acc.total()
            if isinstance(total, float):
                if abs(got - total) > 1e-6 * max(1.0, abs(total)):
                    problems.append(f"node {nid}: accumulator total mismatch at {key}")
            elif got != total:
                problems.append(f"node {nid}: accumulator total mismatch at {key}")
    # candidate sets against a fresh recomputation
    fresh = preprocess_with_plan(enum.query, enum.db, plan)
    for nid in plan.connex:
        if set(fresh.candidates.get(nid, {})) != set(enum.candidates.get(nid, {})):
            problems.append(f"node {nid}: candidate set mismatch")
    for nid, grp in enum.groups.items():
        fresh_grp = fresh.groups.get(nid, {})
        if {k: set(v) for k, v in grp.items()} != {k: set(v) for k, v in fresh_grp.items()}:
            problems.append(f"node {nid}: extension groups mismatch")
    return problems
