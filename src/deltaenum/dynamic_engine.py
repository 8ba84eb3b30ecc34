"""Incremental maintenance of the enumeration structure under single-tuple
updates, with constant update time for q-hierarchical queries.

The dynamic state is the static one built over a *guarded* plan, extended
with one member count per (projection edge, parent tuple) below a node that
has a relation: the number of child tuples grouped under that tuple.  The
group's sum is the parent relation's value there, so an update adjusts it
with the semiring's ``sub`` and ``add`` and the count says when the group
empties.  An update touches one leaf per matching atom and then walks the
(query-constant) path up to the first connex node, which is on the connex
frontier; guarded plans make every step O(1) because the parent tuple
affected by a child delta is unique (vars(parent) is a subset of
vars(child)) and 2-child nodes carry equal variable sets on both children.

A frontier node's candidates are the tuples of its relation, and a
projection's are the keys of its child's extension group.  When a frontier
node's support changes, the change ripples up the connex region: a
projection step moves the tuple in or out of its group, which changes the
parent's candidates with it, and a 2-child step looks the tuple up in the
sibling's candidates and writes the parent's, again O(1) per step.

``dyn_preprocess`` runs the static preprocess over the guarded plan, the
one bottom-up path of both engines, and counts the members of each group
of a stored projection's child.  It then compiles the update paths once
per plan (``DynamicState.paths``): per leaf, its key function and relation,
then one tuple of steps up to the first connex node and one over the
connex region, each step holding the dicts it reads and writes.
``dyn_update`` applies the update to the database once, through
``kdata.apply_update``, and runs each leaf's path as one flat loop without
consulting the plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .errors import CapabilityError, ClassificationError
from .kdata import Database, DataTuple, SingleTupleUpdate, apply_update
from .planner import QueryPlan, TupleGetter, build_guarded_plan
from .query import ConjunctiveQuery
from .semiring import Value
from .static_engine import EnumerationState, enumerate_state, preprocess_with_plan


# One step of a compiled update path, from a node to its parent: the
# parent's relation (upward) or candidates (connex), the key getter from the
# node's tuple to the parent's (None at a 2-child node, whose children carry
# the parent's tuple), and the parent's member counts (upward projection),
# the sibling's relation or candidates (2-child node), or None (connex
# projection: the parent's candidates are the node's extension group).
PathStep = Tuple[Dict[DataTuple, Value], Optional[TupleGetter], Dict]
LeafPath = Tuple[Callable, Dict[DataTuple, Value], Tuple[PathStep, ...], Tuple[PathStep, ...]]


@dataclass
class DynamicState:
    """Maintained evaluation state; owns and mutates its database."""

    enum: EnumerationState
    # per single-child node with a relation (outside the connex region or on
    # its frontier): parent tuple -> the number of child tuples projecting
    # onto it; their sum is the parent relation's value
    accs: Dict[int, Dict[DataTuple, int]] = field(default_factory=dict)
    # per relation symbol: the update path of each plan leaf of that symbol,
    # compiled once; every dict a path holds is one of the state's own
    paths: Dict[str, List[LeafPath]] = field(default_factory=dict)

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
    for p in plan.postorder():
        children = plan.nodes[p].children
        if p in plan.stored and len(children) == 1:
            c = children[0]
            state.accs[p] = dict(Counter(map(plan.key[c], enum.relations[c])))
    for leaf in plan.postorder():
        if not plan.nodes[leaf].is_leaf:
            continue
        ups: List[PathStep] = []
        connex: List[PathStep] = []
        c = leaf
        while c != plan.root:
            p = plan.nodes[c].parent
            children = plan.nodes[p].children
            in_connex = c in plan.connex
            store = enum.candidates if in_connex else enum.relations
            if len(children) == 1:
                step = (store[p], plan.key[c], None if in_connex else state.accs[p])
            else:
                step = (store[p], None, store[children[1] if children[0] == c else children[0]])
            (connex if in_connex else ups).append(step)
            c = p
        symbol = plan.atoms[plan.nodes[leaf].atom_index].symbol
        state.paths.setdefault(symbol, []).append(
            (enum.matchers[leaf], enum.relations[leaf], tuple(ups), tuple(connex))
        )
    return state


# ---------------------------------------------------------------------------
# Update propagation
# ---------------------------------------------------------------------------

def dyn_update(state: DynamicState, u: SingleTupleUpdate) -> None:
    """Apply a single-tuple update and repair all maintained structures.

    Each plan leaf of the updated relation runs its compiled path: the
    change of its relation at the tuple's key is carried up to the first
    connex node, and a change of that node's support on up the candidates
    to the root.  Either part stops at the first node that does not change.
    """
    enum = state.enum
    old_db, new_db = apply_update(enum.db, u)
    enum.version += 1
    if old_db == new_db:
        return
    s = enum.semiring
    add, sub, mul, is_zero, zero = s.add, s.sub, s.mul, s.is_zero, s.zero
    for leaf_key, leaf_rel, ups, connex in state.paths.get(u.relation, ()):
        key = leaf_key(u.tuple)
        if key is None:
            continue
        # the leaf relation holds the database annotation of every key
        old, new = old_db, new_db
        if new is None:
            del leaf_rel[key]
        else:
            leaf_rel[key] = new
        for prel, get, other in ups:
            pkey = key if get is None else get(key)
            pold = prel.get(pkey)
            if get is None:
                sib = other.get(key)
                pnew = None if new is None or sib is None else mul(new, sib)
            else:
                # the group's sum is the parent's value (zero when absent);
                # it restarts from zero when the group empties
                n = other.get(pkey, 0)
                pnew = pold or zero
                if old is not None:
                    n -= 1
                    pnew = sub(pnew, old) if n else zero
                if new is not None:
                    n += 1
                    pnew = add(pnew, new)
                if n:
                    other[pkey] = n
                else:
                    del other[pkey]
            if pnew is not None and is_zero(pnew):
                pnew = None
            if pold == pnew:
                break  # nothing changes further up
            if pnew is None:
                del prel[pkey]
            else:
                prel[pkey] = pnew
            key, old, new = pkey, pold, pnew
        else:
            if (old is None) == (new is None):
                continue  # the support of the first connex node is unchanged
            added = new is not None
            for pcands, get, other in connex:
                if get is None:
                    # the parent's candidates are the tuples in both
                    # children's candidate sets
                    if key not in other:
                        break
                    if added:
                        pcands[key] = True
                    else:
                        del pcands[key]
                    continue
                # the parent's candidates are the keys of this node's group
                pkey = get(key)
                if added:
                    bucket = pcands.get(pkey)
                    if bucket is None:
                        bucket = pcands[pkey] = {}
                    bucket[key] = True
                    if len(bucket) > 1:
                        break  # parent candidate already present
                else:
                    bucket = pcands[pkey]
                    del bucket[key]
                    if bucket:
                        break
                    del pcands[pkey]
                key = pkey


def dyn_enumerate(state: DynamicState, limit: Optional[int] = None) -> Iterator[Tuple[DataTuple, Value]]:
    """Stream the maintained answer; same contract as static enumeration.

    Cursors are invalidated by any update (single-writer discipline).
    """
    return enumerate_state(state.enum, limit=limit)


# ---------------------------------------------------------------------------
# Invariant walker
# ---------------------------------------------------------------------------

def verify_dynamic_invariants(state: DynamicState) -> List[str]:
    """Cross-check member counts, candidates, and node relations (small
    dbs); ``verify_node_invariants`` checks the sums, which are the node
    relations."""
    from .static_engine import verify_node_invariants

    enum = state.enum
    problems = verify_node_invariants(enum)
    if enum.plan is None:
        return problems
    plan = enum.plan
    for nid, counts in state.accs.items():
        c = plan.nodes[nid].children[0]
        if counts != dict(Counter(map(plan.key[c], enum.relations[c]))):
            problems.append(f"node {nid}: member counts mismatch")
    # candidate sets against a fresh recomputation
    fresh = preprocess_with_plan(enum.query, enum.db, plan)
    for nid in plan.connex:
        if set(fresh.candidates.get(nid, {})) != set(enum.candidates.get(nid, {})):
            problems.append(f"node {nid}: candidate set mismatch")
    for nid, grp in enum.groups.items():
        if enum.candidates[plan.nodes[nid].parent] is not grp:
            problems.append(f"node {nid}: its group is not its parent's candidate set")
        fresh_grp = fresh.groups.get(nid, {})
        if {k: set(v) for k, v in grp.items()} != {k: set(v) for k, v in fresh_grp.items()}:
            problems.append(f"node {nid}: extension groups mismatch")
    return problems
