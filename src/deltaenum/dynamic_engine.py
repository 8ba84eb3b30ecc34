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
one bottom-up path of both engines, and returns the ``EnumerationState`` it
builds, whose generated connex build (``static_engine.connex_source``) also
counts the members of each group of a stored projection's child into
``accs``.  A leaf whose tuples are their own keys has the database's
entries themselves as its relation.  The update path of each plan leaf is
generated as Python source (``update_source``, per relation symbol
``update_sources``): the leaf's key expression (``static_engine.leaf_key``),
then every step up to the root unrolled, with its dicts hoisted and its
keys written as tuple displays.  Each symbol's apply step is generated too
(``kdata.apply_source``): it checks the update, writes the database's
entries and calls the symbol's leaf path, or a chain over its leaves in
postorder, when the annotation changed.  Each distinct source is compiled
once (``codegen.compile_source`` caches them), and the state's ``paths``
holds one apply step per relation symbol.  ``dyn_update`` makes one call
per update, to its symbol's apply step; an update that the step does not
take, and one to a symbol outside the query, goes through
``kdata.apply_update``, the reference, which raises the error.  A query
without relational atoms has the guarded plan with no nodes, so its state
has no apply step and no update changes its answers.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import partial
from typing import AbstractSet, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .codegen import compile_source, project
from .errors import CapabilityError, ClassificationError
from .kdata import Database, DataTuple, SingleTupleUpdate, apply_source, apply_update
from .planner import QueryPlan, build_guarded_plan
from .query import ConjunctiveQuery
from .semiring import SemiringDescriptor, Value
from .static_engine import EnumerationState, enumerate_state, leaf_key, preprocess_with_plan


def dyn_preprocess(q: ConjunctiveQuery, db: Database) -> EnumerationState:
    """Linear-time preprocessing for dynamic evaluation: the state, which
    owns and mutates its database, with its ``accs`` and ``paths``.

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
    if plan is None:
        raise ClassificationError(
            f"query is not q-hierarchical (static evaluation is still available): {q.to_text()}"
        )
    state = preprocess_with_plan(q, db, plan)
    reject = partial(apply_update, db)
    for symbol, sources in update_sources(plan, s).items():
        updates = [compile_source(source, "make")(state) for source in sources.values()]
        path = updates[0] if len(updates) == 1 else _chain(tuple(updates))
        rel = db.relations[symbol]
        state.paths[symbol] = compile_source(apply_source(rel.arity, s), "make")(s, rel.entries, path, reject)
    return state


def update_sources(plan: QueryPlan, s: SemiringDescriptor) -> Dict[str, Dict[int, str]]:
    """Per relation symbol, the ``update_source`` of each of its leaves in
    the guarded ``plan`` over the semiring ``s``, in postorder, each given
    as ``later`` the leaves of its symbol after it whose tuples are their
    own keys."""
    leaves = [nid for nid in plan.postorder() if plan.nodes[nid].is_leaf]
    keys = {nid: leaf_key(plan, nid) for nid in leaves}
    symbols = {nid: plan.atoms[plan.nodes[nid].atom_index].symbol for nid in leaves}
    out: Dict[str, Dict[int, str]] = {}
    for i, nid in enumerate(leaves):
        later = {m for m in leaves[i + 1:] if keys[m] is None and symbols[m] == symbols[nid]}
        out.setdefault(symbols[nid], {})[nid] = update_source(plan, nid, keys[nid], s, later)
    return out


def _chain(updates: Sequence[Callable]) -> Callable:
    """One update that runs each of ``updates`` in turn."""
    def update(t, old, new):
        for path in updates:
            path(t, old, new)

    return update


# ---------------------------------------------------------------------------
# Update propagation
# ---------------------------------------------------------------------------

def update_source(
    plan: QueryPlan, leaf: int, key: Optional[str], s: SemiringDescriptor, later: AbstractSet[int] = frozenset()
) -> str:
    """The source of ``make(state)``, which returns ``update(t, old, new)``:
    the update path of the guarded plan's ``leaf`` unrolled, for a change of
    its relation symbol's annotation at ``t`` from ``old`` to ``new`` (None
    when absent), made after the database's entries were written, ``key``
    being the leaf's key expression (``leaf_key``), None when its tuples are
    their own keys.  Such a leaf's relation is the database's entries, so
    the path does not write it.  ``later`` holds the leaves of the same
    symbol whose tuples are their own keys and whose paths run after this
    one's: their relation, the database's entries, is read as it was before
    the update, with the value ``old`` at ``t``, as each leaf's change is
    carried up in turn.

    Node ``n``'s key is ``kn``, its old and new value ``on`` and ``vn``; its
    relation, member counts and candidates are ``rn``, ``an`` and ``cn``,
    read off the state once, by ``make``, as is ``state.bounds`` when the
    key reads it.  The steps up to the first connex
    node carry the change of value, and the path returns at the first node
    whose value does not change.  From there a change of support goes on up
    the candidates to the root: one chain for a tuple that enters the
    support, one for a tuple that leaves it, each returning at the first
    node whose candidates do not change.  Only fixed names and integer
    literals are written besides the semiring ``s``'s operator templates,
    no symbol of the query.
    """
    c, k, o, v = leaf, "t", "old", "new"
    body = []
    if key is not None:
        k = f"k{leaf}"
        body += [f"{k} = {key}", f"if {k} is None:", "    return"]
        body += [f"if {v} is None:", f"    del r{c}[{k}]", "else:", f"    r{c}[{k}] = {v}"]
    enters, leaves = [], []  # the chains of a tuple entering or leaving the support
    while c != plan.root:
        p = plan.nodes[c].parent
        children = plan.nodes[p].children
        sib, kp = sum(children) - c, k  # a 2-child node's tuple is its children's
        # the sibling's support and value at this tuple; a later leaf in
        # ``later`` reads as before the update, ``old`` at ``t``
        absent, lookup = f"{k} not in c{sib}", f"r{sib}.get({k})"
        if sib in later and k == "t":
            absent, lookup = "old is None", "old"
        elif sib in later:
            absent, lookup = f"(old is None if {k} == t else {absent})", f"(old if {k} == t else {lookup})"
        if len(children) == 1:
            kp = f"k{p}"
            key_line = f"{kp} = {project(k, plan.positions[c], len(plan.order[c]))}"
        if c in plan.connex and len(children) == 2:
            # the parent's candidates are the tuples in both children's
            enters += [f"if {absent}:", "    return", f"c{p}[{k}] = True"]
            leaves += [f"if {absent}:", "    return", f"del c{p}[{k}]"]
        elif c in plan.connex:
            # the parent's candidates are the keys of this node's group
            enters += [key_line, f"b = c{p}.get({kp})", "if b is not None:", f"    b[{k}] = True", "    return"]
            enters += [f"c{p}[{kp}] = {{{k}: True}}"]
            leaves += [key_line, f"b = c{p}[{kp}]", f"del b[{k}]", "if b:", "    return", f"del c{p}[{kp}]"]
        elif len(children) == 2:
            body += [f"o{p} = r{p}.get({k})", f"x = {lookup}"]
            product = s.expr("mul", v, "x")
            body += [f"v{p} = None if {v} is None or x is None or {s.expr('is_zero', f'(x := {product})')} else x"]
        else:
            # the group's sum is the parent's value (zero when absent); it
            # restarts from zero when the group empties
            body += [key_line, f"o{p} = r{p}.get({kp})", f"n = a{p}.get({kp}, 0)", f"v{p} = zero if o{p} is None else o{p}"]
            body += [f"if {o} is not None:", "    n -= 1", f"    v{p} = {s.expr('sub', f'v{p}', o)} if n else zero"]
            body += [f"if {v} is not None:", "    n += 1", f"    v{p} = {s.expr('add', f'v{p}', v)}"]
            body += ["if n:", f"    a{p}[{kp}] = n", "else:", f"    del a{p}[{kp}]", f"if {s.expr('is_zero', f'v{p}')}:", f"    v{p} = None"]
        if c not in plan.connex:
            o, v = f"o{p}", f"v{p}"
            body += [f"if {o} == {v}:", "    return", f"if {v} is None:", f"    del r{p}[{kp}]", "else:", f"    r{p}[{kp}] = {v}"]
        c, k = p, kp
    if enters:
        body += [f"if {o} is None:", *["    " + line for line in enters]]
        body += [f"elif {v} is None:", *["    " + line for line in leaves]]
    # make reads each dict that the body names once
    stores = {"r": "state.relations", "a": "state.accs", "c": "state.candidates"}
    dicts = dict.fromkeys(re.findall(r"\b([rac])([0-9]+)\b", "\n".join(body)))
    lines = ["def make(state):", "    s = state.semiring"]
    lines += ["    add, sub, mul, is_zero, zero = s.add, s.sub, s.mul, s.is_zero, s.zero"]
    lines += ["    bounds = state.bounds"] if key and "bounds" in key else []
    lines += [f"    {x}{n} = {stores[x]}[{n}]" for x, n in dicts]
    # (nothing is left to do at a root leaf whose tuples are their own keys)
    lines += ["", "    def update(t, old, new):", *["        " + line for line in body or ["pass"]], "", "    return update"]
    return "\n".join(lines) + "\n"


def dyn_update(state: EnumerationState, u: SingleTupleUpdate) -> None:
    """Apply a single-tuple update and repair all maintained structures.

    The apply step of the updated relation (``kdata.apply_source``) writes
    the database, and its path (``update_source``) carries the change of
    each of its plan leaves up to the first connex node, and a change of
    that node's support on up the candidates to the root.  Either part
    stops at the first node that does not change.  A rejected update raises
    the error of ``kdata.apply_update`` and changes nothing.
    """
    path = state.paths.get(u.relation)
    if path is None:
        apply_update(state.db, u)
    else:
        path(u)
    state.version += 1


def dyn_enumerate(state: EnumerationState, limit: Optional[int] = None) -> Iterator[Tuple[DataTuple, Value]]:
    """Stream the maintained answer; same contract as static enumeration.

    Cursors are invalidated by any update (single-writer discipline).
    """
    return enumerate_state(state, limit=limit)


# ---------------------------------------------------------------------------
# Invariant walker
# ---------------------------------------------------------------------------

def verify_dynamic_invariants(state: EnumerationState) -> List[str]:
    """Cross-check member counts, candidates, and node relations (small
    dbs); ``verify_node_invariants`` checks the sums, which are the node
    relations."""
    from .static_engine import verify_node_invariants

    problems = verify_node_invariants(state)
    plan = state.plan
    for nid, counts in state.accs.items():
        c = plan.nodes[nid].children[0]
        if counts != dict(Counter(tuple(t[i] for i in plan.positions[c]) for t in state.relations[c])):
            problems.append(f"node {nid}: member counts mismatch")
    # candidate sets against a fresh recomputation
    fresh = preprocess_with_plan(plan.query, state.db, plan)
    for nid in plan.connex:
        if set(fresh.candidates.get(nid, {})) != set(state.candidates.get(nid, {})):
            problems.append(f"node {nid}: candidate set mismatch")
    for nid, grp in state.groups.items():
        if state.candidates[plan.nodes[nid].parent] is not grp:
            problems.append(f"node {nid}: its group is not its parent's candidate set")
        fresh_grp = fresh.groups.get(nid, {})
        if {k: set(v) for k, v in grp.items()} != {k: set(v) for k, v in fresh_grp.items()}:
            problems.append(f"node {nid}: extension groups mismatch")
    return problems
