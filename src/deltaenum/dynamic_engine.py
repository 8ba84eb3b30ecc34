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

A frontier node's candidates are read off its relation and a projection's
off its child's extension group (``static_engine.candidate_set``).  When a
frontier node's support changes, the change ripples up the connex region:
a projection step moves the tuple in or out of its group, and a 2-child
step looks it up in the sibling's candidates and writes the parent's, if
the parent keeps a set, again O(1) per step.

``dyn_preprocess`` runs the static preprocess over the guarded plan, the
one bottom-up path of both engines, whose build
(``static_engine.build_source``) also counts the members of each group of a
stored projection's child into ``accs``, and compiles into ``paths`` one
update step per relation symbol (``update_source``): one generated function
that checks and writes the update and then runs the unrolled path of each
of the symbol's plan leaves.  ``dyn_update`` makes one call per update, to
its symbol's step; an update that the step does not take, and one to a
symbol outside the query, goes through ``kdata.apply_update``, the
reference, which raises the error.  A query without relational atoms has
the guarded plan with no nodes, so its state has no update step and no
update changes its answers.
"""

from __future__ import annotations

import re
from functools import partial
from typing import AbstractSet, Dict, Iterator, List, Optional, Tuple

from .codegen import compile_source, project
from .errors import CapabilityError, ClassificationError
from .kdata import Database, DataTuple, SingleTupleUpdate, apply_update
from .planner import QueryPlan, build_guarded_plan
from .query import ConjunctiveQuery
from .semiring import SemiringDescriptor, Value
from .static_engine import EnumerationState, candidate_set, enumerate_state, leaf_key, preprocess_with_plan


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
    for symbol, source in update_sources(plan, s).items():
        state.paths[symbol] = compile_source(source, "make")(state, db.relations[symbol].entries, reject)
    return state


def update_sources(plan: QueryPlan, s: SemiringDescriptor) -> Dict[str, str]:
    """Per relation symbol of the guarded ``plan``, in the postorder of its
    first leaf, its ``update_source`` over the semiring ``s``."""
    symbols = [plan.atoms[plan.nodes[n].atom_index].symbol for n in plan.postorder() if plan.nodes[n].is_leaf]
    return {symbol: update_source(plan, symbol, s) for symbol in dict.fromkeys(symbols)}


# ---------------------------------------------------------------------------
# Update propagation
# ---------------------------------------------------------------------------

def update_source(plan: QueryPlan, symbol: str, s: SemiringDescriptor) -> str:
    """The source of ``make(state, entries, reject)``, which returns
    ``update(u)``, the update step of the relation ``symbol`` of the guarded
    ``plan``, whose database ``entries`` are given, over the semiring ``s``:
    the accepted path of ``kdata.apply_update``, then, when the annotation
    changed, the path of each leaf of ``symbol`` in postorder
    (``_leaf_path``), a nested ``pathn`` for the leaf ``n``.

    An update that is not taken as it stands goes to ``reject(u)``, which is
    ``apply_update`` on the database, before anything is written: a tuple of
    another arity or with a value below 1, or an insert whose value or sum
    ``s`` does not admit.  ``make`` reads each dict that the paths name off
    the state once.  Only fixed names and integer literals are written
    besides the semiring's operator templates, no symbol of the query.
    """
    leaves = [n for n in plan.postorder() if plan.nodes[n].is_leaf and plan.atoms[plan.nodes[n].atom_index].symbol == symbol]
    arity = len(plan.atoms[plan.nodes[leaves[0]].atom_index].args)
    keys = {n: leaf_key(plan, n) for n in leaves}
    paths = []
    for i, n in enumerate(leaves):
        later = {m for m in leaves[i + 1:] if keys[m] is None}
        # (nothing is left to do at a root leaf whose tuples are their own keys)
        body = _leaf_path(plan, n, keys[n], s, later) or ["pass"]
        paths += ["", f"    def path{n}(t, old, new):", *("        " + line for line in body)]
    text = "\n".join(paths)
    stores = {"r": "state.relations", "a": "state.accs", "c": "state.candidates", "g": "state.groups"}
    reject = " or ".join([f"len(t) != {arity}"] + [f"t[{i}] < 1" for i in range(arity)])
    lines = ["def make(state, entries, reject):", "    s = state.semiring"]
    lines += ["    add, sub, mul, is_zero, admits, zero = s.add, s.sub, s.mul, s.is_zero, s.admits, s.zero"]
    lines += ["    bounds = state.bounds"] if "bounds[" in text else []
    lines += [f"    {x}{n} = {stores[x]}[{n}]" for x, n in dict.fromkeys(re.findall(r"\b([racg])([0-9]+)\b", text))]
    lines += [
        *paths,
        "",
        "    def update(u):",
        "        t = u.tuple",
        f"        if {reject}:",
        "            return reject(u)",
        "        old = entries.get(t)",
        "        if u.kind == INSERT:",
        "            a = u.value",
        f"            if not {s.expr('admits', 'a')}:",
        "                return reject(u)",
        f"            new = {s.expr('add', '(zero if old is None else old)', 'a')}",
        f"            if not {s.expr('admits', 'new')}:",
        "                return reject(u)",
        f"            if not {s.expr('is_zero', 'new')}:",
        "                entries[t] = new",
        "                if old != new:",
        *[f"                    path{n}(t, old, new)" for n in leaves],
        "                return",
        "        if old is not None:",
        "            del entries[t]",
        *[f"            path{n}(t, old, None)" for n in leaves],
        "",
        "    return update",
    ]
    return "\n".join(lines) + "\n"


def _leaf_path(plan: QueryPlan, leaf: int, key: Optional[str], s: SemiringDescriptor, later: AbstractSet[int]) -> List[str]:
    """The body of the path of the guarded plan's ``leaf``, for a change of
    its relation symbol's annotation at ``t`` from ``old`` to ``new`` (None
    when absent), made after the database's entries were written, ``key``
    being the leaf's key expression (``leaf_key``), None when its tuples are
    their own keys.  Such a leaf's relation is the database's entries, so
    the path does not write it.  ``later`` holds the leaves of the same
    symbol whose tuples are their own keys and whose paths run after this
    one's: their relation, the database's entries, is read as it was before
    the update, with the value ``old`` at ``t``, as each leaf's change is
    carried up in turn.

    Node ``n``'s key is ``kn``, its old and new value ``on`` and ``vn``, its
    relation and member counts ``rn`` and ``an``, its candidates named by
    ``candidate_set``, and ``bounds`` is ``state.bounds``.  The steps up to
    the first connex node carry the change of value, and the path returns
    at the first node whose value does not change.  From there a change of
    support goes on up the candidates to the root: one chain for a tuple
    that enters the support, one for a tuple that leaves it, each returning
    at the first node whose candidates do not change.
    """
    c, k, o, v = leaf, "t", "old", "new"
    body = []
    if key is not None:
        k = f"k{leaf}"
        body.append(f"{k} = {key}")
        if key.startswith("None if "):
            body += [f"if {k} is None:", "    return"]
        body += [f"if {v} is None:", f"    del r{c}[{k}]", "else:", f"    r{c}[{k}] = {v}"]
    enters, leaves = [], []  # the chains of a tuple entering or leaving the support
    while c != plan.root:
        p = plan.nodes[c].parent
        children = plan.nodes[p].children
        sib, kp = sum(children) - c, k  # a 2-child node's tuple is its children's
        # the sibling's support and value at this tuple; a later leaf in
        # ``later`` reads as before the update, ``old`` at ``t``
        absent, lookup = f"{k} not in {candidate_set(plan, sib)}", f"r{sib}.get({k})"
        if sib in later and k == "t":
            absent, lookup = "old is None", "old"
        elif sib in later:
            absent, lookup = f"(old is None if {k} == t else {absent})", f"(old if {k} == t else {lookup})"
        if len(children) == 1:
            kp = f"k{p}"
            key_line = f"{kp} = {project(k, plan.positions[c], len(plan.order[c]))}"
        cp = candidate_set(plan, p) if c in plan.connex else None
        if c in plan.connex and len(children) == 2 and absent == "old is None" and o == "old":
            # the enter chain runs when old is None, the leave chain when it
            # is not: the sibling is absent in the one, present in the other
            enters.append("return")
            leaves += [f"del {cp}[{k}]"] if cp else []
        elif c in plan.connex and len(children) == 2:
            # the parent's candidates are the tuples in both children's, if kept
            enters += [f"if {absent}:", "    return"] + ([f"{cp}[{k}] = True"] if cp else [])
            leaves += [f"if {absent}:", "    return"] + ([f"del {cp}[{k}]"] if cp else [])
        elif c in plan.connex:
            # the parent's candidates are the keys of this node's group
            enters += [key_line, f"b = {cp}.get({kp})", "if b is not None:", f"    b[{k}] = True", "    return"]
            enters += [f"{cp}[{kp}] = {{{k}: True}}"]
            leaves += [key_line, f"b = {cp}[{kp}]", f"del b[{k}]", "if b:", "    return", f"del {cp}[{kp}]"]
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
        # nothing after an unconditional return runs
        enters = enters[: enters.index("return") + 1] if "return" in enters else enters
        body += [f"if {o} is None:", *["    " + line for line in enters]]
        body += [f"elif {v} is None:", *["    " + line for line in leaves]]
    return body


def dyn_update(state: EnumerationState, u: SingleTupleUpdate) -> None:
    """Apply a single-tuple update and repair all maintained structures.

    The update step of the updated relation (``update_source``) writes the
    database, and its paths carry the change of each of its plan leaves up
    to the first connex node, and a change of that node's support on up the
    candidates to the root.  Either part stops at the first node that does
    not change.  A rejected update raises the error of
    ``kdata.apply_update`` and changes nothing.
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
