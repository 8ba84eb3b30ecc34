"""Join trees, classification, free-connex GHDs, and (guarded) query plans.

The pipeline from a conjunctive query to an executable structure is:

1. ``build_join_tree`` -- GYO ear removal on the atom hypergraph; produces a
   join tree exactly when the query is acyclic.
2. ``build_fc_ghd``   -- for free-connex queries, splice a free-restricted
   copy of the body join tree on top of the join tree of body+head, then
   contract comparable-bag edges inside the connex set.
3. ``ghd_to_plan`` / ``build_guarded_plan`` -- binary node-labeled plans with
   guards and a sibling-closed connex node set; the engines execute these.

All constructions are deterministic: ties are broken by atom order and by
sorted variable names, so plan dumps are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import ClassificationError
from .query import Atom, ConjunctiveQuery, RelAtom, split

VarSet = FrozenSet[str]


# ---------------------------------------------------------------------------
# Join trees (GYO reduction)
# ---------------------------------------------------------------------------

@dataclass
class JoinTree:
    """Undirected tree over atom occurrences (indices into ``atoms``)."""

    atoms: Tuple[Atom, ...]
    edges: Tuple[Tuple[int, int], ...]

    def neighbors(self) -> Dict[int, List[int]]:
        nbr: Dict[int, List[int]] = {i: [] for i in range(len(self.atoms))}
        for a, b in self.edges:
            nbr[a].append(b)
            nbr[b].append(a)
        return nbr


def disconnected_variables(
    bags: Dict[int, VarSet], edges: Iterable[Tuple[int, int]]
) -> List[str]:
    """Sorted variables whose holders (the nodes whose bag contains them) do
    not induce a connected subgraph of the undirected ``edges``.

    Empty exactly when the tree has the running-intersection property that
    join trees, GHDs and plans all require.
    """
    nbr: Dict[int, List[int]] = {n: [] for n in bags}
    for a, b in edges:
        nbr[a].append(b)
        nbr[b].append(a)
    out: List[str] = []
    for v in sorted(set().union(*bags.values())):
        holders = {n for n, bag in bags.items() if v in bag}
        start = next(iter(holders))
        seen = {start}
        stack = [start]
        while stack:
            for nb in nbr[stack.pop()]:
                if nb in holders and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != holders:
            out.append(v)
    return out


def build_join_tree(atoms: Sequence[Atom]) -> Optional[JoinTree]:
    """GYO reduction: returns a join tree if the hypergraph is acyclic, else None.

    Ear choice is deterministic: the lexicographically smallest removable atom
    (by its string form, then occurrence index) is removed first, attached to
    its smallest witness.
    """
    n = len(atoms)
    if n == 0:
        return JoinTree((), ())
    alive = set(range(n))
    order = sorted(alive, key=lambda i: (str(atoms[i]), i))
    edges: List[Tuple[int, int]] = []

    def occurrences(v: str, exclude: int) -> List[int]:
        return [j for j in alive if j != exclude and v in atoms[j].vars]

    while len(alive) > 1:
        removed = None
        for i in order:
            if i not in alive:
                continue
            shared = {v for v in atoms[i].vars if occurrences(v, i)}
            witnesses = [
                j
                for j in sorted(alive - {i}, key=lambda j: (str(atoms[j]), j))
                if shared <= atoms[j].vars
            ]
            if witnesses:
                edges.append((i, witnesses[0]))
                alive.remove(i)
                removed = i
                break
        if removed is None:
            return None
    return JoinTree(tuple(atoms), tuple(edges))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryClass:
    acyclic: bool
    free_connex: bool
    q_hierarchical: bool
    constant_disjoint: bool
    self_join_free: bool

    def as_dict(self) -> Dict[str, bool]:
        return {
            "acyclic": self.acyclic,
            "free_connex": self.free_connex,
            "q_hierarchical": self.q_hierarchical,
            "constant_disjoint": self.constant_disjoint,
            "self_join_free": self.self_join_free,
        }


def _head_atom(vars_: Sequence[str]) -> RelAtom:
    # fresh symbol for the adjoined head atom; never collides with user atoms
    seen: List[str] = []
    for v in vars_:
        if v not in seen:
            seen.append(v)
    return RelAtom("__head", tuple(seen))


def is_acyclic(atoms: Sequence[Atom]) -> bool:
    return build_join_tree(atoms) is not None


def is_free_connex(q: ConjunctiveQuery) -> bool:
    """Acyclic and still acyclic once the head atom joins the body.

    Decided on the relational part; inequality atoms are unary and never
    affect (a)cyclicity.
    """
    sp = split(q)
    rel = sp.rel_part
    if not is_acyclic(rel.atoms):
        return False
    return is_acyclic(rel.atoms + (_head_atom(rel.head_vars),))


def is_q_hierarchical(q: ConjunctiveQuery) -> bool:
    """Per-variable relational-atom sets pairwise nested or disjoint, with
    free variables upward-closed in the strict nesting order.

    Only variables occurring in relational atoms participate; the query with
    inequalities is q-hierarchical iff its relational part is.
    """
    rel_atoms = q.relational_atoms
    atoms_of: Dict[str, Set[int]] = {}
    for i, a in enumerate(rel_atoms):
        for v in a.vars:
            atoms_of.setdefault(v, set()).add(i)
    free = q.free_vars
    names = sorted(atoms_of)
    for ix, x in enumerate(names):
        ax = atoms_of[x]
        for y in names[ix + 1 :]:
            ay = atoms_of[y]
            if not (ax <= ay or ay <= ax or not (ax & ay)):
                return False
        for y in names:
            if x in free and ax < atoms_of[y] and y not in free:
                return False
    return True


def classify(q: ConjunctiveQuery) -> QueryClass:
    from .query import has_self_join, is_constant_disjoint

    return QueryClass(
        acyclic=is_acyclic(q.atoms),
        free_connex=is_free_connex(q),
        q_hierarchical=is_q_hierarchical(q),
        constant_disjoint=is_constant_disjoint(q)[0],
        self_join_free=not has_self_join(q),
    )


# ---------------------------------------------------------------------------
# GHDs
# ---------------------------------------------------------------------------

@dataclass
class Ghd:
    """Width-1 generalized hypertree decomposition with singleton covers.

    ``bags[t]`` is the variable set of node ``t``; ``covers[t]`` is the index
    of the atom covering it (bag(t) is a subset of that atom's variables).
    """

    atoms: Tuple[RelAtom, ...]
    bags: Dict[int, VarSet]
    covers: Dict[int, int]
    edges: List[Tuple[int, int]]
    root: int

    @property
    def width(self) -> int:
        return 1 if self.bags else 0

    def neighbors(self) -> Dict[int, List[int]]:
        nbr: Dict[int, List[int]] = {t: [] for t in self.bags}
        for a, b in self.edges:
            nbr[a].append(b)
            nbr[b].append(a)
        return nbr

    def is_complete(self) -> bool:
        placed = set()
        for t, cover in self.covers.items():
            if self.bags[t] == self.atoms[cover].vars:
                placed.add(cover)
        return placed == set(range(len(self.atoms)))


def build_fc_ghd(q: ConjunctiveQuery) -> Optional[Tuple[Ghd, Set[int]]]:
    """Complete free-connex width-1 GHD for the relational part, if one exists.

    Construction: join tree T of the body atoms, join tree T' of body+head;
    splice a copy of T (bags restricted to the free variables) at the head
    atom's neighbors in T'; contract connex-set edges with comparable bags
    until none remain.  Contraction runs in both containment directions,
    which both keeps |U| <= |free(Q)| (for queries with free variables) and
    guarantees that every surviving connex node has a guarded path to the
    atom covering it.
    """
    sp = split(q)
    rel = sp.rel_part
    atoms = rel.relational_atoms
    if not atoms:
        return None  # callers special-case the empty relational part
    t_body = build_join_tree(atoms)
    if t_body is None:
        return None
    head_atom = _head_atom(rel.head_vars)
    t_full = build_join_tree(atoms + (head_atom,))
    if t_full is None:
        return None

    n = len(atoms)
    free = frozenset(rel.head_vars)
    # node ids: originals 0..n-1, copies n..2n-1
    bags: Dict[int, VarSet] = {}
    covers: Dict[int, int] = {}
    for i, a in enumerate(atoms):
        bags[i] = a.vars
        covers[i] = i
        bags[n + i] = a.vars & free
        covers[n + i] = i

    head_ix = n  # index of head atom inside t_full.atoms
    edges: List[Tuple[int, int]] = []
    for a, b in t_full.edges:
        if a == head_ix or b == head_ix:
            other = b if a == head_ix else a
            edges.append((n + other, other))  # splice copy to original
        else:
            edges.append((a, b))
    for a, b in t_body.edges:
        edges.append((n + a, n + b))

    connex: Set[int] = {n + i for i in range(n)}

    # Contract comparable-bag edges inside the connex set (both directions).
    changed = True
    while changed:
        changed = False
        for a, b in list(edges):
            if a in connex and b in connex:
                if bags[a] <= bags[b]:
                    absorbed, keeper = a, b
                elif bags[b] <= bags[a]:
                    absorbed, keeper = b, a
                else:
                    continue
                new_edges = []
                for x, y in edges:
                    if (x, y) in ((absorbed, keeper), (keeper, absorbed)):
                        continue
                    x2 = keeper if x == absorbed else x
                    y2 = keeper if y == absorbed else y
                    new_edges.append((x2, y2))
                edges = new_edges
                connex.discard(absorbed)
                del bags[absorbed]
                del covers[absorbed]
                changed = True
                break

    root = min(connex)
    return Ghd(atoms, bags, covers, edges, root), connex


# ---------------------------------------------------------------------------
# Query plans
# ---------------------------------------------------------------------------

@dataclass
class PlanNode:
    id: int
    label: Optional[VarSet]  # None for leaves
    atom_index: Optional[int]  # leaf: index into plan.atoms
    children: List[int] = field(default_factory=list)
    parent: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.atom_index is not None


@dataclass
class QueryPlan:
    """Binary node-labeled generalized join tree plus a connex node set.

    Leaves carry atoms; interior nodes carry variable sets and have at least
    one guard child (a child whose variables contain the node's).  ``connex``
    is sibling-closed, induces a subtree containing the root, and its labels
    cover exactly the free variables of the relational part.
    """

    atoms: Tuple[RelAtom, ...]
    nodes: Dict[int, PlanNode]
    root: int
    connex: Set[int]
    guarded: bool

    def vars(self, node_id: int) -> VarSet:
        node = self.nodes[node_id]
        if node.is_leaf:
            return self.atoms[node.atom_index].vars
        return node.label

    def postorder(self) -> List[int]:
        out: List[int] = []
        stack: List[Tuple[int, bool]] = [(self.root, False)]
        while stack:
            nid, expanded = stack.pop()
            if expanded:
                out.append(nid)
            else:
                stack.append((nid, True))
                for c in reversed(self.nodes[nid].children):
                    stack.append((c, False))
        return out

    def connex_frontier(self) -> List[int]:
        """Connex nodes none of whose children are in the connex set."""
        out = []
        for nid in sorted(self.connex):
            if not any(c in self.connex for c in self.nodes[nid].children):
                out.append(nid)
        return out

    def connex_vars(self) -> VarSet:
        out: Set[str] = set()
        for nid in self.connex:
            out |= self.vars(nid)
        return frozenset(out)


class _PlanBuilder:
    def __init__(self, atoms: Tuple[RelAtom, ...]):
        self.atoms = atoms
        self.nodes: Dict[int, PlanNode] = {}
        self.next_id = 0

    def leaf(self, atom_index: int) -> int:
        return self._add(PlanNode(-1, None, atom_index))

    def interior(self, label: VarSet, children: List[int]) -> int:
        return self._add(PlanNode(-1, frozenset(label), None, children))

    def _add(self, node: PlanNode) -> int:
        node.id = self.next_id
        self.nodes[node.id] = node
        self.next_id += 1
        return node.id

    def vars(self, nid: int) -> VarSet:
        node = self.nodes[nid]
        return self.atoms[node.atom_index].vars if node.is_leaf else node.label

    def chain(self, label: VarSet, children: List[int], connex: Set[int], in_connex: bool) -> int:
        """Right-nested binary chain over ``children`` with label ``label``.

        The last child must be the guard (its variables contain ``label``);
        every combiner's guard is then either the next combiner (same label)
        or that final child.  Children whose variables are not contained in
        ``label`` are wrapped in an intermediate projection node so that at
        2-child nodes both children's variables are contained in the node's.
        """
        assert children
        if len(children) == 1:
            return children[0]
        wrapped: List[int] = []
        for i, c in enumerate(children):
            last = i == len(children) - 1
            if last:
                # guard: wrap under an equal-label intermediate when larger
                if self.vars(c) != label:
                    mid = self.interior(label, [c])
                    if in_connex:
                        connex.add(mid)
                    wrapped.append(mid)
                else:
                    wrapped.append(c)
            elif not self.vars(c) <= label:
                mid = self.interior(label & self.vars(c), [c])
                if in_connex:
                    connex.add(mid)
                wrapped.append(mid)
            else:
                wrapped.append(c)
        node = wrapped[-1]
        for c in reversed(wrapped[:-1]):
            node = self.interior(label, [node, c])
            if in_connex:
                connex.add(node)
        return node


def _finalize(builder: _PlanBuilder, root: int, connex: Set[int], guarded: bool) -> QueryPlan:
    plan = QueryPlan(builder.atoms, builder.nodes, root, connex, guarded)
    for node in plan.nodes.values():
        for c in node.children:
            plan.nodes[c].parent = node.id
    return plan


def ghd_to_plan(ghd: Ghd, connex_set: Set[int], rel_part: ConjunctiveQuery) -> QueryPlan:
    """Convert a complete free-connex width-1 GHD into a normalized query plan."""
    builder = _PlanBuilder(ghd.atoms)
    nbr = ghd.neighbors()
    plan_connex: Set[int] = set()

    def convert(t: int, parent: Optional[int]) -> int:
        children_ghd = [u for u in nbr[t] if u != parent]
        in_n = t in connex_set
        child_nodes_n: List[int] = []
        child_nodes_out: List[int] = []
        for u in sorted(children_ghd):
            cn = convert(u, t)
            (child_nodes_n if u in connex_set else child_nodes_out).append(cn)
        if t not in connex_set:
            # an original atom node: its own leaf is the guard, kept last
            assert not child_nodes_n, "connex node below a non-connex node"
            child_nodes_out.append(builder.leaf(ghd.covers[t]))
        else:
            # guard: a non-connex child on the path to the covering atom
            guard_ix = None
            for i, cn in enumerate(child_nodes_out):
                if ghd.bags[t] <= builder.vars(cn):
                    guard_ix = i
            if guard_ix is None:
                raise ClassificationError(
                    "internal error: connex GHD node has no guarded child"
                )
            child_nodes_out.append(child_nodes_out.pop(guard_ix))

        label = ghd.bags[t]
        if in_n and child_nodes_n:
            # keep the boundary to non-connex children behind a single-child
            # bridge so the connex set stays sibling-closed
            lower = builder.chain(label, child_nodes_out, plan_connex, False)
            bridge = builder.interior(label, [lower])
            plan_connex.add(bridge)
            node = builder.chain(label, child_nodes_n + [bridge], plan_connex, True)
        else:
            node = builder.chain(label, child_nodes_out, plan_connex, False)
            if t not in connex_set and builder.nodes[node].is_leaf:
                node = builder.interior(label, [node])
        if builder.vars(node) != label:
            node = builder.interior(label, [node])
        if in_n:
            plan_connex.add(node)
        return node

    root = convert(ghd.root, None)
    plan = _finalize(builder, root, plan_connex, guarded=False)
    _shrink_connex(plan, frozenset(rel_part.head_vars))
    return plan


def build_fc_plan(q: ConjunctiveQuery) -> Optional[QueryPlan]:
    """Free-connex query plan for the relational part of ``q``, or None."""
    built = build_fc_ghd(q)
    if built is None:
        return None
    ghd, connex = built
    return ghd_to_plan(ghd, connex, split(q).rel_part)


# ---------------------------------------------------------------------------
# Guarded plans (q-hierarchical queries)
# ---------------------------------------------------------------------------

def build_guarded_plan(q: ConjunctiveQuery) -> Optional[QueryPlan]:
    """Guarded, normalized plan from the variable hierarchy, or None.

    Nodes follow the equivalence classes of the variable hierarchy (variables
    with identical relational-atom sets), each class split into its free part
    above its bound part; atoms attach under the class of their full variable
    set.  Every child's variables contain its parent's, and 2-child nodes
    have both children labeled like the node.
    """
    if not is_q_hierarchical(q):
        return None
    sp = split(q)
    rel = sp.rel_part
    atoms = rel.relational_atoms
    builder = _PlanBuilder(atoms)
    connex: Set[int] = set()
    free = frozenset(rel.head_vars)

    atoms_of: Dict[str, FrozenSet[int]] = {}
    for i, a in enumerate(atoms):
        for v in a.vars:
            atoms_of.setdefault(v, frozenset())
    for v in atoms_of:
        atoms_of[v] = frozenset(i for i, a in enumerate(atoms) if v in a.vars)

    # classes keyed by (atom set, is_free); the free half sits above the bound half
    class_vars: Dict[Tuple[FrozenSet[int], bool], Set[str]] = {}
    for v, occ in atoms_of.items():
        class_vars.setdefault((occ, v in free), set()).add(v)

    def class_order_key(key: Tuple[FrozenSet[int], bool]) -> Tuple:
        occ, is_free = key
        return (-len(occ), not is_free, tuple(sorted(occ)))

    # chain of classes covering an atom: all classes whose atom set contains it
    def chain_for_atom(i: int) -> List[Tuple[FrozenSet[int], bool]]:
        keys = [k for k in class_vars if i in k[0]]
        return sorted(keys, key=class_order_key)

    # children of a class in the hierarchy forest: classes with the smallest
    # strictly-later position among those whose atom sets are contained
    keys_sorted = sorted(class_vars, key=class_order_key)

    def parent_of(key: Tuple[FrozenSet[int], bool]) -> Optional[Tuple[FrozenSet[int], bool]]:
        occ, is_free = key
        best: Optional[Tuple[FrozenSet[int], bool]] = None
        for other in keys_sorted:
            if other == key:
                continue
            oocc, ofree = other
            if occ < oocc or (occ == oocc and ofree and not is_free):
                if best is None or class_order_key(other) > class_order_key(best):
                    best = other
        return best

    children_of: Dict[Optional[Tuple[FrozenSet[int], bool]], List] = {}
    for key in keys_sorted:
        children_of.setdefault(parent_of(key), []).append(key)
    for v in children_of.values():
        v.sort(key=class_order_key)

    # atoms attach under the deepest class of their chain
    atoms_under: Dict[Tuple[FrozenSet[int], bool], List[int]] = {}
    nullary: List[int] = []
    for i, a in enumerate(atoms):
        chain = chain_for_atom(i)
        if chain:
            atoms_under.setdefault(chain[-1], []).append(i)
        else:
            nullary.append(i)

    prefix_vars: Dict[Tuple[FrozenSet[int], bool], FrozenSet[str]] = {}

    def build_class(key: Tuple[FrozenSet[int], bool], above: FrozenSet[str]) -> int:
        label = above | frozenset(class_vars[key])
        prefix_vars[key] = label
        in_n = label <= free
        kids: List[int] = []
        for sub in children_of.get(key, []):
            kids.append(build_class(sub, label))
        for i in atoms_under.get(key, []):
            node = builder.leaf(i)
            if builder.vars(node) != label:
                # attach leaves under a node labeled by their full variable set
                node = builder.interior(builder.vars(node), [node])
            kids.append(node)
        if not kids:
            raise ClassificationError("internal error: empty hierarchy class")
        # wrap children so 2-child combiners see equal labels on both sides
        wrapped = []
        for c in kids:
            if builder.vars(c) != label:
                mid = builder.interior(label, [c])
                wrapped.append(mid)
            else:
                wrapped.append(c)
        node = wrapped[-1]
        for c in reversed(wrapped[:-1]):
            node = builder.interior(label, [node, c])
        if builder.vars(node) != label:
            node = builder.interior(label, [node])
        if in_n:
            # chain participants are siblings of each other: all join the
            # connex set together to keep it sibling-closed
            connex.add(node)
            stack = [node]
            while stack:
                cur = stack.pop()
                for c in builder.nodes[cur].children:
                    if builder.vars(c) <= label:
                        connex.add(c)
                        stack.append(c)
        return node

    roots = [build_class(key, frozenset()) for key in children_of.get(None, [])]
    for i in nullary:
        leaf = builder.leaf(i)
        roots.append(builder.interior(frozenset(), [leaf]))

    if not roots:
        raise ClassificationError("guarded plans need at least one relational atom")

    if len(roots) == 1 and builder.vars(roots[0]) <= free:
        root = roots[0]
        connex.add(root)
    else:
        # super-root chain labeled {} combining the forest roots
        wrapped = []
        for r in roots:
            if builder.vars(r):
                mid = builder.interior(frozenset(), [r])
                connex.add(mid)
                wrapped.append(mid)
            else:
                wrapped.append(r)
                connex.add(r)
        node = wrapped[-1]
        for c in reversed(wrapped[:-1]):
            node = builder.interior(frozenset(), [node, c])
            connex.add(node)
        if builder.vars(node):
            node = builder.interior(frozenset(), [node])
            connex.add(node)
        root = node

    plan = _finalize(builder, root, connex, guarded=True)
    _shrink_connex(plan, free)
    return plan


def _shrink_connex(plan: QueryPlan, free: FrozenSet[str]) -> None:
    """When the root's label already covers the free variables, N = {root}.

    The root relation then materializes the full relational answer and
    enumeration degenerates to a scan.
    """
    if plan.vars(plan.root) == free:
        plan.connex.clear()
        plan.connex.add(plan.root)


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------

def verify_plan(plan: QueryPlan, rel_part: ConjunctiveQuery) -> List[str]:
    """Check every structural plan invariant; returns a list of violations."""
    problems: List[str] = []
    nodes = plan.nodes

    reachable: Set[int] = set()
    stack = [plan.root]
    while stack:
        nid = stack.pop()
        if nid in reachable:
            problems.append(f"node {nid} reachable twice (not a tree)")
            continue
        reachable.add(nid)
        stack.extend(nodes[nid].children)
    if reachable != set(nodes):
        problems.append("unreachable nodes in plan")

    leaf_atoms: List[int] = []
    for nid, node in nodes.items():
        if node.is_leaf:
            if node.children:
                problems.append(f"leaf {nid} has children")
            leaf_atoms.append(node.atom_index)
            continue
        if len(node.children) > 2:
            problems.append(f"node {nid} has {len(node.children)} children")
        if not node.children:
            problems.append(f"interior node {nid} has no children")
            continue
        if not any(plan.vars(nid) <= plan.vars(c) for c in node.children):
            problems.append(f"node {nid} has no guard child")
        if plan.guarded and not all(plan.vars(nid) <= plan.vars(c) for c in node.children):
            problems.append(f"guarded plan: child of {nid} is not a guard")
        if len(node.children) == 2:
            c1, c2 = node.children
            if not (plan.vars(c1) <= plan.vars(nid) and plan.vars(c2) <= plan.vars(nid)):
                problems.append(f"2-child node {nid} lacks child containment")
            if plan.vars(c1) != plan.vars(nid) and plan.vars(c2) != plan.vars(nid):
                problems.append(f"2-child node {nid} has no child with equal variables")
            if plan.guarded and not (
                plan.vars(c1) == plan.vars(nid) == plan.vars(c2)
            ):
                problems.append(f"guarded 2-child node {nid} lacks equal labels")

    if sorted(leaf_atoms) != list(range(len(plan.atoms))):
        problems.append("leaf atoms do not match the atom multiset")

    bags = {nid: plan.vars(nid) for nid in nodes}
    edges = [(nid, c) for nid, node in nodes.items() for c in node.children]
    for v in disconnected_variables(bags, edges):
        problems.append(f"variable {v} is not connected in the plan")

    if plan.root not in plan.connex:
        problems.append("connex set misses the root")
    for nid in plan.connex:
        node = nodes[nid]
        if node.parent is not None and node.parent not in plan.connex:
            problems.append(f"connex set not connected at {nid}")
        if node.parent is not None:
            for sib in nodes[node.parent].children:
                if sib != nid and sib not in plan.connex:
                    problems.append(f"connex set not sibling-closed at {nid}")
    if plan.connex_vars() != frozenset(rel_part.head_vars):
        problems.append(
            f"connex vars {sorted(plan.connex_vars())} != free vars {sorted(rel_part.head_vars)}"
        )
    return problems
