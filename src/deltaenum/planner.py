"""Query plans for both engines, and the classification read off them.

``build_plan`` runs a two-phase GYO reduction (``_reduce``) that removes the
bound variables before the free ones and yields a binary node-labeled plan
with guards and a sibling-closed connex node set: the free-connex plan of
the static engine (``build_fc_plan``) or the guarded plan of the dynamic
engine (``build_guarded_plan``).  Every query that has a plan gets one, and
a query without relational atoms gets the plan with no nodes.  The
reduction is the package's only acyclicity test: ``classify`` reads
acyclicity, free-connexity and q-hierarchy off whether it yields a plan.

Every plan keeps two invariants, which ``verify_plan`` checks: no node is an
identity copy (a single-child node with its child's variables), and the first
child of every 2-child node (its guard) carries the node's variables.  The
layout the engines read -- each node's variable order, the projection
positions of each edge, the connex frontier, the levels of the connex walk,
the nodes whose relations preprocessing stores, and the inequality layout
read off the query's one ``query.split`` -- is fixed once, by ``_finalize``,
and is plain data: every data pass of preprocessing is generated from it.

All constructions are deterministic: ties are broken by atom order and by
sorted variable names, so plan dumps are reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .query import ConjunctiveQuery, QuerySplit, RelAtom, has_self_join, is_constant_disjoint, split

VarSet = FrozenSet[str]


# ---------------------------------------------------------------------------
# Query plans
# ---------------------------------------------------------------------------

@dataclass
class PlanNode:
    label: Optional[VarSet]  # None for leaves
    atom_index: Optional[int]  # leaf: index into plan.atoms
    children: List[int] = field(default_factory=list)
    parent: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.atom_index is not None


@dataclass(frozen=True)
class Level:
    """One level of the connex walk: the tuples of the connex node
    ``nodes[0]``, from which the tuples of every node in ``nodes`` are read.

    Level 0 ranges over the root's candidates.  Every later level ranges over
    ``groups[nodes[0]][k]``, where ``k`` takes the components at the
    positions ``key`` of the current tuple of the earlier level ``source``.
    ``frontier`` pairs each frontier node of the level with the positions of
    its tuple's components in the level's tuple.
    """

    nodes: Tuple[int, ...]  # connex nodes read from this level, in preorder
    source: Optional[int]  # None for level 0
    key: Tuple[int, ...]  # positions in the source level's tuple; () for level 0
    order: Tuple[str, ...]  # variables of the level's tuples
    frontier: Tuple[Tuple[int, Tuple[int, ...]], ...]


@dataclass
class QueryPlan:
    """Binary node-labeled generalized join tree plus a connex node set.

    Leaves carry atoms; interior nodes carry variable sets and have at least
    one guard child (a child whose variables contain the node's).  No node is
    an identity copy of its only child, and a 2-child node's first child is
    its guard and carries exactly the node's variables.  ``connex`` is
    sibling-closed, induces a subtree containing the root, and its labels
    cover exactly the free variables of the relational part.

    ``order[n]`` lists the variables of node ``n``'s tuples (sorted);
    ``positions[c]`` lists the positions, in a tuple of the larger of ``c``
    and its parent, of the smaller's variables; ``frontier`` holds the
    connex nodes without connex children.  ``levels`` cuts the connex region
    into the levels of its walk: the root's, then one per projection edge
    into a connex child, in preorder with guards first.  All of it is plain
    data, which the generated sources of every data pass write out.

    ``stored`` holds the nodes whose relation preprocessing keeps; the
    others below the connex region stream their rows into their parent's
    pass.  A guarded plan stores every node outside the connex region and
    every frontier node, since an update looks up both children of a 2-child
    node.  A free-connex plan stores only the frontier nodes, which
    enumeration reads, the projection outputs, which grouping builds anyway,
    and the second child of each 2-child node, which is looked up by key:
    a leaf or 2-child node that is a guard child or a projection's only
    child is read by one scan, and streams.

    A query without relational atoms has the plan with no nodes: no root,
    no levels, nothing stored.  The inequality layout of ``query`` is read
    off its split: ``bounded`` lists its inequality variables, sorted, and
    ``EnumerationState.bounds[i]`` is the least constant that bounds
    ``bounded[i]``; ``covered[i]`` lists, sorted, the variables of the
    inequalities the atom ``atoms[i]`` covers; ``ranges`` lists the free
    uncovered ones, the walk's free ranges, in head order; and ``summed``
    the bound uncovered ones, whose valuations ``EnumerationState.factor``
    counts.
    """

    query: ConjunctiveQuery
    atoms: Tuple[RelAtom, ...]
    nodes: Dict[int, PlanNode]
    root: Optional[int]  # None without relational atoms
    connex: Set[int]
    guarded: bool
    order: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    positions: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    frontier: FrozenSet[int] = frozenset()
    levels: Tuple[Level, ...] = ()
    stored: FrozenSet[int] = frozenset()
    bounded: Tuple[str, ...] = ()
    covered: Tuple[Tuple[str, ...], ...] = ()
    ranges: Tuple[str, ...] = ()
    summed: Tuple[str, ...] = ()

    def vars(self, node_id: int) -> VarSet:
        node = self.nodes[node_id]
        if node.is_leaf:
            return self.atoms[node.atom_index].vars
        return node.label

    def postorder(self) -> List[int]:
        out: List[int] = []
        stack: List[Tuple[int, bool]] = [(self.root, False)] if self.nodes else []
        while stack:
            nid, expanded = stack.pop()
            if expanded:
                out.append(nid)
            else:
                stack.append((nid, True))
                for c in reversed(self.nodes[nid].children):
                    stack.append((c, False))
        return out

    def connex_vars(self) -> VarSet:
        out: Set[str] = set()
        for nid in self.connex:
            out |= self.vars(nid)
        return frozenset(out)


def _finalize(plan: QueryPlan, sp: QuerySplit) -> QueryPlan:
    """Fix the plan's layout; the engines only read it.

    When the root's label already covers the free variables, N = {root}: the
    root relation then materializes the full relational answer and
    enumeration degenerates to a scan.  The inequality layout is read off
    ``sp``, the split of the plan's query.
    """
    if plan.nodes and plan.vars(plan.root) == frozenset(sp.rel_part.head_vars):
        plan.connex = {plan.root}
    for nid, node in plan.nodes.items():
        plan.order[nid] = tuple(sorted(plan.vars(nid)))
        node.children.sort(key=lambda c: plan.vars(c) != plan.vars(nid))
    for nid, node in plan.nodes.items():
        for c in node.children:
            plan.nodes[c].parent = nid
            big, small = plan.order[c], plan.order[nid]
            if len(big) < len(small):
                big, small = small, big
            plan.positions[c] = tuple(big.index(v) for v in small)
    plan.frontier = frozenset(
        nid for nid in plan.connex if not any(c in plan.connex for c in plan.nodes[nid].children)
    )
    plan.levels = _cut_walk(plan) if plan.nodes else ()
    plan.stored = _stored(plan)
    plan.bounded = tuple(sorted({ineq.var for ineq in plan.query.inequality_atoms}))
    plan.covered = tuple(tuple(sorted({ineq.var for ineq in sp.covered[i]})) for i in range(len(plan.atoms)))
    plan.ranges = sp.ineq_part.head_vars
    ranged_or_covered = set(plan.ranges).union(*plan.covered)
    plan.summed = tuple(v for v in plan.bounded if v not in ranged_or_covered)
    return plan


def _stored(plan: QueryPlan) -> FrozenSet[int]:
    """The nodes whose relation preprocessing keeps (see ``QueryPlan``)."""
    below = [nid for nid in plan.nodes if nid not in plan.connex or nid in plan.frontier]
    if plan.guarded:
        return frozenset(below)
    stored = set(plan.frontier)
    for nid in below:
        children = plan.nodes[nid].children
        if len(children) == 1:
            stored.add(nid)
        elif len(children) == 2:
            stored.add(children[1])
    return frozenset(stored)


def _cut_walk(plan: QueryPlan) -> Tuple[Level, ...]:
    """The connex region cut into levels (see ``Level``), in preorder.

    Along a 2-child node the guard keeps the node's tuple and the other
    child's tuple is the node's under its key, so each node's positions in
    its level's tuple compose the keys on the way down.
    """
    levels: List[Optional[Level]] = []

    def cut(top: int, source: Optional[int], key: Tuple[int, ...]) -> None:
        i = len(levels)
        levels.append(None)  # levels below this one come after it
        nodes: List[int] = []
        frontier: List[Tuple[int, Tuple[int, ...]]] = []
        stack = [(top, tuple(range(len(plan.order[top]))))]
        while stack:
            nid, pos = stack.pop()
            nodes.append(nid)
            children = plan.nodes[nid].children
            if nid in plan.frontier:
                frontier.append((nid, pos))
            elif len(children) == 1:
                # groups[c] is keyed by this node's tuple
                cut(children[0], i, pos)
            else:
                c1, c2 = children
                stack.append((c2, tuple(pos[p] for p in plan.positions[c2])))
                stack.append((c1, pos))
        levels[i] = Level(tuple(nodes), source, key, plan.order[top], tuple(frontier))

    cut(plan.root, None, ())
    return tuple(levels)


def build_plan(q: ConjunctiveQuery, guarded: bool) -> Optional[QueryPlan]:
    """The plan of ``q`` that ``_reduce`` builds, laid out by ``_finalize``;
    None when ``_reduce`` finds none."""
    plan = _reduce(q, guarded)
    return None if plan is None else _finalize(plan, split(q))


def _reduce(q: ConjunctiveQuery, guarded: bool) -> Optional[QueryPlan]:
    """The plan tree and connex set of ``q`` by a two-phase GYO reduction of
    its relational atoms, not laid out yet; None when it is not free-connex
    (not q-hierarchical, when ``guarded``), and the plan with no nodes when
    it has no relational atom.

    Each relational atom starts as a leaf in a list of roots, which two steps
    shrink until one root is left:

    * absorb: a root whose variables lie within another root's (equal them,
      when ``guarded``) becomes the second child of a new 2-child node
      labeled like that witness, which takes the witness's place;
    * project: the variables of a root that no other root holds are dropped
      by a new single-child node, appended to the list.

    Absorbing goes first; roots are scanned newest first and witnesses oldest
    first.  Phase 1 drops only bound variables, and a bound variable left
    over means there is no plan: a query is free-connex exactly when its
    reduction can remove the bound variables first (Bagan, Durand and
    Grandjean, CSL 2007).  Phase 2 drops free variables too, but never
    projects the last root.  The connex set is the top subtree of the nodes
    whose variables lie within the free ones.
    """
    free = frozenset(q.head_vars)  # a variable of no atom changes nothing
    plan = QueryPlan(q, q.relational_atoms, {}, None, set(), guarded)

    def add(label: Optional[VarSet], atom_index: Optional[int], children: List[int]) -> int:
        nid = len(plan.nodes)
        plan.nodes[nid] = PlanNode(label, atom_index, children)
        return nid

    roots = [add(None, i, []) for i in range(len(plan.atoms))]

    def absorbs(w: int, rv: VarSet) -> bool:
        return rv == plan.vars(w) if guarded else rv <= plan.vars(w)

    def step(keep: VarSet) -> bool:
        """One absorb, else one projection that drops no variable of
        ``keep``; False when neither applies."""
        for r in reversed(roots):
            rv = plan.vars(r)
            w = next((w for w in roots if w != r and absorbs(w, rv)), None)
            if w is not None:
                roots[roots.index(w)] = add(plan.vars(w), None, [w, r])
                roots.remove(r)
                return True
        for r in reversed(roots):
            rv = plan.vars(r)
            drop = rv - keep - frozenset().union(*(plan.vars(o) for o in roots if o != r))
            if drop:
                roots.remove(r)
                roots.append(add(rv - drop, None, [r]))
                return True
        return False

    while step(free):  # phase 1: bound variables only
        pass
    if any(plan.vars(r) - free for r in roots):
        return None
    while len(roots) > 1 and step(frozenset()):  # phase 2: all, never the last root
        pass
    if len(roots) > 1:
        return None
    plan.root = roots[0] if roots else None
    stack = list(roots)
    while stack:
        nid = stack.pop()
        if plan.vars(nid) <= free:
            plan.connex.add(nid)
            stack.extend(plan.nodes[nid].children)
    return plan


def build_fc_plan(q: ConjunctiveQuery) -> Optional[QueryPlan]:
    """Free-connex plan for the relational part of ``q``, or None."""
    return build_plan(q, guarded=False)


def build_guarded_plan(q: ConjunctiveQuery) -> Optional[QueryPlan]:
    """Guarded plan (both children of a 2-child node labeled like the node)
    for the relational part of a q-hierarchical ``q``, or None."""
    return build_plan(q, guarded=True)


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
        return asdict(self)


def classify(q: ConjunctiveQuery) -> QueryClass:
    """The structural classes of ``q``, read off ``_reduce``: acyclic when
    its relational part has a plan with every variable free, free-connex
    when it has a free-connex plan, q-hierarchical when it has a guarded one
    (Berkholz, Keppeler and Schweikardt, PODS 2017).  A query without
    relational atoms has the plan with no nodes, so it is in all three
    classes; inequality atoms are unary and never affect them."""
    rel = q.relational_atoms
    rel_vars = tuple(sorted(frozenset().union(*(a.vars for a in rel))))
    every_var = ConjunctiveQuery(q.head_symbol, rel_vars, rel)
    return QueryClass(
        acyclic=_reduce(every_var, False) is not None,
        free_connex=_reduce(q, False) is not None,
        q_hierarchical=_reduce(q, True) is not None,
        constant_disjoint=is_constant_disjoint(q)[0],
        self_join_free=not has_self_join(q),
    )


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------

def disconnected_variables(
    bags: Dict[int, VarSet], edges: Iterable[Tuple[int, int]]
) -> List[str]:
    """Sorted variables whose holders (the nodes whose bag contains them) do
    not induce a connected subgraph of the undirected ``edges``.

    Empty exactly when the tree has the running-intersection property that
    every plan requires.
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


def verify_plan(plan: QueryPlan, rel_part: ConjunctiveQuery) -> List[str]:
    """Check every structural plan invariant and, on a sound structure, the
    levels of the connex walk; returns a list of violations."""
    problems: List[str] = []
    nodes = plan.nodes

    reachable: Set[int] = set()
    stack = [plan.root] if plan.nodes else []
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
        if len(node.children) == 1 and plan.vars(node.children[0]) == plan.vars(nid):
            problems.append(f"node {nid} is an identity copy of its child")
        if not any(plan.vars(nid) <= plan.vars(c) for c in node.children):
            problems.append(f"node {nid} has no guard child")
        if plan.guarded and not all(plan.vars(nid) <= plan.vars(c) for c in node.children):
            problems.append(f"guarded plan: child of {nid} is not a guard")
        if len(node.children) == 2:
            c1, c2 = node.children
            if not (plan.vars(c1) <= plan.vars(nid) and plan.vars(c2) <= plan.vars(nid)):
                problems.append(f"2-child node {nid} lacks child containment")
            if plan.vars(c1) != plan.vars(nid):
                problems.append(f"2-child node {nid}: first child lacks the node's variables")
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

    if plan.nodes and plan.root not in plan.connex:
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
    if problems:
        return problems  # the layout is derived from the structure checked above

    walked = sorted(nid for level in plan.levels for nid in level.nodes)
    if walked != sorted(plan.connex):
        problems.append(f"levels walk connex nodes {walked}, not {sorted(plan.connex)}")
    level_vars = {v for level in plan.levels for v in level.order}
    if level_vars != set(rel_part.head_vars):
        problems.append(
            f"level variables {sorted(level_vars)} != free vars {sorted(rel_part.head_vars)}"
        )
    below = {nid for nid in nodes if nid not in plan.connex or nid in plan.frontier}
    if not plan.stored <= below:
        problems.append(f"stored nodes {sorted(plan.stored - below)} lie inside the connex region")
    for nid in sorted(below):
        node = nodes[nid]
        # a free-connex plan streams a node that one scan of its parent reads
        scanned = node.parent is not None and nodes[node.parent].children[0] == nid
        streams = (
            not plan.guarded and nid not in plan.frontier and len(node.children) != 1 and scanned
        )
        if (nid in plan.stored) == streams:
            problems.append(f"node {nid} should be {'streamed' if streams else 'stored'}")
    return problems
