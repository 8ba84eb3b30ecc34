"""Brute-force reference evaluators: unions of CQs and dense matrices.

These are the ground truth the engines are tested against, and they share no
code with the planner or the engines.  They favour obviousness over speed: a
CQ joins its atoms left to right with a hash join and sums out its bound
variables, a union adds up the answers of its CQs, and a matrix expression is
evaluated entrywise with canonical-vector substitution.  Intended for small
instances only.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .errors import VocabularyError
from .kdata import AnnotatedRelation, Database, DataTuple
from .query import Atom, ConjunctiveQuery, IneqAtom

Rows = Dict[Tuple[int, ...], object]  # values of some variables -> annotation


def _atom_rows(atom: Atom, db: Database) -> Tuple[Tuple[str, ...], Rows]:
    """The variables of one atom, first occurrences in order, and the
    annotation of each of their valuations that satisfies it."""
    if isinstance(atom, IneqAtom):
        one = db.semiring.one
        return (atom.var,), {(v,): one for v in range(1, db.constant(atom.bound) + 1)}
    rel = db.relation(atom.symbol)
    if len(atom.args) != rel.arity:
        raise VocabularyError(
            f"atom {atom.symbol} has arity {len(atom.args)}, relation expects {rel.arity}"
        )
    order = tuple(dict.fromkeys(atom.args))
    rows: Rows = {}
    for t, k in rel.entries.items():
        binding: Dict[str, int] = {}
        for arg, value in zip(atom.args, t):
            if binding.setdefault(arg, value) != value:
                break  # repeated variable, unequal components
        else:
            rows[tuple(binding[v] for v in order)] = k
    return order, rows


def oracle_eval_cq(q: ConjunctiveQuery, db: Database) -> AnnotatedRelation:
    """AnsEnum of a CQ as an annotated relation over its head tuples."""
    s = db.semiring
    order, rows = _atom_rows(q.atoms[0], db)
    for atom in q.atoms[1:]:
        aorder, arows = _atom_rows(atom, db)
        lpos = [i for i, v in enumerate(order) if v in aorder]
        rpos = [aorder.index(order[i]) for i in lpos]
        new = [i for i, v in enumerate(aorder) if v not in order]
        index: Dict[Tuple[int, ...], list] = {}
        for rk, rv in arows.items():
            index.setdefault(tuple(rk[i] for i in rpos), []).append((rk, rv))
        joined: Rows = {}
        for lk, lv in rows.items():
            for rk, rv in index.get(tuple(lk[i] for i in lpos), ()):
                val = s.mul(lv, rv)
                if not s.is_zero(val):
                    joined[lk + tuple(rk[i] for i in new)] = val
        order += tuple(aorder[i] for i in new)
        rows = joined
    head = [order.index(v) for v in q.head_vars]
    answers = [(tuple(key[i] for i in head), val) for key, val in rows.items()]
    return AnnotatedRelation(len(q.head_vars), _sum(answers, s))


def oracle_eval_ucq(cqs: Sequence[ConjunctiveQuery], db: Database) -> Dict[DataTuple, object]:
    """The answers of a union of CQs with one head: the sum of their answers."""
    out: Dict[DataTuple, object] = {}
    for q in cqs:
        out = _sum([*out.items(), *oracle_eval_cq(q, db).entries.items()], db.semiring)
    return out


def _sum(answers, s) -> Dict[DataTuple, object]:
    """The annotations of equal tuples added up in order; zero sums dropped."""
    out: Dict[DataTuple, object] = {}
    for t, v in answers:
        out[t] = s.add(out[t], v) if t in out else v
    return {t: v for t, v in out.items() if not s.is_zero(v)}


# ---------------------------------------------------------------------------
# Dense matrix evaluation
# ---------------------------------------------------------------------------

def oracle_eval_matlang(expr, instance):
    """Entrywise evaluation of a matrix expression into a dense row-major list.

    ``instance`` is a matlang.MatrixInstance; sum-iteration substitutes the
    canonical vectors for the bound vector variable.  Dimensions beyond a few
    dozen will be slow by design.
    """
    from . import matlang  # local import; the oracle stays dependency-light

    s = instance.semiring

    def dims(e) -> Tuple[int, int]:
        rows, cols = e.typ
        return instance.size_of(rows), instance.size_of(cols)

    def rec(e, mu):
        m, n = dims(e)
        if isinstance(e, matlang.MatrixSymbol):
            return instance.dense(e.name)
        if isinstance(e, matlang.VectorVariable):
            return mu[e.name]
        if isinstance(e, matlang.OnesVector):
            return [[s.one] for _ in range(m)]
        if isinstance(e, matlang.IdentityMatrix):
            return [
                [s.one if i == j else s.zero for j in range(n)] for i in range(m)
            ]
        if isinstance(e, matlang.Transpose):
            sub = rec(e.sub, mu)
            return [[sub[j][i] for j in range(len(sub))] for i in range(len(sub[0]))]
        if isinstance(e, matlang.Add):
            a, b = rec(e.left, mu), rec(e.right, mu)
            return [
                [s.add(a[i][j], b[i][j]) for j in range(n)] for i in range(m)
            ]
        if isinstance(e, matlang.Hadamard):
            a, b = rec(e.left, mu), rec(e.right, mu)
            return [
                [s.mul(a[i][j], b[i][j]) for j in range(n)] for i in range(m)
            ]
        if isinstance(e, matlang.ScalarMul):
            a, b = rec(e.left, mu), rec(e.right, mu)
            return [[s.mul(a[0][0], b[i][j]) for j in range(n)] for i in range(m)]
        if isinstance(e, matlang.MatMul):
            a, b = rec(e.left, mu), rec(e.right, mu)
            inner = len(b)
            out = []
            for i in range(m):
                row = []
                for j in range(n):
                    acc = s.zero
                    for k in range(inner):
                        acc = s.add(acc, s.mul(a[i][k], b[k][j]))
                    row.append(acc)
                out.append(row)
            return out
        if isinstance(e, matlang.SumIteration):
            size = instance.size_of(e.var_size)
            acc = [[s.zero for _ in range(n)] for _ in range(m)]
            varies = e.var in matlang.free_vector_variables(e.sub)
            for k in range(size):
                if varies or k == 0:
                    canonical = [[s.one if i == k else s.zero] for i in range(size)]
                    sub = rec(e.sub, {**mu, e.var: canonical})
                acc = [
                    [s.add(acc[i][j], sub[i][j]) for j in range(n)] for i in range(m)
                ]
            return acc
        raise TypeError(f"unknown expression node {e!r}")

    return rec(expr, {})
