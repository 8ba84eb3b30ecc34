#!/usr/bin/env python3
"""End-to-end walkthrough on a tiny example: static evaluation, dynamic
maintenance, and the matrix frontend, printing every intermediate artifact."""

from deltaenum.dynamic_engine import dyn_enumerate, dyn_preprocess, dyn_update
from deltaenum.kdata import AnnotatedRelation, Database, SingleTupleUpdate
from deltaenum.matlang import (
    Hadamard,
    MatMul,
    MatQuery,
    MatrixInstance,
    MatrixSchema,
    MatrixSymbol,
    Transpose,
    eval_matlang,
)
from deltaenum.planner import classify
from deltaenum.query import parse_query
from deltaenum.semiring import builtin_semiring
from deltaenum.static_engine import enumerate_state, preprocess

nat = builtin_semiring("natural")

print("== static evaluation ==")
q = parse_query("H(x) :- Follows(x,y), Account(x).")
print("query:", q)
print("classification:", classify(q).as_dict())

db = Database(nat)
db.relations["Follows"] = AnnotatedRelation(2, {(1, 2): 2, (1, 3): 1, (2, 3): 4})
db.relations["Account"] = AnnotatedRelation(1, {(1,): 1, (2,): 1})
for t, v in enumerate_state(preprocess(q, db)):
    print("answer", t, "->", v)

print()
print("== dynamic maintenance ==")
state = dyn_preprocess(q, db)
dyn_update(state, SingleTupleUpdate("insert", "Follows", (2, 9), 10))
print("after insert Follows(2,9)+=10:", dict(dyn_enumerate(state)))
dyn_update(state, SingleTupleUpdate("delete", "Account", (1,)))
print("after delete Account(1):   ", dict(dyn_enumerate(state)))

print()
print("== matrix frontend ==")
schema = MatrixSchema(
    {"alpha": 3, "beta": 3},
    {"A": ("alpha", "beta"), "U": ("alpha", "1"), "V": ("beta", "1")},
)
inst = MatrixInstance(
    schema,
    nat,
    {"A": {(1, 1): 2, (2, 3): 7}, "U": {(1, 1): 3, (2, 1): 1}, "V": {(1, 1): 5, (3, 1): 2}},
)
expr = Hadamard(MatrixSymbol("A"), MatMul(MatrixSymbol("U"), Transpose(MatrixSymbol("V"))))
result = eval_matlang(MatQuery("H", expr), inst)
print("H := A .* (U * V^T)")
print("translated CQ:", result.translation)
print("translation classes:", classify(result.translation).as_dict())
print("H entries:", result.instance.entries["H"])
