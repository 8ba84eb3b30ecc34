"""The seeded corpora are pinned: a change to what any draw of ``support``
returns changes the digest below, so that it shows in review.  So are the
sources the engines generate: a change to any walk, build, update step or
row reader changes ``SOURCES_SHA256``.  The draws use ``random.Random(k)``,
not ``corpus_rng``, so DELTA_ENUM_SEED does not move them."""

import hashlib
import random

from deltaenum.dynamic_engine import update_sources
from deltaenum.kdata import reader_source, update_reader_source
from deltaenum.planner import build_fc_plan, build_guarded_plan
from deltaenum.semiring import BUILTIN_SEMIRING_NAMES, acc_new, builtin_semiring
from deltaenum.static_engine import plan_sources

import support

CORPUS_SHA256 = "7cd88f0cbbd80a9d1e7888db5c826d444d2ef1be70cc172ca5a5507d78137d8b"
SOURCES_SHA256 = "7931b7ec4d98113e181caf6a37bab96ddb501592495d4036a36144b6872709b8"


def db_text(db) -> str:
    # relations and entries in the order drawn
    rels = [(s, r.arity, list(r.entries.items())) for s, r in db.relations.items()]
    return repr(rels) + repr(sorted(db.constants.items()))


def corpus_draws():
    yield str(support.DEFAULT_SEED)
    yield support.scaling_static_query().to_text() + support.scaling_dynamic_query().to_text()
    for k in range(40):
        rng = random.Random(k)
        for name in BUILTIN_SEMIRING_NAMES:
            s = builtin_semiring(name)
            yield repr([support.sample(s, rng) for _ in range(20)])
            if s.sum_maintainable:
                yield repr([tuple(m) for m in support.interleave_members(rng, s, acc_new(s), 30)])
            q = support.random_cq(rng, self_join_prob=0.4)
            yield q.to_text()
            db = support.random_db_for_query(rng, q, s, max_tuples=12 + k, domain=3 + k % 3)
            yield db_text(db)
            if q.relational_atoms:
                yield repr([support.random_update(rng, q, db, s, domain=4) for _ in range(5)])
            yield support.random_free_connex_cq(rng, max_atoms=4, max_vars=6).to_text()
            yield support.random_q_hierarchical_cq(rng, max_atoms=3, max_vars=4).to_text()
            schema = support.random_matrix_schema(rng, max_dim=4)
            yield repr(schema)
            yield repr(support.random_conj_expression(rng, schema, allow_add=k % 2 == 1))
            yield repr(support.random_matrix_instance(rng, schema, s, density=0.4).entries)
        draws = support.random_conj_expressions(rng, max_dim=3, max_depth=3)
        yield repr([next(draws) for _ in range(3)])
        nat = builtin_semiring("natural")
        yield db_text(support.scaling_db(rng, nat, 40 + k, dynamic=k % 2 == 1, head_domain=8))
    rng = random.Random(40)
    for name in BUILTIN_SEMIRING_NAMES * 10:
        yield support.random_coo_text(rng, builtin_semiring(name), rng.randint(1, 4), rng.randint(1, 4))
    rng = random.Random(41)
    for name in BUILTIN_SEMIRING_NAMES * 10:
        yield support.random_update_text(rng, builtin_semiring(name))


def test_the_seeded_corpora_draw_what_they_drew():
    digest = hashlib.sha256()
    for text in corpus_draws():
        digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == CORPUS_SHA256


def generated_sources():
    # the walk and build of both plans of free-connex queries, under every
    # builtin semiring
    for k, name in enumerate(BUILTIN_SEMIRING_NAMES):
        rng, s = random.Random(100 + k), builtin_semiring(name)
        for _ in range(1000):
            q = support.random_free_connex_cq(rng)
            yield q.to_text()
            for plan in (build_fc_plan(q), build_guarded_plan(q)):
                yield from plan_sources(plan, s) if plan else ["no plan"]
    # the update steps of q-hierarchical self-joins, under the semirings
    # that the dynamic engine maintains
    for k, name in enumerate(["natural", "boolean", "real"]):
        rng, s = random.Random(200 + k), builtin_semiring(name)
        for _ in range(1000):
            q = support.random_q_hierarchical_cq(rng, self_join_prob=0.4)
            yield q.to_text()
            for symbol, source in update_sources(build_guarded_plan(q), s).items():
                yield from (symbol, source)
    for name in BUILTIN_SEMIRING_NAMES:
        s = builtin_semiring(name)
        yield from (reader_source(arity, s, bounded) for arity in range(4) for bounded in (False, True))
        yield update_reader_source(s)


def test_the_generated_sources_are_what_they_were():
    digest = hashlib.sha256()
    for text in generated_sources():
        digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == SOURCES_SHA256
