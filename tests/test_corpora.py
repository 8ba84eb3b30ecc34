"""The seeded corpora are pinned: a change to what any draw of ``support``
returns changes the digest below, so that it shows in review.  The draws use
``random.Random(k)``, not ``corpus_rng``, so DELTA_ENUM_SEED does not move
them."""

import hashlib
import random

from deltaenum.semiring import BUILTIN_SEMIRING_NAMES, acc_new, builtin_semiring

import support

CORPUS_SHA256 = "a957e37a3a44b990e10f0d4f552ac0b202a23eea540cceeffdbab95bc8fddc41"


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


def test_the_seeded_corpora_draw_what_they_drew():
    digest = hashlib.sha256()
    for text in corpus_draws():
        digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == CORPUS_SHA256
