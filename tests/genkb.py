"""Seeded random generators for knowledge bases and query trees.

Plain random.Random with explicit seeds keeps the bulk equivalence suites
deterministic and fast; the finer-grained properties use hypothesis in the
individual test modules.
"""

import random

from annote_kb import (
    And,
    AnnotationObject,
    AVPair,
    Criterion,
    IMPORT_META,
    KnowledgeBase,
    Leaf,
    Not,
    Or,
    Value,
)

ATTRIBUTES = [f"attr-{i:02d}" for i in range(50)]
TERMS = [f"terme{i:03d}" for i in range(500)]


def random_kb(
    seed: int,
    n_objects: int = 1000,
    attributes: list[str] = ATTRIBUTES,
    terms: list[str] = TERMS,
    shuffled: bool = False,
) -> KnowledgeBase:
    """A knowledge base of n_objects random annotations.

    Roughly one object in ten has an implicit pair (missing attribute or
    missing values) and one in ten annotates an earlier annotation, so
    chains, weighted values and deficient pairs all occur.  Objects are
    inserted in id order unless shuffled, which inserts the same objects
    in a random order so that no code may rely on the two agreeing.
    """
    rng = random.Random(seed)
    kb = KnowledgeBase()
    objects: list[AnnotationObject] = []
    ids: list[str] = []
    for i in range(n_objects):
        oid = f"obj{i:05d}"
        if ids and rng.random() < 0.1:
            target = rng.choice(ids)  # earlier object: chains stay acyclic
        else:
            target = f"doc{rng.randrange(200):03d}"
        pairs = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.05:
                pairs.append(AVPair(None, _random_values(rng, terms)))
            elif roll < 0.10:
                pairs.append(AVPair(rng.choice(attributes), ()))
            else:
                pairs.append(AVPair(rng.choice(attributes), _random_values(rng, terms)))
        objects.append(AnnotationObject(oid, target, tuple(pairs), IMPORT_META))
        ids.append(oid)
    if shuffled:
        rng.shuffle(objects)
    for obj in objects:
        kb.insert(obj)
    return kb


def _random_values(rng: random.Random, terms: list[str]) -> tuple[Value, ...]:
    picked = rng.sample(terms, rng.randint(1, 4))
    return tuple(
        Value(t, rng.randrange(5) if rng.random() < 0.2 else None) for t in picked
    )


def random_expr(
    rng: random.Random,
    depth: int = 5,
    attributes: list[str] = ATTRIBUTES,
    terms: list[str] = TERMS,
):
    """A random query tree of at most the given depth."""
    if depth == 0 or rng.random() < 0.4:
        attr = rng.choice(attributes)
        picked = tuple(rng.sample(terms, rng.randint(1, 3)))
        return Leaf(Criterion(attr, picked))
    roll = rng.random()
    if roll < 0.4:
        return And(tuple(random_expr(rng, depth - 1, attributes, terms) for _ in range(rng.randint(2, 3))))
    if roll < 0.8:
        return Or(tuple(random_expr(rng, depth - 1, attributes, terms) for _ in range(rng.randint(2, 3))))
    return Not(random_expr(rng, depth - 1, attributes, terms))
