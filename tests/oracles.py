"""Naive reference implementations used as oracles.

Everything here works by scanning kb.objects directly, with its own
matching logic; none of it touches the engine's indexes, parser, or
inference code.  Slow on purpose: the point is independence, so that
equivalence tests catch indexing or traversal bugs in the engine.
"""

import re
from itertools import islice, product

from annote_kb import And, AVPair, Leaf, Not, Or
from annote_kb.factfile import HEADER
from annote_kb.quoting import format_values, quote


def pair_covers(pair, attribute, terms) -> bool:
    """One pair carries the attribute and all terms (ranks ignored)."""
    if pair.attribute != attribute or not pair.values:
        return False
    return set(terms) <= {v.term for v in pair.values}


def object_satisfies(obj, expr) -> bool:
    if isinstance(expr, Leaf):
        c = expr.criterion
        return any(pair_covers(p, c.attribute, c.values) for p in obj.pairs)
    if isinstance(expr, And):
        return all(object_satisfies(obj, child) for child in expr.children)
    if isinstance(expr, Or):
        return any(object_satisfies(obj, child) for child in expr.children)
    if isinstance(expr, Not):
        return not object_satisfies(obj, expr.child)
    raise TypeError(expr)


def naive_eval(kb, expr) -> set[str]:
    """Object ids satisfying expr, by per-object tree walking.

    Per-object negation equals complement-within-store because the
    universe is exactly the stored objects.
    """
    return {oid for oid, obj in kb.objects.items() if object_satisfies(obj, expr)}


def naive_infer_attributes(kb, terms) -> list[tuple[str, tuple[str, ...]]]:
    """(attribute, sorted support) ranked like the engine claims to rank."""
    support: dict[str, set[str]] = {}
    for oid, obj in kb.objects.items():
        for pair in obj.pairs:
            if pair.attribute is not None and pair_covers(pair, pair.attribute, terms):
                support.setdefault(pair.attribute, set()).add(oid)
    ranked = [(attr, tuple(sorted(ids))) for attr, ids in support.items()]
    ranked.sort(key=lambda item: (-len(item[1]), item[0]))
    return ranked


def _values_key(values) -> tuple:
    return tuple((v.term, v.rank is not None, v.rank or 0) for v in values)


def naive_infer_values(kb, attribute) -> list[tuple[tuple, tuple[str, ...]]]:
    """(value list, sorted support) ranked like the engine claims to rank."""
    groups: dict[tuple, set[str]] = {}
    for oid, obj in kb.objects.items():
        for pair in obj.pairs:
            if pair.attribute == attribute and pair.values:
                groups.setdefault(pair.values, set()).add(oid)
    ranked = [(values, tuple(sorted(ids))) for values, ids in groups.items()]
    ranked.sort(key=lambda item: (-len(item[1]), item[0][0].term, _values_key(item[0])))
    return ranked


def naive_explicate(kb, obj, cap) -> list[tuple[tuple, tuple]]:
    """(pairs, per-pair support) of the first cap combinations of the full
    naive candidate lists, so a deficient pair with no evidence gives []."""
    choices = []
    for pair in obj.pairs:
        if pair.attribute is not None and pair.values:
            choices.append([(pair, ())])
        elif pair.attribute is None:
            found = naive_infer_attributes(kb, [v.term for v in pair.values])
            choices.append([(AVPair(attr, pair.values), ids) for attr, ids in found])
        else:
            found = naive_infer_values(kb, pair.attribute)
            choices.append([(AVPair(pair.attribute, values), ids) for values, ids in found])
    return [
        (tuple(pair for pair, _ in combo), tuple(ids for _, ids in combo))
        for combo in islice(product(*choices), cap)
    ]


def kb_state(kb) -> tuple:
    """Everything a save/load round trip must preserve, in comparable form.

    Meta does not travel through fact files, so it is left out on purpose.
    Tiers are read through kb.document for every stored document and every
    annotation, whose tier is derived rather than stored.  The id lists of
    values_by_attribute are kept as tuples, in insertion order, so a base
    compared with its reloaded copy must have been built in id order, the
    order save_facts writes.
    """
    objects = tuple(
        (oid, obj.target, obj.pairs) for oid, obj in sorted(kb.objects.items())
    )
    documents = tuple(
        (d.id, d.tier)
        for d in map(kb.document, sorted(kb.documents.keys() | kb.objects.keys()))
    )
    annotators = tuple(
        (a.id, a.name, a.role) for a in (kb.annotators[k] for k in sorted(kb.annotators))
    )
    indexes = (
        {
            term: {attr: frozenset(ids) for attr, ids in by_attr.items()}
            for term, by_attr in kb.postings.items()
        },
        {
            attr: {values: tuple(ids) for values, ids in by_list.items()}
            for attr, by_list in kb.values_by_attribute.items()
        },
        {k: frozenset(v) for k, v in kb.index_by_target.items()},
    )
    return objects, documents, annotators, indexes


def naive_attributes_of(kb, target) -> list[str]:
    found = set()
    for obj in kb.objects.values():
        if obj.target != target:
            continue
        for pair in obj.pairs:
            if pair.attribute is not None and pair.values:
                found.add(pair.attribute)
    return sorted(found)


def _checked_id(some_id: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9_]+", some_id):
        raise ValueError(f"id not representable in a fact file: {some_id!r}")
    return some_id


def naive_save_facts(kb) -> str:
    """save_facts rendered pair by pair: every attribute and value list
    quoted afresh, and both ids checked on every annotation line."""
    lines = [HEADER]
    for doc_id, record in sorted(kb.documents.items()):
        lines.append(f"document({_checked_id(doc_id)}, {record.tier.value}).")
    for annotator_id, profile in sorted(kb.annotators.items()):
        lines.append(
            f"annotator({_checked_id(annotator_id)}, {quote(profile.name)}, {profile.role.value})."
        )
    for object_id, obj in sorted(kb.objects.items()):
        for pair in obj.pairs:
            attr = "_" if pair.attribute is None else quote(pair.attribute)
            lines.append(
                f"annotation({_checked_id(object_id)}, {attr}, "
                f"{format_values(pair.values)}, {_checked_id(obj.target)})."
            )
    return "\n".join(lines) + "\n"
