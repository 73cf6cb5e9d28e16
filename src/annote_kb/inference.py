"""Explicitation: fill in a missing attribute or missing values by matching
the known half of a pair against explicit pairs already in the base.

infer_attributes answers "which attributes carry these terms?", infer_values
answers "which value lists does this attribute carry?", and explicate
combines both to turn one implicit annotation into ranked explicit
candidates.  Only explicit pairs (attribute present, values non-empty) count
as evidence; rank annotations on values are ignored when matching terms.
"""

from __future__ import annotations

__all__ = [
    "AttributeCandidate",
    "Explication",
    "ValueCandidate",
    "explicate",
    "infer_attributes",
    "infer_values",
]

import heapq
import itertools
import sys
from dataclasses import dataclass, replace

from .errors import NoCandidatesError, NotImplicitError
from .model import (
    AnnotationObject,
    AttributeName,
    AVPair,
    Explicitness,
    Value,
    _term_tuple,
    classify,
    is_explicit_pair,
    normalize_attribute,
    normalize_term,
)
from .store import KnowledgeBase


@dataclass(frozen=True, slots=True)
class AttributeCandidate:
    """An attribute that could own the given terms, with its evidence."""

    attribute: AttributeName
    support: tuple[str, ...]  # object ids, sorted

    @property
    def support_count(self) -> int:
        return len(self.support)


@dataclass(frozen=True, slots=True)
class ValueCandidate:
    """A stored value list for an attribute, with its evidence."""

    values: tuple[Value, ...]  # verbatim, ranks included
    support: tuple[str, ...]  # object ids, sorted

    @property
    def support_count(self) -> int:
        return len(self.support)


def infer_attributes(kb: KnowledgeBase, terms: list[str]) -> list[AttributeCandidate]:
    """Attributes under which some object carries every given term.

    A candidate needs at least one object with a single explicit pair whose
    value terms include all of terms (ranks ignored), so support is never
    empty.  Candidates are ordered by support count descending, then by
    attribute name ascending.  An empty result is a legal outcome.
    """
    wanted = [normalize_term(t) for t in _term_tuple(terms)]
    out: list[AttributeCandidate] = []
    for attribute in kb.postings.get(wanted[0], {}):
        covering = kb.covering(attribute, wanted)
        if covering:
            out.append(AttributeCandidate(attribute, tuple(sorted(covering))))
    out.sort(key=lambda c: (-c.support_count, c.attribute))
    return out


def _check_count(count: object, name: str) -> None:
    # Same rule as a Value's rank: a bool or a float is refused.
    if type(count) is not int:
        raise TypeError(f"{name} must be an int, not {count!r}")
    if count < 1:
        raise ValueError(f"{name} must be at least 1")


def _rank_key(item: tuple[tuple[Value, ...], list[str]]) -> tuple:
    values, ids = item
    full = tuple((v.term, v.rank is not None, v.rank or 0) for v in values)
    return (-len(ids), values[0].term, full)


def infer_values(
    kb: KnowledgeBase, attribute: str, *, limit: int | None = None
) -> list[ValueCandidate]:
    """Distinct value lists stored under attribute, with their evidence.

    Lists are compared verbatim (terms, ranks, order); candidates are
    ordered by support count descending, then by first term ascending,
    with the full list as a final deterministic tie-break.  With a limit,
    the result is exactly infer_values(kb, attribute)[:limit], and only
    the returned lists are ranked in full.  Raises TypeError when limit is
    neither None nor an int, and ValueError when it is below 1.

    A limited call keeps its candidates in the base until the next insert
    under attribute (see store.py), so asking again for at most as many,
    or for any number once every list fits, ranks nothing.
    """
    if limit is not None:
        _check_count(limit, "limit")
    attribute = normalize_attribute(attribute)
    # An entry: (the limit it was built for, whether it ranks every list,
    # the candidates).
    kept = kb._rankings.get(attribute)
    if kept is not None and (kept[1] or (limit is not None and limit <= kept[0])):
        return list(kept[2][:limit])
    by_list = kb.values_by_attribute.get(attribute, {})
    complete = limit is None or len(by_list) <= limit
    if complete:
        ranked = sorted(by_list.items(), key=_rank_key)
    else:
        # Only lists held at least as often as the limit-th one can make
        # the cut; a generator keeps them from piling up for the collector.
        floor = heapq.nlargest(limit, map(len, by_list.values()))[-1]
        contenders = (item for item in by_list.items() if len(item[1]) >= floor)
        ranked = heapq.nsmallest(limit, contenders, key=_rank_key)
    found = [ValueCandidate(values, tuple(sorted(ids))) for values, ids in ranked]
    # Without a limit nothing is kept, so an entry never holds more
    # candidates than some caller asked for.
    if limit is not None and by_list:
        kb._rankings[attribute] = (limit, complete, tuple(found))
    return found


@dataclass(frozen=True, slots=True)
class Explication:
    """One explicit candidate for an implicit annotation.

    support holds, for each pair of the original object (same order), the
    object ids that justified the substitution; pairs that were already
    explicit get an empty tuple.
    """

    object: AnnotationObject
    support: tuple[tuple[str, ...], ...]


def explicate(kb: KnowledgeBase, obj: AnnotationObject, cap: int = 16) -> list[Explication]:
    """Turn an implicit annotation into ranked explicit candidates.

    Each deficient pair is substituted independently: a missing attribute
    draws from infer_attributes over the pair's terms, missing values draw
    from infer_values on the pair's attribute (stored lists verbatim,
    ranks included).  Candidates combine per-pair choices in rank order,
    cartesian across pairs, truncated to cap.  Every returned object
    classifies as explicit; id, target and meta are kept.

    Raises TypeError when cap is not an int and ValueError when it is
    below 1; a cap past sys.maxsize returns every combination.  Raises
    NotImplicitError unless classify(obj) is implicit, and
    NoCandidatesError (with the offending pair index) when some deficient
    pair finds no evidence at all.
    """
    _check_count(cap, "cap")
    state = classify(obj)
    if state is not Explicitness.IMPLICIT:
        raise NotImplicitError(f"object {obj.id} is {state.value}, not implicit")

    choices: list[list[tuple[AVPair, tuple[str, ...]]]] = []
    for index, pair in enumerate(obj.pairs):
        if is_explicit_pair(pair):
            choices.append([(pair, ())])
        elif pair.attribute is None:
            found = infer_attributes(kb, [v.term for v in pair.values])
            if not found:
                raise NoCandidatesError(index)
            choices.append([(AVPair(c.attribute, pair.values), c.support) for c in found])
        else:
            found = infer_values(kb, pair.attribute, limit=cap)
            if not found:
                raise NoCandidatesError(index)
            choices.append([(AVPair(pair.attribute, c.values), c.support) for c in found])

    out: list[Explication] = []
    for combo in itertools.islice(itertools.product(*choices), min(cap, sys.maxsize)):
        pairs = tuple(pair for pair, _ in combo)
        support = tuple(ids for _, ids in combo)
        out.append(Explication(replace(obj, pairs=pairs), support))
    return out
