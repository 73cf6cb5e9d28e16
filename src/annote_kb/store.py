"""Indexed store for annotation objects plus document/annotator registries.

The store keeps three indexes in lockstep with the object map:

    postings              term -> {attribute -> {object id}}
    values_by_attribute   attribute -> {value list -> [object id, in insertion order]}
    index_by_target       target id -> [object id, in insertion order]

Pairs without an attribute are not indexed; they carry nothing a query
could address until the object is explicated.  A pair with an attribute
but no values gives its attribute a key in values_by_attribute and no
list.  covering() is the one lookup that query evaluation and attribute
inference share; values_by_attribute is what value inference reads.

Two pieces of derived state sit beside the indexes; neither is a fourth
index.  sorted_ids() is the stored ids in ascending order, built on first
use and dropped by insert, the only method that adds to objects.  The
tuple is never changed in place, so copy() shares it.  _rankings keeps,
per attribute, the value candidates that inference.infer_values last
ranked (inference decides what an entry holds); insert drops the entry of
every attribute its pairs name, and copy() starts with none.

Every stored annotation is also a tertiary document, so an annotation can
itself be annotated.  document() derives that tier, so documents holds
exactly the documents that are not annotations: declared records and
targets that named nothing yet (as primary).  Target chains are kept
acyclic, which makes trace_chain terminate.

A KnowledgeBase instance expects a single writer; hand readers a copy()
snapshot when writes may happen concurrently.
"""

from __future__ import annotations

__all__ = ["KnowledgeBase"]

from typing import Iterable

from .errors import (
    CyclicTargetError,
    DuplicateIdError,
    InvalidObjectError,
    UnknownIdError,
)
from .model import (
    AnnotationObject,
    AnnotatorProfile,
    AttributeName,
    DocumentRecord,
    DocumentTier,
    Explicitness,
    Term,
    Value,
    classify,
    covers,
    is_explicit_pair,
)


class KnowledgeBase:
    """Annotation objects, documents and annotators under one roof."""

    def __init__(self) -> None:
        self.objects: dict[str, AnnotationObject] = {}
        self.documents: dict[str, DocumentRecord] = {}
        self.annotators: dict[str, AnnotatorProfile] = {}
        self.postings: dict[Term, dict[AttributeName, set[str]]] = {}
        self.values_by_attribute: dict[AttributeName, dict[tuple[Value, ...], list[str]]] = {}
        self.index_by_target: dict[str, list[str]] = {}
        self._sorted_ids: tuple[str, ...] | None = None
        self._rankings: dict[AttributeName, tuple] = {}

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self.objects

    def insert(self, obj: AnnotationObject) -> None:
        """Store an annotation and index its explicit half.

        Raises DuplicateIdError for a reused id, InvalidObjectError when the
        object classifies as invalid, and CyclicTargetError when following
        obj.target through existing annotations would lead back to obj.
        """
        if obj.id in self.objects:
            raise DuplicateIdError(obj.id)
        if classify(obj) is Explicitness.INVALID:
            raise InvalidObjectError(obj.id)
        self._check_acyclic(obj)

        oid = obj.id
        self.objects[oid] = obj
        self._sorted_ids = None
        # Tested once per insert: a load starts with no rankings kept, so it
        # pays no pop per pair.
        if self._rankings:
            for pair in obj.pairs:
                self._rankings.pop(pair.attribute, None)
        # Get, then create on a miss: setdefault would build a set per call.
        postings = self.postings
        values_by_attribute = self.values_by_attribute
        for pair in obj.pairs:
            attribute = pair.attribute
            if attribute is None:
                continue
            by_list = values_by_attribute.get(attribute)
            if by_list is None:
                by_list = values_by_attribute[attribute] = {}
            values = pair.values
            if not values:
                continue
            # setdefault hashes the list once (Value hashes in Python) for a
            # one-id list per pair.  One insert is one object, so a list the
            # object holds twice already ends with its id.
            holders = by_list.setdefault(values, [oid])
            if holders[-1] != oid:
                holders.append(oid)
            for value in values:
                by_attribute = postings.get(value.term)
                if by_attribute is None:
                    by_attribute = postings[value.term] = {}
                ids = by_attribute.get(attribute)
                if ids is None:
                    ids = by_attribute[attribute] = set()
                ids.add(oid)
        self.index_by_target.setdefault(obj.target, []).append(oid)

        # The annotation is now a tertiary document, which document()
        # derives; an unknown target becomes a primary document.
        self.documents.pop(obj.id, None)
        if obj.target not in self.documents and obj.target not in self.objects:
            self.documents[obj.target] = DocumentRecord(obj.target, DocumentTier.PRIMARY)

    def sorted_ids(self) -> tuple[str, ...]:
        """Ids of the stored objects, ascending; cached until the next insert."""
        if self._sorted_ids is None:
            self._sorted_ids = tuple(sorted(self.objects))
        return self._sorted_ids

    def _check_acyclic(self, obj: AnnotationObject) -> None:
        cursor = obj.target
        while cursor in self.objects:
            cursor = self.objects[cursor].target
        if cursor == obj.id:
            raise CyclicTargetError(obj.id)

    def document(self, doc_id: str) -> DocumentRecord | None:
        """doc_id's record, tertiary for any annotation; None for an unknown id."""
        if doc_id in self.objects:
            return DocumentRecord(doc_id, DocumentTier.TERTIARY)
        return self.documents.get(doc_id)

    def add_document(self, record: DocumentRecord) -> None:
        """Register or re-tier a document.

        Ids that name an annotation are pinned to the tertiary tier, and
        only annotation ids may be tertiary; violations raise ValueError.
        A tertiary record is what document() derives, so it is not stored.
        """
        if record.id in self.objects and record.tier is not DocumentTier.TERTIARY:
            raise ValueError(f"{record.id} is an annotation and stays tertiary")
        if record.tier is DocumentTier.TERTIARY and record.id not in self.objects:
            raise ValueError(f"{record.id} declared tertiary but is not an annotation")
        if record.tier is not DocumentTier.TERTIARY:
            self.documents[record.id] = record

    def add_annotator(self, profile: AnnotatorProfile) -> None:
        self.annotators[profile.id] = profile

    def attributes_of(self, target: str) -> list[AttributeName]:
        """Attributes used by explicit pairs of annotations on target, sorted.

        Unknown targets yield an empty list.
        """
        found: set[AttributeName] = set()
        for oid in self.index_by_target.get(target, ()):
            for pair in self.objects[oid].pairs:
                if is_explicit_pair(pair):
                    found.add(pair.attribute)
        return sorted(found)

    def value_lists_of(self, target: str) -> list[tuple[Value, ...]]:
        """Value lists of explicit pairs of annotations on target.

        Lists appear in insertion order (objects first, then their pairs),
        verbatim including ranks.  Unknown targets yield an empty list.
        """
        return [
            pair.values
            for oid in self.index_by_target.get(target, ())
            for pair in self.objects[oid].pairs
            if is_explicit_pair(pair)
        ]

    def covering(self, attribute: AttributeName, terms: Iterable[Term]) -> set[str]:
        """Ids of objects with one pair under attribute covering all terms.

        terms must be normalized; ranks are ignored (see model.covers).
        Returns a fresh set the caller may change.  Raises ValueError when
        terms is empty.
        """
        needed = set(terms)
        if not needed:
            raise ValueError("at least one term is required")
        postings: list[set[str]] = []
        for term in needed:
            ids = self.postings.get(term, {}).get(attribute)
            if ids is None:
                return set()
            postings.append(ids)
        postings.sort(key=len)  # smallest first
        ids = postings[0].intersection(*postings[1:])  # a copy, even for one posting
        if len(needed) == 1:
            return ids  # a single-term posting is already exact
        return {oid for oid in ids if covers(self.objects[oid], attribute, needed)}

    def trace_chain(self, start: str) -> list[str]:
        """Follow targets from start down to the underlying document.

        Returns [start, ..., final target]; a plain document is its own
        chain.  Raises UnknownIdError when start names neither an object
        nor a document.  Terminates because insert keeps chains acyclic.
        """
        if start not in self.objects and start not in self.documents:
            raise UnknownIdError(start)
        chain = [start]
        cursor = start
        while cursor in self.objects:
            cursor = self.objects[cursor].target
            chain.append(cursor)
        return chain

    def copy(self) -> "KnowledgeBase":
        """Snapshot for readers; shares only the immutable objects and sorted
        ids, and starts with no kept rankings."""
        dup = KnowledgeBase()
        dup.objects = dict(self.objects)
        dup.documents = dict(self.documents)
        dup.annotators = dict(self.annotators)
        dup.postings = {
            term: {attr: set(ids) for attr, ids in by_attr.items()}
            for term, by_attr in self.postings.items()
        }
        dup.values_by_attribute = {
            attr: {values: list(ids) for values, ids in by_list.items()}
            for attr, by_list in self.values_by_attribute.items()
        }
        dup.index_by_target = {k: list(v) for k, v in self.index_by_target.items()}
        dup._sorted_ids = self._sorted_ids
        return dup
