"""Core domain model: annotation objects and their classification.

An annotation attaches one or more attribute/value pairs to a target, where
the target is a document or another annotation.  A pair may lack its
attribute or lack its values; an annotation holding such a pair is
*implicit* and must be explicated against the knowledge base before it can
answer attribute-based queries.  A pair missing both sides carries no
information at all, which makes the whole annotation *invalid*.

All attribute names and value terms are stored in a canonical spelling
produced by normalize_attribute / normalize_term, so that "Mots-Clés",
"mots clés" and "mots-clés" denote the same attribute.

Every id follows ID, by which the fact file's tokenizer also reads ids;
the constructors below refuse any other id with InvalidIdError.
"""

from __future__ import annotations

__all__ = [
    "ActionKind",
    "AnnotationContext",
    "AnnotationMeta",
    "AnnotationObject",
    "AnnotatorProfile",
    "AnnotatorRole",
    "AttributeName",
    "AVPair",
    "DocumentRecord",
    "DocumentTier",
    "Explicitness",
    "Term",
    "Value",
    "as_value",
    "build_object",
    "classify",
    "is_explicit_pair",
    "make_pair",
    "normalize_attribute",
    "normalize_term",
]

import re
import unicodedata
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Union

from .errors import (
    EmptyAttributeError,
    EmptyTermError,
    InvalidIdError,
    InvalidPairError,
    LineBreakError,
)

# Canonical spellings.  Terms keep their internal spacing; attribute names
# additionally collapse whitespace/hyphen runs into a single hyphen.
Term = str
AttributeName = str

_SEPARATOR_RUN = re.compile(r"[\s-]+")
# Every character str.splitlines breaks a fact file's lines on.  All of
# them are whitespace, so attribute names lose them to _SEPARATOR_RUN.
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

ID = re.compile("[A-Za-z0-9_]+")
_is_id = ID.fullmatch  # bound once: constructors check each id with one call


def _check_one_line(text: str, what: str) -> None:
    # Every line break is unprintable, so printable text needs no search.
    if not text.isprintable() and _LINE_BREAK.search(text):
        raise LineBreakError(f"{what} contains a line break: {text!r}")


def _fold(raw: str) -> str:
    # Case folding may denormalize composed characters, hence the second NFC.
    text = unicodedata.normalize("NFC", raw)
    return unicodedata.normalize("NFC", text.casefold()).strip()


def normalize_term(raw: str) -> Term:
    """Canonicalize a value term: NFC, case-folded, trimmed, accents kept.

    Raises EmptyTermError when nothing remains after trimming, and
    LineBreakError when a line break remains inside the term.
    """
    text = _fold(raw)
    if not text:
        raise EmptyTermError(f"blank term: {raw!r}")
    _check_one_line(text, "term")
    return text


def _term_tuple(terms: Iterable[str]) -> tuple[str, ...]:
    """terms as a tuple.  A bare str raises TypeError, since it would be
    read as one term per character, and no terms raise ValueError."""
    if isinstance(terms, str):
        raise TypeError("terms must be a list of terms, not one str")
    terms = tuple(terms)
    if not terms:
        raise ValueError("at least one term is required")
    return terms


def normalize_attribute(raw: str) -> AttributeName:
    """Canonicalize an attribute name.

    Same folding as normalize_term, then every run of whitespace and
    hyphens becomes one hyphen, so "mots clés" and "Mots-Clés" both map to
    "mots-clés".  Raises EmptyAttributeError when nothing usable remains.
    """
    text = _SEPARATOR_RUN.sub("-", _fold(raw)).strip("-")
    if not text:
        raise EmptyAttributeError(f"blank attribute: {raw!r}")
    return text


# int() and str() refuse more digits than sys.get_int_max_str_digits(),
# which can be set as low as 640, so a rank this long loads and saves
# under any setting.
_RANK_DIGITS = 640
_RANK_BOUND = 10**_RANK_DIGITS


@dataclass(frozen=True, slots=True)
class Value:
    """One value term, optionally weighted by an integer rank.

    The rank is storage only: matching and inference compare terms and
    ignore ranks, but the rank survives save/load round trips.  So a rank
    other than None must be an int (not a bool) of at most _RANK_DIGITS
    digits, or ValueError is raised; and a term holding a line break,
    which a fact file would split into lines, raises LineBreakError.
    """

    term: Term
    rank: int | None = None

    def __post_init__(self) -> None:
        _check_one_line(self.term, "term")
        rank = self.rank
        if rank is None:
            return
        if type(rank) is not int:
            raise ValueError(f"rank must be an int or None, not {rank!r}")
        # Compared, not converted: str() itself refuses a long enough int.
        if not -_RANK_BOUND < rank < _RANK_BOUND:
            raise ValueError(f"rank longer than {_RANK_DIGITS} digits")


RawValue = Union[str, tuple[str, int], Value]


def as_value(raw: RawValue) -> Value:
    """Coerce "term" / ("term", rank) / Value into a normalized Value."""
    if isinstance(raw, Value):
        return Value(normalize_term(raw.term), raw.rank)
    if isinstance(raw, tuple):
        term, rank = raw
        return Value(normalize_term(term), int(rank))
    return Value(normalize_term(raw))


@dataclass(frozen=True, slots=True)
class AVPair:
    """An attribute/value pair; either side may be missing.

    attribute None means "attribute unknown"; an empty values tuple means
    "values unknown".  A pair missing both sides is never meaningful and
    makes the owning annotation invalid (see classify).  An attribute
    holding a line break raises LineBreakError, as a term does in Value.
    """

    attribute: AttributeName | None
    values: tuple[Value, ...]

    def __post_init__(self) -> None:
        if self.attribute is not None:
            _check_one_line(self.attribute, "attribute")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))

    def terms(self) -> set[Term]:
        return {v.term for v in self.values}


def make_pair(attribute: str | None, values: Iterable[RawValue]) -> AVPair:
    """Build a pair from raw spellings, normalizing both sides."""
    attr = None if attribute is None else normalize_attribute(attribute)
    return AVPair(attr, tuple(as_value(v) for v in values))


def is_explicit_pair(pair: AVPair) -> bool:
    """True when the pair has an attribute and at least one value."""
    return pair.attribute is not None and bool(pair.values)


def covers(obj: AnnotationObject, attribute: AttributeName, terms: set[Term]) -> bool:
    """True when one pair of obj has attribute and value terms including all of terms.

    Ranks are ignored; terms spread over two pairs do not count.
    """
    return any(pair.attribute == attribute and terms <= pair.terms() for pair in obj.pairs)


class Explicitness(Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    INVALID = "invalid"


class ActionKind(str, Enum):
    """What the annotator was doing when the annotation was made."""

    PARTAGER = "partager"
    INCLURE = "inclure"
    FILTRER = "filtrer"
    INDEXER = "indexer"
    FACILITER = "faciliter"
    ATTACHER = "attacher"
    AUTRE = "autre"


class AnnotationContext(str, Enum):
    """Work situation the annotation belongs to."""

    REQUETE = "requete"
    RECHERCHE_INFO = "recherche-info"
    INTERPRETATION = "interpretation"
    PROPOSITION = "proposition"
    AUTRE = "autre"


class DocumentTier(str, Enum):
    """Primary sources, secondary notices about them, tertiary annotations."""

    PRIMARY = "primary"
    SECONDARY = "secondary"
    TERTIARY = "tertiary"


class AnnotatorRole(str, Enum):
    VEILLEUR = "veilleur"
    ANALYSTE = "analyste"
    DECIDEUR = "decideur"
    AUTRE = "autre"


def _now_iso() -> str:
    from datetime import datetime, timezone  # here, so importing the package skips it

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True, slots=True)
class AnnotationMeta:
    """Provenance of an annotation: who made it, doing what, in what context.

    action_detail / context_detail carry the free text behind the AUTRE
    escape hatches; action_detail is mandatory when action is AUTRE.
    """

    annotator_id: str
    action: ActionKind
    context: AnnotationContext = AnnotationContext.AUTRE
    timestamp: str = field(default_factory=_now_iso)  # ISO-8601
    objective: str | None = None
    action_detail: str = ""
    context_detail: str = ""

    def __post_init__(self) -> None:
        if not self.annotator_id:
            raise ValueError("annotator_id must be non-empty")
        if self.action is ActionKind.AUTRE and not self.action_detail:
            raise ValueError("action AUTRE requires action_detail text")


@dataclass(frozen=True, slots=True)
class AnnotationObject:
    """A stored annotation: id, annotated target, pairs, provenance."""

    id: str
    target: str
    pairs: tuple[AVPair, ...]
    meta: AnnotationMeta

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, tuple):
            object.__setattr__(self, "pairs", tuple(self.pairs))
        if not _is_id(self.id):
            raise InvalidIdError(self.id)
        if not _is_id(self.target):
            raise InvalidIdError(self.target)
        if self.id == self.target:
            raise ValueError(f"annotation {self.id} cannot annotate itself")


@dataclass(frozen=True, slots=True)
class DocumentRecord:
    """A document known to the base.  An annotation is a tertiary document;
    KnowledgeBase.document derives that tier, so no such record is stored."""

    id: str
    tier: DocumentTier

    def __post_init__(self) -> None:
        if not _is_id(self.id):
            raise InvalidIdError(self.id)
        if not isinstance(self.tier, DocumentTier):  # "primary" -> PRIMARY; ValueError if unknown
            object.__setattr__(self, "tier", DocumentTier(self.tier))


@dataclass(frozen=True, slots=True)
class AnnotatorProfile:
    """An annotator; a name containing a line break raises LineBreakError."""

    id: str
    name: str
    role: AnnotatorRole

    def __post_init__(self) -> None:
        if not _is_id(self.id):
            raise InvalidIdError(self.id)
        _check_one_line(self.name, "annotator name")
        if not isinstance(self.role, AnnotatorRole):  # as DocumentRecord.tier
            object.__setattr__(self, "role", AnnotatorRole(self.role))


def classify(obj: AnnotationObject) -> Explicitness:
    """Classify an annotation as explicit, implicit, or invalid.

    Explicit: every pair has an attribute and at least one value.
    Invalid: the pair list is empty, or some pair has neither side.
    Implicit: everything else (each pair has at least one side, some pair
    is missing one).  The result is total: every object lands in exactly
    one of the three states and nothing raises.
    """
    if not obj.pairs:
        return Explicitness.INVALID
    explicit = True
    for pair in obj.pairs:
        if pair.attribute is None:
            if not pair.values:
                return Explicitness.INVALID
            explicit = False
        elif not pair.values:
            explicit = False
    return Explicitness.EXPLICIT if explicit else Explicitness.IMPLICIT


RawPair = Union[AVPair, tuple]


def build_object(
    action: ActionKind,
    target: str,
    pairs: Iterable[RawPair],
    meta: AnnotationMeta,
    *,
    object_id: str | None = None,
) -> AnnotationObject:
    """Build a storable annotation from an annotator action on a target.

    Accepts pairs as AVPair or raw (attribute, values) tuples; attributes
    and terms are normalized either way.  The returned object carries a
    fresh id unless object_id is given, and meta.action is set to action.

    Raises InvalidIdError for an id outside ID and InvalidPairError when
    the pair list is empty or some pair has neither attribute nor values:
    build_object never returns an object that classifies as invalid.
    """
    built: list[AVPair] = []
    for raw in pairs:
        if isinstance(raw, AVPair):
            pair = make_pair(raw.attribute, raw.values)
        else:
            attribute, values = raw
            pair = make_pair(attribute, values)
        if pair.attribute is None and not pair.values:
            raise InvalidPairError(f"pair {len(built)} has neither attribute nor values")
        built.append(pair)
    if not built:
        raise InvalidPairError("an annotation needs at least one pair")
    if object_id is None:
        import uuid  # here, so importing the package skips it (and platform)

        object_id = "ann_" + uuid.uuid4().hex[:12]
    return AnnotationObject(object_id, target, tuple(built), replace(meta, action=action))
