"""Exception types raised across the annote-kb engine."""

__all__ = [
    "AllUnresolvedError",
    "AnnoteKBError",
    "CyclicTargetError",
    "DuplicateIdError",
    "EmptyAttributeError",
    "EmptyTermError",
    "InvalidIdError",
    "InvalidObjectError",
    "InvalidPairError",
    "LineBreakError",
    "NoCandidatesError",
    "NotImplicitError",
    "QuerySyntaxError",
    "UnknownIdError",
    "UnresolvedCriterionError",
]


class AnnoteKBError(Exception):
    """Base class for every error this package raises on purpose."""


class EmptyTermError(AnnoteKBError):
    """A value term normalized to the empty string."""


class EmptyAttributeError(AnnoteKBError):
    """An attribute name normalized to the empty string."""


class LineBreakError(AnnoteKBError):
    """A term, attribute or annotator name contains a line break.

    A fact file holds one clause per line, so such text could not be saved
    and read back.
    """


class InvalidPairError(AnnoteKBError):
    """An attribute/value pair is missing both its attribute and its values."""


class InvalidIdError(AnnoteKBError):
    """An id outside model.ID (ASCII letters, digits and underscores),
    which a fact file could not hold."""

    def __init__(self, some_id: str):
        super().__init__(f"invalid id: {some_id!r}")
        self.some_id = some_id


class DuplicateIdError(AnnoteKBError):
    """An object id is already present in the knowledge base."""

    def __init__(self, object_id: str):
        super().__init__(f"object id already present: {object_id}")
        self.object_id = object_id


class CyclicTargetError(AnnoteKBError):
    """Inserting the object would close a cycle in the target chain."""

    def __init__(self, object_id: str):
        super().__init__(f"target chain of {object_id} loops back onto itself")
        self.object_id = object_id


class InvalidObjectError(AnnoteKBError):
    """The object classifies as invalid and cannot be stored."""

    def __init__(self, object_id: str, reason: str = "classifies as invalid"):
        super().__init__(f"cannot store {object_id}: {reason}")
        self.object_id = object_id


class UnknownIdError(AnnoteKBError):
    """The id names neither a stored object nor a known document."""

    def __init__(self, some_id: str):
        super().__init__(f"unknown id: {some_id}")
        self.some_id = some_id


class NotImplicitError(AnnoteKBError):
    """Explicitation was requested for an object that is not implicit."""


class NoCandidatesError(AnnoteKBError):
    """No stored fact can fill in the missing half of a pair."""

    def __init__(self, pair_index: int):
        super().__init__(f"no candidates for pair {pair_index}")
        self.pair_index = pair_index


class QuerySyntaxError(AnnoteKBError):
    """Query text could not be parsed.

    position is a 0-based character offset into the query string; expected
    describes what the parser was looking for there.
    """

    def __init__(self, position: int, expected: str):
        super().__init__(f"at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


class UnresolvedCriterionError(AnnoteKBError):
    """A criterion without an attribute reached evaluation unrewritten."""


class AllUnresolvedError(AnnoteKBError):
    """Constrained search could not map any search term to an attribute."""

    def __init__(self, terms: tuple[str, ...]):
        super().__init__("no attribute candidates for: " + ", ".join(terms))
        self.terms = terms
