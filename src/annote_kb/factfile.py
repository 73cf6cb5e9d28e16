"""Line-oriented fact file format for a knowledge base.

    % comment (full line)
    annotation(<id>, <attribute>, [<value>{, <value>}], <target-id>).
    document(<id>, primary|secondary|tertiary).
    annotator(<id>, "<name>", veilleur|analyste|decideur|autre).

where <attribute> is a double-quoted string or `_` (attribute unknown),
<value> is "term" or ("term", <integer>) with at most 640 digits, `[]`
means the values are unknown (legal only when the attribute is present),
and ids match model.ID.

Loading is lenient: every rejected line becomes a Diagnostic and loading
continues; diagnostics come in line order.  Consecutive annotation lines
sharing an object id merge into one multi-pair object.  Saving is
canonical: UTF-8, LF endings, normalized spellings, documents then
annotators then annotation lines with objects sorted by id and pairs in
insertion order.  Saving a loaded file is a fixpoint:
save(load(save(kb))) == save(kb).

Each statement line is split into tokens by one regex: a well-formed
quoted string, a word (an id, a keyword or a rank), a negative rank, or
any other single non-space character, so a string left open or badly
escaped is a lone '"' token.  A recursive descent then reads the tokens
by index.  Columns are worked out only for rejected lines.

The format carries no annotation provenance; loaded objects all share
IMPORT_META.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass
from typing import TypeVar

from .errors import AnnoteKBError, EmptyAttributeError, EmptyTermError
from .model import (
    ActionKind,
    AnnotationContext,
    AnnotationMeta,
    AnnotationObject,
    AnnotatorProfile,
    AnnotatorRole,
    AVPair,
    DocumentRecord,
    DocumentTier,
    ID,
    Value,
    normalize_attribute,
    normalize_term,
)
from .quoting import QUOTED, format_quoted_value, quote, quote_error, unquote
from .store import KnowledgeBase

HEADER = "% annote-kb fact base"

IMPORT_META = AnnotationMeta(
    annotator_id="import",
    action=ActionKind.AUTRE,
    context=AnnotationContext.AUTRE,
    timestamp="1970-01-01T00:00:00+00:00",
    action_detail="fact file import",
    context_detail="fact file import",
)

# No capture group, so findall returns the tokens themselves.
_TOKEN = re.compile(f"{QUOTED.pattern}|{ID.pattern}|-[0-9]+|\\S")
# The ASCII characters ID accepts: a token starting with one is a whole id.
_WORD_START = frozenset(filter(ID.fullmatch, map(chr, range(128))))
E = TypeVar("E", DocumentTier, AnnotatorRole)


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One rejected line: 1-based line number, 1-based column, reason."""

    line: int
    column: int
    reason: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.reason}"


@dataclass(frozen=True, slots=True)
class LoadResult:
    kb: KnowledgeBase
    diagnostics: tuple[Diagnostic, ...]
    loaded: int  # objects accepted by this load


class _LineError(Exception):
    """A rejected line; its args are those of _locate after the line."""


def _locate(line: str, index: int, reason: str | None = None, shift: int = 0) -> tuple[int, str]:
    """Column and reason of a line rejected shift characters into token
    index (the end of the line past the last one).  A reason of None
    means a quoted string was expected there."""
    starts = [m.start() for m in _TOKEN.finditer(line)]
    at = starts[index] if index < len(starts) else len(line)
    if reason is None:
        offset, expected = quote_error(line, at)
        return offset + 1, f"expected {expected}"
    return at + shift + 1, reason


# The parsers below read a token list that ends with an empty sentinel.
# Each token is checked before the next is read, so none is read past it.


def _expect(toks: list[str], i: int, punct: str) -> None:
    if toks[i] != punct:
        raise _LineError(i, f"expected '{punct}'")


def _ident(toks: list[str], i: int, what: str) -> str:
    if toks[i][:1] not in _WORD_START:
        raise _LineError(i, f"expected {what}")
    return toks[i]


def _quoted(toks: list[str], i: int) -> str:  # the raw token, quotes included
    tok = toks[i]
    if tok[:1] != '"' or len(tok) == 1:
        raise _LineError(i)
    return tok


# int() and str() refuse more digits than sys.get_int_max_str_digits(),
# which can be set as low as 640, so a rank this long loads and saves
# under any setting.
_RANK_DIGITS = 640


def _rank(toks: list[str], i: int) -> str:
    tok = toks[i]
    digits = tok[1:] if tok[:1] == "-" else tok
    rest = digits.lstrip("0123456789")
    if len(rest) == len(digits):
        raise _LineError(i, "expected integer rank")
    if rest:  # a word such as 12x: the rank ends where the letters start
        raise _LineError(i, "expected ')'", len(tok) - len(rest))
    if len(digits) > _RANK_DIGITS:
        raise _LineError(i, f"rank longer than {_RANK_DIGITS} digits")
    return tok


def _end(toks: list[str], i: int) -> None:
    _expect(toks, i, ".")
    if i + 2 != len(toks):  # anything but the sentinel
        raise _LineError(i + 1, "unexpected text after '.'")


def _keyword(toks: list[str], i: int, what: str, kind: type[E]) -> E:
    word = _ident(toks, i, what)
    try:
        return kind(word.lower())
    except ValueError:
        raise _LineError(i, f"unknown {what}: {word}", len(word))


def _document(toks: list[str]) -> tuple[str, DocumentTier]:
    _expect(toks, 1, "(")
    doc_id = _ident(toks, 2, "document id")
    _expect(toks, 3, ",")
    tier = _keyword(toks, 4, "document tier", DocumentTier)
    _expect(toks, 5, ")")
    _end(toks, 6)
    return doc_id, tier


def _annotator(toks: list[str]) -> AnnotatorProfile:
    _expect(toks, 1, "(")
    annotator_id = _ident(toks, 2, "annotator id")
    _expect(toks, 3, ",")
    name = unquote(_quoted(toks, 4))
    _expect(toks, 5, ",")
    role = _keyword(toks, 6, "annotator role", AnnotatorRole)
    _expect(toks, 7, ")")
    _end(toks, 8)
    return AnnotatorProfile(annotator_id, name, role)


class _Loader:
    """Merges one fact text into a knowledge base, collecting diagnostics."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.diagnostics: list[Diagnostic] = []
        self.loaded = 0
        # Normalized so far in this load, by raw token (and raw rank token).
        self.attributes: dict[str, str] = {}
        self.values: dict[tuple[str, str | None], Value] = {}
        # Pending group of consecutive annotation lines sharing an id.
        self.group_id: str | None = None
        self.group_target: str | None = None
        self.group_pairs: list[AVPair] = []
        self.group_lines: list[int] = []
        # Document lines are declared once all objects are known, as an
        # annotation further down may take a declared id.
        self.documents: list[tuple[int, str, DocumentTier]] = []

    def reject(self, lineno: int, column: int, reason: str) -> None:
        self.diagnostics.append(Diagnostic(lineno, column, reason))

    def attribute(self, toks: list[str], i: int) -> str | None:
        tok = toks[i]
        if tok == "_":
            return None
        if tok[:1] == "_":  # _x: the attribute is the '_', and a ',' is missing
            raise _LineError(i, "expected ','", 1)
        name = self.attributes.get(tok)
        if name is None:
            try:
                name = normalize_attribute(unquote(_quoted(toks, i)))
            except EmptyAttributeError:
                raise _LineError(i, "attribute must not be blank")
            self.attributes[tok] = name
        return name

    def value(self, toks: list[str], i: int) -> tuple[Value, int]:
        """The value starting at token i, and the index just past it."""
        if toks[i] == "(":
            term = _quoted(toks, i + 1)
            _expect(toks, i + 2, ",")
            rank = _rank(toks, i + 3)
            _expect(toks, i + 4, ")")
            end = i + 5
        else:
            term, rank, end = _quoted(toks, i), None, i + 1
        value = self.values.get((term, rank))
        if value is None:
            try:
                value = Value(normalize_term(unquote(term)), None if rank is None else int(rank))
            except EmptyTermError:
                raise _LineError(i, "value term must not be blank")
            self.values[term, rank] = value
        return value, end

    def annotation(self, toks: list[str]) -> tuple[str, AVPair, str]:
        _expect(toks, 1, "(")
        object_id = _ident(toks, 2, "object id")
        _expect(toks, 3, ",")
        attribute = self.attribute(toks, 4)
        _expect(toks, 5, ",")
        _expect(toks, 6, "[")
        values: list[Value] = []
        i = 7
        if toks[i] != "]":
            value, i = self.value(toks, i)
            values.append(value)
            while toks[i] == ",":
                value, i = self.value(toks, i + 1)
                values.append(value)
        _expect(toks, i, "]")
        _expect(toks, i + 1, ",")
        target = _ident(toks, i + 2, "target id")
        _expect(toks, i + 3, ")")
        _end(toks, i + 4)
        return object_id, AVPair(attribute, tuple(values)), target

    def flush_group(self) -> None:
        if self.group_id is None:
            return
        try:
            self.kb.insert(AnnotationObject(
                self.group_id, self.group_target, tuple(self.group_pairs), IMPORT_META))
            self.loaded += 1
        except AnnoteKBError as exc:  # DuplicateId / CyclicTarget / InvalidObject
            for lineno in self.group_lines:  # each dropped line is reported
                self.reject(lineno, 1, str(exc))
        self.group_id = self.group_target = None
        self.group_pairs = []

    def fact_line(self, lineno: int, object_id: str, pair: AVPair, target: str) -> None:
        if pair.attribute is None and not pair.values:
            self.reject(lineno, 1, "invalid object: pair has neither attribute nor values")
            return
        if object_id == target:
            self.reject(lineno, 1, f"annotation {object_id} cannot annotate itself")
            return
        if object_id == self.group_id:
            if target != self.group_target:
                reason = f"conflicting target for {object_id}: {target} after {self.group_target}"
                self.reject(lineno, 1, reason)
                return
            self.group_pairs.append(pair)
            self.group_lines.append(lineno)
            return
        self.flush_group()
        self.group_id = object_id
        self.group_target = target
        self.group_pairs = [pair]
        self.group_lines = [lineno]

    def declare(self, lineno: int, doc_id: str, tier: DocumentTier) -> None:
        """Register a document through the store's tier rules, or reject the line."""
        try:
            self.kb.add_document(DocumentRecord(doc_id, tier))
        except ValueError as exc:
            self.reject(lineno, 1, str(exc))

    def annotator_line(self, lineno: int, profile: AnnotatorProfile) -> None:
        if profile.id in self.kb.annotators:
            self.reject(lineno, 1, f"annotator {profile.id} already declared; keeping the first")
            return
        self.kb.add_annotator(profile)

    def finish(self) -> None:
        self.flush_group()
        for lineno, doc_id, tier in self.documents:
            self.declare(lineno, doc_id, tier)
        # Groups are reported when flushed and documents only now: restore line order.
        self.diagnostics.sort(key=lambda d: d.line)

    def run(self, text: str) -> None:
        tokenize = _TOKEN.findall
        for lineno, line in enumerate(text.splitlines(), start=1):
            toks = tokenize(line)
            if not toks or toks[0] == "%":
                continue
            toks.append("")  # the sentinel marking the end of the line
            head = toks[0]
            try:
                if head == "annotation":
                    self.fact_line(lineno, *self.annotation(toks))
                elif head == "document":
                    self.documents.append((lineno, *_document(toks)))
                elif head == "annotator":
                    self.annotator_line(lineno, _annotator(toks))
                else:
                    _ident(toks, 0, "a clause name")
                    self.reject(lineno, 1, f"unknown clause: {head}")
            except _LineError as exc:
                self.reject(lineno, *_locate(line, *exc.args))
        self.finish()


def load_facts(text: str) -> LoadResult:
    """Parse fact text into a fresh knowledge base.

    Never raises on malformed lines: each one is reported in
    result.diagnostics and the rest of the file still loads.
    """
    return load_facts_into(KnowledgeBase(), text)


def load_facts_into(kb: KnowledgeBase, text: str) -> LoadResult:
    """Merge fact text into an existing base (see load_facts).

    Python's cyclic garbage collector is paused while the text loads: the
    loader makes millions of containers and no cyclic garbage, so its
    collections would find nothing.  The caller's setting is restored
    afterwards, also when the load raises.
    """
    loader = _Loader(kb)
    collecting = gc.isenabled()
    gc.disable()
    try:
        loader.run(text)
    finally:
        if collecting:
            gc.enable()
    return LoadResult(kb, tuple(loader.diagnostics), loader.loaded)


def save_facts(kb: KnowledgeBase) -> str:
    """Serialize a knowledge base to canonical fact text.

    Tertiary documents are the annotations themselves, so only the
    records in kb.documents are written as document lines.  Each distinct
    attribute and term is quoted once per call.  Ids are written as they
    are: the model's constructors only accept ids a fact file can hold.
    """
    lines = [HEADER]
    for doc_id, record in sorted(kb.documents.items()):
        lines.append(f"document({doc_id}, {record.tier.value}).")
    for annotator_id, profile in sorted(kb.annotators.items()):
        lines.append(f"annotator({annotator_id}, {quote(profile.name)}, {profile.role.value}).")
    # Quoted so far in this call; keyed by the str, whose hash is cached.
    attributes: dict[str | None, str] = {None: "_"}
    terms: dict[str, str] = {}
    objects = kb.objects
    for object_id in kb.sorted_ids():
        obj = objects[object_id]
        start = f"annotation({object_id}, "
        end = f", {obj.target})."
        for pair in obj.pairs:
            attr = attributes.get(pair.attribute)
            if attr is None:
                attr = attributes[pair.attribute] = quote(pair.attribute)
            values = []
            for value in pair.values:
                term = terms.get(value.term)
                if term is None:
                    term = terms[value.term] = quote(value.term)
                values.append(format_quoted_value(term, value.rank))
            lines.append(f"{start}{attr}, [{', '.join(values)}]{end}")
    return "\n".join(lines) + "\n"
