"""Line-oriented fact file format for a knowledge base.

    % comment (full line)
    annotation(<id>, <attribute>, [<value>{, <value>}], <target-id>).
    document(<id>, primary|secondary|tertiary).
    annotator(<id>, "<name>", veilleur|analyste|decideur|autre).

where <attribute> is a double-quoted string or `_` (attribute unknown),
<value> is "term" or ("term", <integer>), `[]` means the values are unknown
(legal only when the attribute is present), and ids match [A-Za-z0-9_]+.

Loading is lenient: every rejected line becomes a Diagnostic and loading
continues; consecutive annotation lines sharing an object id merge into one
multi-pair object.  Saving is strict and canonical: UTF-8, LF endings,
normalized spellings, documents then annotators then annotation lines with
objects sorted by id and pairs in insertion order.  Saving a loaded file is
a fixpoint: save(load(save(kb))) == save(kb).

The format carries no annotation provenance; loaded objects all share
IMPORT_META.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    Value,
    normalize_attribute,
    normalize_term,
)
from .quoting import format_values, quote, scan_quoted
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

_IDENT = re.compile(r"[A-Za-z0-9_]+")
_INTEGER = re.compile(r"-?[0-9]+")


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
    def __init__(self, column: int, reason: str):
        super().__init__(reason)
        self.column = column
        self.reason = reason


class _Cursor:
    """Tokenizing cursor over one statement line."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, reason: str, at: int | None = None) -> _LineError:
        return _LineError((self.pos if at is None else at) + 1, reason)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def ident(self, what: str) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def quoted(self) -> str:
        self.skip_ws()
        try:
            value, end = scan_quoted(self.text, self.pos)
        except ValueError as exc:
            offset, reason = exc.args
            raise _LineError(offset + 1, f"expected {reason}")
        self.pos = end
        return value

    def integer(self) -> int:
        self.skip_ws()
        m = _INTEGER.match(self.text, self.pos)
        if not m:
            raise self.error("expected integer rank")
        self.pos = m.end()
        return int(m.group())

    def end_statement(self) -> None:
        self.expect(".")
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error("unexpected text after '.'")


@dataclass(slots=True)
class _FactLine:
    object_id: str
    pair: AVPair
    target: str


def _parse_fact(cur: _Cursor) -> _FactLine:
    cur.expect("(")
    object_id = cur.ident("object id")
    cur.expect(",")
    cur.skip_ws()
    if cur.peek() == "_":
        cur.pos += 1
        attribute = None
    else:
        at = cur.pos
        raw = cur.quoted()
        try:
            attribute = normalize_attribute(raw)
        except EmptyAttributeError:
            raise _LineError(at + 1, "attribute must not be blank")
    cur.expect(",")
    cur.expect("[")
    values: list[Value] = []
    cur.skip_ws()
    if cur.peek() != "]":
        while True:
            cur.skip_ws()
            at = cur.pos
            if cur.peek() == "(":
                cur.pos += 1
                term_raw = cur.quoted()
                cur.expect(",")
                rank = cur.integer()
                cur.expect(")")
            else:
                term_raw = cur.quoted()
                rank = None
            try:
                values.append(Value(normalize_term(term_raw), rank))
            except EmptyTermError:
                raise _LineError(at + 1, "value term must not be blank")
            cur.skip_ws()
            if cur.peek() != ",":
                break
            cur.pos += 1
    cur.expect("]")
    cur.expect(",")
    target = cur.ident("target id")
    cur.expect(")")
    cur.end_statement()
    if attribute is None and not values:
        raise _LineError(1, "invalid object: pair has neither attribute nor values")
    return _FactLine(object_id, AVPair(attribute, tuple(values)), target)


def _parse_document(cur: _Cursor) -> tuple[str, DocumentTier]:
    cur.expect("(")
    doc_id = cur.ident("document id")
    cur.expect(",")
    word = cur.ident("document tier")
    try:
        tier = DocumentTier(word.lower())
    except ValueError:
        raise cur.error(f"unknown document tier: {word}")
    cur.expect(")")
    cur.end_statement()
    return doc_id, tier


def _parse_annotator(cur: _Cursor) -> AnnotatorProfile:
    cur.expect("(")
    annotator_id = cur.ident("annotator id")
    cur.expect(",")
    name = cur.quoted()
    cur.expect(",")
    word = cur.ident("annotator role")
    try:
        role = AnnotatorRole(word.lower())
    except ValueError:
        raise cur.error(f"unknown annotator role: {word}")
    cur.expect(")")
    cur.end_statement()
    return AnnotatorProfile(annotator_id, name, role)


class _Loader:
    """Merges one fact text into a knowledge base, collecting diagnostics."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.diagnostics: list[Diagnostic] = []
        self.loaded = 0
        # Pending group of consecutive annotation lines sharing an id.
        self.group_id: str | None = None
        self.group_target: str | None = None
        self.group_pairs: list[AVPair] = []
        self.group_line = 0
        # Tier declarations are re-checked once all objects are known:
        # tertiary needs an annotation id, other tiers must not name one.
        self.pending_tertiary: list[tuple[int, str]] = []
        self.pending_nontertiary: list[tuple[int, str]] = []

    def reject(self, lineno: int, column: int, reason: str) -> None:
        self.diagnostics.append(Diagnostic(lineno, column, reason))

    def flush_group(self) -> None:
        if self.group_id is None:
            return
        obj = AnnotationObject(
            self.group_id, self.group_target, tuple(self.group_pairs), IMPORT_META
        )
        try:
            self.kb.insert(obj)
            self.loaded += 1
        except AnnoteKBError as exc:  # DuplicateId / CyclicTarget / InvalidObject
            self.reject(self.group_line, 1, str(exc))
        self.group_id = None
        self.group_target = None
        self.group_pairs = []

    def fact_line(self, lineno: int, fact: _FactLine) -> None:
        if fact.object_id == fact.target:
            self.reject(lineno, 1, f"annotation {fact.object_id} cannot annotate itself")
            return
        if fact.object_id == self.group_id:
            if fact.target != self.group_target:
                self.reject(
                    lineno,
                    1,
                    f"conflicting target for {fact.object_id}: "
                    f"{fact.target} after {self.group_target}",
                )
                return
            self.group_pairs.append(fact.pair)
            return
        self.flush_group()
        self.group_id = fact.object_id
        self.group_target = fact.target
        self.group_pairs = [fact.pair]
        self.group_line = lineno

    def document_line(self, lineno: int, doc_id: str, tier: DocumentTier) -> None:
        if tier is DocumentTier.TERTIARY:
            self.pending_tertiary.append((lineno, doc_id))
            return
        if doc_id in self.kb.objects:
            self.reject(lineno, 1, f"{doc_id} is an annotation and stays tertiary")
            return
        old = self.kb.documents.get(doc_id)
        ref = old.content_ref if old else None
        self.kb.documents[doc_id] = DocumentRecord(doc_id, tier, ref)
        self.pending_nontertiary.append((lineno, doc_id))

    def annotator_line(self, lineno: int, profile: AnnotatorProfile) -> None:
        if profile.id in self.kb.annotators:
            self.reject(lineno, 1, f"annotator {profile.id} already declared; keeping the first")
            return
        self.kb.add_annotator(profile)

    def finish(self) -> None:
        self.flush_group()
        for lineno, doc_id in self.pending_tertiary:
            if doc_id not in self.kb.objects:
                self.reject(lineno, 1, f"{doc_id} declared tertiary but is not an annotation")
        for lineno, doc_id in self.pending_nontertiary:
            if doc_id in self.kb.objects:
                self.reject(lineno, 1, f"{doc_id} is an annotation and stays tertiary")

    def run(self, text: str) -> None:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.rstrip("\r")
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            cur = _Cursor(line)
            try:
                head = cur.ident("a clause name")
                if head == "annotation":
                    self.fact_line(lineno, _parse_fact(cur))
                elif head == "document":
                    doc_id, tier = _parse_document(cur)
                    self.document_line(lineno, doc_id, tier)
                elif head == "annotator":
                    self.annotator_line(lineno, _parse_annotator(cur))
                else:
                    raise cur.error(f"unknown clause: {head}", at=0)
            except _LineError as exc:
                self.reject(lineno, exc.column, exc.reason)
        self.finish()


def load_facts(text: str) -> LoadResult:
    """Parse fact text into a fresh knowledge base.

    Never raises on malformed lines: each one is reported in
    result.diagnostics and the rest of the file still loads.
    """
    return load_facts_into(KnowledgeBase(), text)


def load_facts_into(kb: KnowledgeBase, text: str) -> LoadResult:
    """Merge fact text into an existing base (see load_facts)."""
    loader = _Loader(kb)
    loader.run(text)
    return LoadResult(kb, tuple(loader.diagnostics), loader.loaded)


_SAVE_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")


def _checked_id(some_id: str) -> str:
    if not _SAVE_IDENT.match(some_id):
        raise ValueError(f"id not representable in a fact file: {some_id!r}")
    return some_id


def save_facts(kb: KnowledgeBase) -> str:
    """Serialize a knowledge base to canonical fact text.

    Tertiary document records are implied by the annotation lines and are
    not written.  Raises ValueError if an id cannot be represented.
    """
    lines = [HEADER]
    for doc_id in sorted(kb.documents):
        record = kb.documents[doc_id]
        if record.tier is DocumentTier.TERTIARY:
            continue
        lines.append(f"document({_checked_id(doc_id)}, {record.tier.value}).")
    for annotator_id in sorted(kb.annotators):
        profile = kb.annotators[annotator_id]
        lines.append(
            f"annotator({_checked_id(annotator_id)}, "
            f"{quote(profile.name)}, {profile.role.value})."
        )
    for object_id in sorted(kb.objects):
        obj = kb.objects[object_id]
        for pair in obj.pairs:
            attr = "_" if pair.attribute is None else quote(pair.attribute)
            lines.append(
                f"annotation({_checked_id(object_id)}, {attr}, "
                f"{format_values(pair.values)}, {_checked_id(obj.target)})."
            )
    return "\n".join(lines) + "\n"
