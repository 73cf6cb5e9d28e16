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

The loader is one pass.  Lines stream out of a generator that deals with
comments, documents, annotators and rejected lines where they occur and
yields only annotation lines holding a storable pair; itertools.groupby
then gathers consecutive lines with one object id into an object, so a
line the generator swallows does not end a group.  Documents are declared
last, once every object is known, and the diagnostics sorted by line.

Saving remembers, per base, the annotation lines it wrote for each
object, and the next save of that base formats only the objects that are
not the very ones (`is`) it formatted before.  An AnnotationObject is
frozen and its lines depend on its id, target and pairs alone, so a
remembered text cannot go stale.  A copy() starts with nothing remembered.

The format carries no annotation provenance; loaded objects all share
IMPORT_META.
"""

from __future__ import annotations

__all__ = [
    "Diagnostic",
    "IMPORT_META",
    "LoadResult",
    "load_facts",
    "load_facts_into",
    "save_facts",
]

import gc
import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterator, TypeVar
from weakref import WeakKeyDictionary

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
    _RANK_DIGITS,
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

# Per base, what its last save_facts wrote: kb.objects as it was then, and
# the annotation lines of each of those objects, joined.  Plain dicts, not
# (object, text) tuples: a tuple per object is a container the cyclic
# collector counts, and 20k of them start a collection of all that a load
# before the save made.  Weakly keyed, so the text goes with its base; a
# copy() is a new key and starts empty.
_SAVED: WeakKeyDictionary[KnowledgeBase, tuple[dict[str, AnnotationObject], dict[str, str]]] = (
    WeakKeyDictionary()
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


def _attribute(toks: list[str], i: int, attributes: dict[str, str]) -> str | None:
    tok = toks[i]
    if tok == "_":
        return None
    if tok[:1] == "_":  # _x: the attribute is the '_', and a ',' is missing
        raise _LineError(i, "expected ','", 1)
    name = attributes.get(tok)
    if name is None:
        try:
            name = normalize_attribute(unquote(_quoted(toks, i)))
        except EmptyAttributeError:
            raise _LineError(i, "attribute must not be blank")
        attributes[tok] = name
    return name


def _value(toks: list[str], i: int, values: dict[tuple[str, str | None], Value]) -> tuple[Value, int]:
    """The value starting at token i, and the index just past it."""
    if toks[i] == "(":
        term = _quoted(toks, i + 1)
        _expect(toks, i + 2, ",")
        rank = _rank(toks, i + 3)
        _expect(toks, i + 4, ")")
        end = i + 5
    else:
        term, rank, end = _quoted(toks, i), None, i + 1
    value = values.get((term, rank))
    if value is None:
        try:
            value = Value(normalize_term(unquote(term)), None if rank is None else int(rank))
        except EmptyTermError:
            raise _LineError(i, "value term must not be blank")
        values[term, rank] = value
    return value, end


def _annotation(
    toks: list[str], attributes: dict[str, str], values: dict[tuple[str, str | None], Value]
) -> tuple[str, AVPair, str]:
    _expect(toks, 1, "(")
    object_id = _ident(toks, 2, "object id")
    _expect(toks, 3, ",")
    attribute = _attribute(toks, 4, attributes)
    _expect(toks, 5, ",")
    _expect(toks, 6, "[")
    parsed: list[Value] = []
    i = 7
    if toks[i] != "]":
        value, i = _value(toks, i, values)
        parsed.append(value)
        while toks[i] == ",":
            value, i = _value(toks, i + 1, values)
            parsed.append(value)
    _expect(toks, i, "]")
    _expect(toks, i + 1, ",")
    target = _ident(toks, i + 2, "target id")
    _expect(toks, i + 3, ")")
    _end(toks, i + 4)
    return object_id, AVPair(attribute, tuple(parsed)), target


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
    diagnostics: list[Diagnostic] = []
    # Normalized so far in this load, by raw token (and raw rank token).
    attributes: dict[str, str] = {}
    values: dict[tuple[str, str | None], Value] = {}
    # Document lines are declared once all objects are known, as an
    # annotation further down may take a declared id.
    documents: list[tuple[int, str, DocumentTier]] = []

    def annotation_lines() -> Iterator[tuple[int, str, AVPair, str]]:
        """(line, object id, pair, target) of each annotation line holding
        a storable pair; every other line is dealt with here."""
        tokenize = _TOKEN.findall
        for lineno, line in enumerate(text.splitlines(), start=1):
            toks = tokenize(line)
            if not toks or toks[0] == "%":
                continue
            toks.append("")  # the sentinel marking the end of the line
            head = toks[0]
            try:
                if head == "annotation":
                    object_id, pair, target = _annotation(toks, attributes, values)
                    if pair.attribute is None and not pair.values:
                        reason = "invalid object: pair has neither attribute nor values"
                        diagnostics.append(Diagnostic(lineno, 1, reason))
                    elif object_id == target:
                        reason = f"annotation {object_id} cannot annotate itself"
                        diagnostics.append(Diagnostic(lineno, 1, reason))
                    else:
                        yield lineno, object_id, pair, target
                elif head == "document":
                    documents.append((lineno, *_document(toks)))
                elif head == "annotator":
                    profile = _annotator(toks)
                    if profile.id in kb.annotators:
                        reason = f"annotator {profile.id} already declared; keeping the first"
                        diagnostics.append(Diagnostic(lineno, 1, reason))
                    else:
                        kb.add_annotator(profile)
                else:
                    _ident(toks, 0, "a clause name")
                    diagnostics.append(Diagnostic(lineno, 1, f"unknown clause: {head}"))
            except _LineError as exc:
                diagnostics.append(Diagnostic(lineno, *_locate(line, *exc.args)))

    loaded = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        for object_id, group in groupby(annotation_lines(), itemgetter(1)):
            lineno, _, pair, target = next(group)
            lines, pairs = [lineno], [pair]
            for lineno, _, pair, other in group:
                if other != target:
                    reason = f"conflicting target for {object_id}: {other} after {target}"
                    diagnostics.append(Diagnostic(lineno, 1, reason))
                else:
                    lines.append(lineno)
                    pairs.append(pair)
            try:
                kb.insert(AnnotationObject(object_id, target, tuple(pairs), IMPORT_META))
                loaded += 1
            except AnnoteKBError as exc:  # DuplicateId / CyclicTarget / InvalidObject
                for lineno in lines:  # each dropped line is reported
                    diagnostics.append(Diagnostic(lineno, 1, str(exc)))
        for lineno, doc_id, tier in documents:
            try:  # through the store's tier rules
                kb.add_document(DocumentRecord(doc_id, tier))
            except ValueError as exc:
                diagnostics.append(Diagnostic(lineno, 1, str(exc)))
    finally:
        if collecting:
            gc.enable()
    # Groups are reported when inserted and documents only at the end: restore line order.
    diagnostics.sort(key=lambda d: d.line)
    return LoadResult(kb, tuple(diagnostics), loaded)


def save_facts(kb: KnowledgeBase) -> str:
    """Serialize a knowledge base to canonical fact text.

    Tertiary documents are the annotations themselves, so only the
    records in kb.documents are written as document lines.  Each distinct
    attribute and term is quoted once per call.  Ids are written as they
    are: the model's constructors only accept ids a fact file can hold.

    Saving a base again formats only the objects it has not formatted
    before.  A remembered text (see _SAVED) is written only for the very
    object (`is`) it was formatted from, and an AnnotationObject is
    frozen, so the text cannot be stale.
    """
    lines = [HEADER]
    for doc_id, record in sorted(kb.documents.items()):
        lines.append(f"document({doc_id}, {record.tier.value}).")
    for annotator_id, profile in sorted(kb.annotators.items()):
        lines.append(f"annotator({annotator_id}, {quote(profile.name)}, {profile.role.value}).")
    formatted, texts = _SAVED.get(kb) or ({}, {})
    # Quoted so far in this call; keyed by the str, whose hash is cached.
    attributes: dict[str | None, str] = {None: "_"}
    terms: dict[str, str] = {}
    objects = kb.objects
    for object_id in kb.sorted_ids():
        obj = objects[object_id]
        if formatted.get(object_id) is obj:
            lines.append(texts[object_id])
            continue
        start = f"annotation({object_id}, "
        end = f", {obj.target})."
        text = ""
        for pair in obj.pairs:
            attr = attributes.get(pair.attribute)
            if attr is None:
                attr = attributes[pair.attribute] = quote(pair.attribute)
            values = []
            for value in pair.values:
                term = terms.get(value.term)
                if term is None:
                    term = terms[value.term] = quote(value.term)
                # A rankless value is its quoted term (format_quoted_value);
                # skipping the call for it saves about 5% of a full save.
                values.append(term if value.rank is None else format_quoted_value(term, value.rank))
            line = f"{start}{attr}, [{', '.join(values)}]{end}"
            text = f"{text}\n{line}" if text else line
        texts[object_id] = text
        lines.append(text)
    _SAVED[kb] = dict(objects), texts
    return "\n".join(lines) + "\n"
