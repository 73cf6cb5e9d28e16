"""Boolean query language over attribute/value criteria.

Grammar (keywords case-insensitive, French or English):

    expr      := or_expr
    or_expr   := and_expr { OR and_expr }
    and_expr  := unary { AND unary }
    unary     := NOT unary | "(" expr ")" | criterion
    criterion := "(" [ STRING "," ] "[" STRING { "," STRING } "]" ")"
    AND := ET | AND      OR := OU | OR      NOT := NON | NOT

STRING is double-quoted with \\" and \\\\ escapes.  A criterion without the
leading attribute string is *constrained*: it names terms whose attribute
must be inferred (rewrite_constrained) before evaluation.  search_constrained
answers bare terms from the postings, smallest term first; the tree of
rewrite_constrained is its display form, on which evaluate gives the same ids.

A criterion matches an object when one of the object's pairs has the same
attribute and its value terms (ranks ignored) form a superset of the
criterion's terms.  NOT complements within the set of stored objects.
It is evaluated as an exclusion against its sibling operands (ET NON a
subtracts a's hits), so no set of every stored id is ever built.  A
query whose result is itself a complement is cut from the store's cached
sorted_ids(): the runs between the excluded ids, or, when they are a
large share of the base, a filter over the cached ids.
format_query prints the canonical form, with only the parentheses that
precedence and nesting require; it parses back to the same tree:
parse_query(format_query(e)) == e.

Query text is split into strings by one findall, as fact lines are, and
the parser reads that list by index up to an empty end sentinel, checking
each token before it reads the next.  Offsets are found only for a refused
query, and a stray quote or word anywhere in it is reported before the
parser's complaint.

The parser keeps its open parentheses on an explicit stack.  Every other
reader of a tree (evaluate, format_query, and repr, == and hash of its
nodes) folds the one pre-order stream of operands that _walk yields from
one explicit stack, where a chain of NON adds only a count, so a query of
any depth parses, evaluates, prints and compares in time linear in its size.
"""

from __future__ import annotations

__all__ = [
    "And",
    "Criterion",
    "Leaf",
    "Not",
    "Or",
    "QueryExpr",
    "RewriteReport",
    "evaluate",
    "format_query",
    "matches",
    "parse_query",
    "rewrite_constrained",
    "search_constrained",
    "stored_list_rewrite",
]

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import filterfalse
from typing import Union

from .errors import (
    AllUnresolvedError,
    EmptyAttributeError,
    EmptyTermError,
    LineBreakError,
    QuerySyntaxError,
    UnresolvedCriterionError,
)
from .model import (
    AnnotationObject,
    AttributeName,
    Term,
    _check_one_line,
    _term_tuple,
    covers,
    normalize_attribute,
    normalize_term,
)
from .quoting import QUOTED, format_values, quote, quote_error, unquote
from .store import KnowledgeBase


@dataclass(frozen=True, slots=True)
class Criterion:
    """attribute is None for a constrained criterion (attribute unknown).
    Any iterable of terms is kept as a tuple, and a bare str raises
    TypeError.  A term holding a line break raises LineBreakError: query
    text cannot carry one, so format_query could not print it."""

    attribute: AttributeName | None
    values: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _term_tuple(self.values))
        for term in self.values:
            _check_one_line(term, "term")


@dataclass(frozen=True, slots=True)
class Leaf:
    criterion: Criterion


class _Node:
    """==, hash and repr of ET, OU and NON read _walk, so a tree nested
    deeper than the interpreter's stack still compares and prints."""

    __slots__ = ()

    def __repr__(self) -> str:
        """The text dataclass would generate, such as Not(child=Leaf(...))."""
        out: list[str] = []
        closers: list[str] = []  # of each open ET/OU node
        for index, nots, node in _walk(self):
            if index < 0:
                out.append(closers.pop())
                continue
            if index:
                out.append(", ")
            out.append("Not(child=" * nots)
            if isinstance(node, (And, Or)):
                out.append(f"{node.__class__.__qualname__}(children=(")
                closers.append("))" + ")" * nots)
            else:
                out.append(repr(node) + ")" * nots)
        return "".join(out)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _shape(self) == _shape(other)

    def __hash__(self) -> int:
        return hash(_shape(self))


def _keep_operands(node: And | Or, keyword: str) -> None:
    """Keep node's children as a tuple, as AVPair keeps its values, so a
    list the caller changes later cannot change the tree."""
    object.__setattr__(node, "children", tuple(node.children))
    if len(node.children) < 2:
        raise ValueError(f"{keyword} needs at least two operands")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(_Node):
    children: tuple["QueryExpr", ...]

    def __post_init__(self) -> None:
        _keep_operands(self, "ET")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(_Node):
    children: tuple["QueryExpr", ...]

    def __post_init__(self) -> None:
        _keep_operands(self, "OU")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(_Node):
    child: "QueryExpr"


QueryExpr = Union[Leaf, And, Or, Not]


def _walk(expr: QueryExpr):
    """The operands of expr in pre-order, as (index among its siblings,
    length of the NON chain above it, the node below that chain), with
    (-1, 0, None) after the operands of each ET/OU node; expr is operand 0.
    A node that is no Leaf, And or Or comes out as it is, for its consumer
    to refuse or to print.  The open ET/OU node is its operands and the
    index of the next one; the nodes above it wait on one explicit stack.
    """
    stack: list[tuple] = []
    operands, index = (expr,), 0
    while True:
        if index < len(operands):
            node = operands[index]
            nots = 0
            while isinstance(node, Not):
                nots += 1
                node = node.child
            yield index, nots, node
            index += 1
            if isinstance(node, (And, Or)):
                stack.append((operands, index))
                operands, index = node.children, 0
        elif stack:
            yield -1, 0, None
            operands, index = stack.pop()
        else:
            return


def _shape(expr: QueryExpr) -> tuple:
    """_walk's stream with each ET/OU node as its class: the end markers
    make it name exactly one tree, so trees are equal when theirs are."""
    return tuple(
        (index, nots, node.__class__ if isinstance(node, (And, Or)) else node)
        for index, nots, node in _walk(expr)
    )


_KEYWORDS = {"et": "AND", "and": "AND", "ou": "OR", "or": "OR", "non": "NOT", "not": "NOT"}

# A well-formed string, punctuation, a word, or a '"' that opens no
# well-formed string; whitespace between tokens is skipped.  No capture
# group, so findall returns the tokens themselves.
_TOKEN = re.compile(QUOTED.pattern + r'|[()\[\],]|[^\s()\[\],"]+|"')


class _Refused(Exception):
    """Args: the index of the refused token and what was expected there."""


def _is_string(tok: str) -> bool:
    return tok[:1] == '"' and len(tok) > 1


def _criterion(toks: list[str], i: int) -> tuple[Leaf, int]:
    """The leaf of the criterion after the '(' at toks[i - 1], and the index
    past its ')'."""
    attribute = None
    if toks[i] != "[":  # the attribute string
        try:
            attribute = normalize_attribute(unquote(toks[i]))
        except EmptyAttributeError:
            raise _Refused(i, "a non-blank attribute")
        if toks[i + 1] != ",":
            raise _Refused(i + 1, "','")
        i += 2
        if toks[i] != "[":
            raise _Refused(i, "'['")
    terms: list[Term] = []
    while True:
        i += 1
        if not _is_string(toks[i]):
            raise _Refused(i, "a quoted term")
        try:
            terms.append(normalize_term(unquote(toks[i])))
        except EmptyTermError:
            raise _Refused(i, "a non-blank term")
        except LineBreakError:
            raise _Refused(i, "a term without line breaks")
        i += 1
        if toks[i] != ",":
            break
    if toks[i] != "]":
        raise _Refused(i, "']'")
    if toks[i + 1] != ")":
        raise _Refused(i + 1, "')'")
    return Leaf(Criterion(attribute, tuple(terms))), i + 2


def _parse(toks: list[str]) -> QueryExpr:
    """The whole query, up to the sentinel.

    Each open parenthesis is a frame on an explicit stack, not a call:
    the OU operands read so far, the ET operands of the OU operand being
    read, and the count of NON read before the next operand.
    """
    frames: list[tuple[list[QueryExpr], list[QueryExpr], int]] = []
    ors: list[QueryExpr] = []
    ands: list[QueryExpr] = []
    nots = 0
    i = 0
    while True:
        if toks[i] != "(":
            if _KEYWORDS.get(toks[i].casefold()) != "NOT":
                raise _Refused(i, "'(' or NON")
            nots += 1
            i += 1
            continue
        i += 1
        # A criterion continues with a string or a bracket; anything else
        # is a parenthesized sub-expression.
        if toks[i] != "[" and not _is_string(toks[i]):
            frames.append((ors, ands, nots))
            ors, ands, nots = [], [], 0
            continue
        expr, i = _criterion(toks, i)
        # expr is a whole operand; each ')' after it closes a frame, whose
        # group is in turn an operand of the frame below.
        while True:
            for _ in range(nots):
                expr = Not(expr)
            ands.append(expr)
            nots = 0
            kind = _KEYWORDS.get(toks[i].casefold())
            if kind == "AND":
                break
            ors.append(ands[0] if len(ands) == 1 else And(tuple(ands)))
            ands = []
            if kind == "OR":
                break
            expr = ors[0] if len(ors) == 1 else Or(tuple(ors))
            if not frames:
                if toks[i]:
                    raise _Refused(i, "end of query")
                return expr
            if toks[i] != ")":
                raise _Refused(i, "')'")
            i += 1
            ors, ands, nots = frames.pop()
        i += 1  # the ET or OU


def parse_query(text: str) -> QueryExpr:
    """Parse query text, normalizing attributes and terms.

    Raises QuerySyntaxError carrying the 0-based offset of the problem and
    a description of what was expected there.
    """
    toks = _TOKEN.findall(text)
    toks.append("")  # the sentinel marking the end of the query
    try:
        return _parse(toks)
    except _Refused as refused:
        index, expected = refused.args
    # A stray quote or word anywhere comes before the parser's complaint.
    starts = []
    for match in _TOKEN.finditer(text):
        tok, pos = match.group(), match.start()
        if tok == '"':
            raise QuerySyntaxError(*quote_error(text, pos))
        if tok[0] not in '()[],"' and tok.casefold() not in _KEYWORDS:
            raise QuerySyntaxError(pos, f"ET/OU/NON keyword, got {tok!r}")
        starts.append(pos)
    raise QuerySyntaxError(starts[index] if index < len(starts) else len(text), expected)


def format_query(expr: QueryExpr) -> str:
    """Canonical text for a query tree; parse_query inverts it exactly."""
    out: list[str] = []
    frames: list[tuple[bool, str]] = []  # (is OU, closer) of each open ET/OU node
    for index, nots, node in _walk(expr):
        if index < 0:
            out.append(frames.pop()[1])
            continue
        if index:
            out.append(" OU " if frames[-1][0] else " ET ")
        if nots:
            out.append("NON " * nots)
        if isinstance(node, Leaf):
            criterion = node.criterion
            terms = ", ".join(map(quote, criterion.values))
            attribute = criterion.attribute
            out.append(f"([{terms}])" if attribute is None else f"({quote(attribute)}, [{terms}])")
        elif isinstance(node, (And, Or)):
            is_or = isinstance(node, Or)
            # NON binds tighter than ET, and ET tighter than OU; a node nested
            # in its own kind keeps its parens so the tree keeps its shape.
            parens = nots or frames and (is_or or not frames[-1][0])
            out.append("(" if parens else "")
            frames.append((is_or, ")" if parens else ""))
        else:
            raise TypeError(f"not a query expression: {node!r}")
    return "".join(out)


def _resolved(criterion: Criterion) -> AttributeName:
    """The criterion's attribute.  A constrained criterion cannot be
    matched directly: UnresolvedCriterionError."""
    if criterion.attribute is None:
        raise UnresolvedCriterionError(
            "criterion has no attribute; rewrite it with rewrite_constrained first"
        )
    return criterion.attribute


def matches(obj: AnnotationObject, criterion: Criterion) -> bool:
    """True when one pair of obj covers the criterion.

    The pair must carry the criterion's attribute and its value terms
    (ranks ignored) must include every criterion term.  Constrained
    criteria cannot be matched directly: UnresolvedCriterionError.
    """
    return covers(obj, _resolved(criterion), set(criterion.values))


def _eval(kb: KnowledgeBase, expr: QueryExpr) -> tuple[set[str], bool]:
    """(ids, complemented): the ids, or every stored object except them.

    Every returned set is fresh and belongs to the caller (covering()
    copies the postings), so the set algebra below works in place.
    """
    # ET keeps the intersection of its plain operands minus the union of its
    # complemented ones.  OU is the De Morgan dual, a OU b == NON (NON a ET
    # NON b): plain and complemented operands swap roles, and so does the
    # result.  Operands are folded in as they come, so each one's set is
    # freed once merged, and every operand is evaluated, so a constrained
    # leaf anywhere raises.  The open ET/OU node is whether it is an OU,
    # whether it is complemented, and the kept and dropped sets so far; the
    # nodes above it wait on stack.  The query is the one operand of a plain
    # ET at the bottom.
    stack: list[tuple] = []
    is_or, node_complemented, kept, dropped = False, False, None, None
    for index, nots, node in _walk(expr):
        if index < 0:
            if kept is None:  # NON a ET NON b == NON (a OU b)
                ids, complemented = dropped, node_complemented == is_or
            else:
                if dropped:
                    kept = kept - dropped  # walks the smaller side; -= would walk dropped
                ids, complemented = kept, node_complemented != is_or
            is_or, node_complemented, kept, dropped = stack.pop()
        elif isinstance(node, Leaf):
            criterion = node.criterion
            ids, complemented = kb.covering(_resolved(criterion), criterion.values), nots % 2 == 1
        elif isinstance(node, (And, Or)):
            stack.append((is_or, node_complemented, kept, dropped))
            is_or, node_complemented = isinstance(node, Or), nots % 2 == 1
            kept = dropped = None
            continue
        else:
            raise TypeError(f"not a query expression: {node!r}")
        if complemented == is_or:
            if kept is None:
                kept = ids
            else:
                kept &= ids  # walks the smaller side
        elif dropped is None:
            dropped = ids
        else:
            dropped |= ids
    return (dropped, True) if kept is None else (kept, False)


# Past this share of the stored ids, a complement is cut by one set lookup
# per stored id rather than one bisect per excluded id, which costs more
# (measured with CPython 3.11 at 2k and 20k objects).
_FILTER_SHARE = 0.05


def evaluate(kb: KnowledgeBase, expr: QueryExpr) -> list[str]:
    """Ids of objects satisfying expr, sorted ascending.

    NOT is the complement within the stored objects (closed world).
    Raises UnresolvedCriterionError if a constrained criterion remains.
    """
    ids, complemented = _eval(kb, expr)
    if not complemented:
        return sorted(ids)
    every = kb.sorted_ids()
    if len(ids) > len(every) * _FILTER_SHARE:
        return list(filterfalse(ids.__contains__, every))
    # ids holds stored ids only, so each bisect lands on its id, and the
    # result is the runs of every between those positions.
    kept: list[str] = []
    start = 0
    for cut in sorted(bisect_left(every, oid) for oid in ids):
        kept += every[start:cut]
        start = cut + 1
    kept += every[start:]
    return kept


@dataclass(frozen=True, slots=True)
class RewriteReport:
    """Outcome of rewriting constrained terms into an evaluable query."""

    rewritten: QueryExpr
    unresolved_terms: tuple[Term, ...]
    per_term_attributes: dict[Term, tuple[AttributeName, ...]]


def _resolve_terms(kb: KnowledgeBase, terms: list[str]) -> tuple[dict, tuple[Term, ...]]:
    """Each distinct normalized term, in input order, with the store's own
    {attribute: ids} postings of it ({} for none; never change them), and
    the unresolved terms.  Raises TypeError for a bare str, ValueError for
    no terms and AllUnresolvedError when not a single term resolves."""
    found = {term: kb.postings.get(term, {}) for term in map(normalize_term, _term_tuple(terms))}
    unresolved = tuple(term for term, by_attribute in found.items() if not by_attribute)
    if len(unresolved) == len(found):
        raise AllUnresolvedError(unresolved)
    return found, unresolved


def rewrite_constrained(kb: KnowledgeBase, terms: list[str]) -> RewriteReport:
    """Rewrite bare terms into an attribute-resolved conjunction.

    Each term becomes a disjunction of (attribute, [term]) criteria, one
    per attribute in the term's postings, largest posting first and then
    by name, as infer_attributes ranks one term (a lone attribute stays
    bare); the rewritten query is the conjunction of the resolved terms
    in input order (a lone term stays bare).  Terms under no attribute
    are left out and listed in unresolved_terms.  Duplicate input terms
    are processed once.

    Raises AllUnresolvedError when not a single term resolves.
    """
    found, unresolved = _resolve_terms(kb, terms)
    per_term: dict[Term, tuple[AttributeName, ...]] = {}
    parts: list[QueryExpr] = []
    for term, by_attribute in found.items():
        ranked = tuple(sorted(by_attribute, key=lambda a: (-len(by_attribute[a]), a)))
        per_term[term] = ranked
        if ranked:
            leaves = [Leaf(Criterion(attribute, (term,))) for attribute in ranked]
            parts.append(leaves[0] if len(leaves) == 1 else Or(tuple(leaves)))
    rewritten = parts[0] if len(parts) == 1 else And(tuple(parts))
    return RewriteReport(rewritten, unresolved, per_term)


def search_constrained(kb: KnowledgeBase, terms: list[str], strict: bool = True) -> list[str]:
    """Ids of objects holding every bare term under some attribute, sorted.

    Answered from the postings, with no query tree: the union of the
    postings of the term with the fewest ids is filtered through each next
    term, smallest first, until it is empty; no posting is changed.  Terms
    are read as in rewrite_constrained, whose tree evaluates to the same
    ids.  In strict mode any unresolved term empties the result; in lenient
    mode it is dropped.  Raises AllUnresolvedError when none resolves.
    """
    found, unresolved = _resolve_terms(kb, terms)
    if strict and unresolved:
        return []
    by_size = [list(by_attribute.values()) for by_attribute in found.values() if by_attribute]
    by_size.sort(key=lambda postings: sum(map(len, postings)))
    ids = set().union(*by_size[0])
    for postings in by_size[1:]:
        if not ids:
            break
        ids = set().union(*(ids & posting for posting in postings))
    return sorted(ids)


def stored_list_rewrite(kb: KnowledgeBase, report: RewriteReport) -> str:
    """Render a rewrite with each attribute's full stored value list.

    Display form only: where the canonical rewrite shows (attribute,
    [term]), this shows the complete value list (ranks included) of the
    covering pair of the smallest-id object holding the term there, the
    way the evidence is stored in the base.
    """
    def leaf_text(term: Term, attribute: AttributeName) -> str:
        pairs = kb.objects[min(kb.postings[term][attribute])].pairs  # one covers the term
        pair = next(p for p in pairs if p.attribute == attribute and term in p.terms())
        return f"({quote(attribute)}, {format_values(pair.values)})"

    parts: list[str] = []
    for term, attributes in report.per_term_attributes.items():
        pieces = [leaf_text(term, attribute) for attribute in attributes]
        if pieces:  # an unresolved term has none
            parts.append(pieces[0] if len(pieces) == 1 else "(" + " OU ".join(pieces) + ")")
    return " ET ".join(parts)
