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
must be inferred (rewrite_constrained) before evaluation.

A criterion matches an object when one of the object's pairs has the same
attribute and its value terms (ranks ignored) form a superset of the
criterion's terms.  NOT complements within the set of stored objects.
It is evaluated as an exclusion against its sibling operands (ET NON a
subtracts a's hits), so no set of every stored id is ever built; only a
query whose result is itself a complement walks the stored ids, once.
format_query prints the canonical form, with only the parentheses that
precedence and nesting require; it parses back to the same tree:
parse_query(format_query(e)) == e, as long as that text stays within
MAX_NESTING levels.

Query text may nest NON and parentheses at most MAX_NESTING levels deep;
deeper text is a QuerySyntaxError.  Trees built through the API may nest
ET/OU up to 2 * (MAX_NESTING + 1) levels, more than any parsed query
reaches; past that, evaluate and format_query raise QueryTooDeepError.
Chains of NON are folded in a loop and may be any length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Union

from .errors import (
    AllUnresolvedError,
    EmptyAttributeError,
    EmptyTermError,
    LineBreakError,
    QuerySyntaxError,
    QueryTooDeepError,
    UnresolvedCriterionError,
)
from .model import (
    AnnotationObject,
    AttributeName,
    Term,
    _check_one_line,
    covers,
    normalize_attribute,
    normalize_term,
)
from .quoting import QUOTED, format_values, quote, quote_error, unquote
from .store import KnowledgeBase


@dataclass(frozen=True, slots=True)
class Criterion:
    """attribute is None for a constrained criterion (attribute unknown).
    A term holding a line break raises LineBreakError: query text cannot
    carry one, so format_query could not print it."""

    attribute: AttributeName | None
    values: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a criterion needs at least one term")
        for term in self.values:
            _check_one_line(term, "term")


@dataclass(frozen=True, slots=True)
class Leaf:
    criterion: Criterion


class _Node:
    """==, hash and repr of ET, OU and NON walk whole trees without
    recursion, so a tree nested deeper than the interpreter's stack still
    compares and prints."""

    __slots__ = ()

    def __repr__(self) -> str:
        """The text dataclass would generate, such as
        Not(child=Leaf(criterion=...)), built with an explicit stack."""
        out: list[str] = []
        stack: list[tuple[bool, object]] = [(False, self)]  # (is text, item)
        while stack:
            is_text, item = stack.pop()
            if is_text:
                out.append(item)
            elif isinstance(item, Not):
                out.append(f"{item.__class__.__qualname__}(child=")
                stack += ((True, ")"), (False, item.child))
            elif isinstance(item, (And, Or)):
                out.append(f"{item.__class__.__qualname__}(children=(")
                stack.append((True, "))"))
                for i, child in enumerate(reversed(item.children)):
                    if i:
                        stack.append((True, ", "))
                    stack.append((False, child))
            else:
                out.append(repr(item))
        return "".join(out)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _preorder(self) == _preorder(other)

    def __hash__(self) -> int:
        return hash(_preorder(self))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(_Node):
    children: tuple["QueryExpr", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("ET needs at least two operands")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(_Node):
    children: tuple["QueryExpr", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("OU needs at least two operands")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(_Node):
    child: "QueryExpr"


QueryExpr = Union[Leaf, And, Or, Not]


def _preorder(expr: QueryExpr) -> tuple:
    """The nodes of expr in pre-order, each ET/OU/NON as its class and
    operand count and anything else as itself.  The count makes the
    sequence name exactly one tree, so trees are equal when theirs are."""
    found: list = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            found += (node.__class__, 1)
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            found += (node.__class__, len(node.children))
            stack.extend(reversed(node.children))
        else:
            found.append(node)
    return tuple(found)


MAX_NESTING = 100  # NON and parenthesis levels allowed in query text
# A parsed tree nests at most one OU and one ET per parenthesis level, plus
# the pair at the top, so no parsed query reaches this many ET/OU levels.
_MAX_TREE_DEPTH = 2 * (MAX_NESTING + 1)


_KEYWORDS = {"et": "AND", "and": "AND", "ou": "OR", "or": "OR", "non": "NOT", "not": "NOT"}
_PUNCT = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    pos: int


# A well-formed string, punctuation, a word, or a '"' that opens no
# well-formed string; whitespace between tokens is skipped.
_TOKEN = re.compile(QUOTED.pattern + r'|[()\[\],]|[^\s()\[\],"]+|"')


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        tok, pos = match.group(), match.start()
        if tok in _PUNCT:
            tokens.append(_Token(_PUNCT[tok], tok, pos))
        elif tok[0] == '"':
            if len(tok) == 1:
                raise QuerySyntaxError(*quote_error(text, pos))
            tokens.append(_Token("STRING", unquote(tok), pos))
        else:
            kind = _KEYWORDS.get(tok.casefold())
            if kind is None:
                raise QuerySyntaxError(pos, f"ET/OU/NON keyword, got {tok!r}")
            tokens.append(_Token(kind, tok, pos))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # NON and grouping parentheses currently open

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self, kind: str, expected: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise QuerySyntaxError(token.pos, expected)
        self.index += 1
        return token

    def parse_expr(self) -> QueryExpr:
        children = [self.parse_and()]
        while self.peek().kind == "OR":
            self.index += 1
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def parse_and(self) -> QueryExpr:
        children = [self.parse_unary()]
        while self.peek().kind == "AND":
            self.index += 1
            children.append(self.parse_unary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def parse_unary(self) -> QueryExpr:
        token = self.peek()
        if token.kind == "NOT":
            self.index += 1
            return Not(self.nested(token, self.parse_unary))
        if token.kind != "LPAREN":
            raise QuerySyntaxError(token.pos, "'(' or NON")
        self.index += 1
        # A criterion continues with a string or a bracket; anything else
        # is a parenthesized sub-expression.
        if self.peek().kind in ("STRING", "LBRACKET"):
            expr = Leaf(self.parse_criterion_tail())
        else:
            expr = self.nested(token, self.parse_expr)
        self.take("RPAREN", "')'")
        return expr

    def nested(self, opener: _Token, parse: Callable[[], QueryExpr]) -> QueryExpr:
        """Run parse one NON or parenthesis level deeper, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise QuerySyntaxError(opener.pos, f"at most {MAX_NESTING} nested NON or parentheses")
        self.depth += 1
        expr = parse()
        self.depth -= 1
        return expr

    def parse_criterion_tail(self) -> Criterion:
        attribute = None
        token = self.peek()
        if token.kind == "STRING":
            self.index += 1
            try:
                attribute = normalize_attribute(token.text)
            except EmptyAttributeError:
                raise QuerySyntaxError(token.pos, "a non-blank attribute")
            self.take("COMMA", "','")
        self.take("LBRACKET", "'['")
        terms: list[Term] = []
        while True:
            token = self.take("STRING", "a quoted term")
            try:
                terms.append(normalize_term(token.text))
            except EmptyTermError:
                raise QuerySyntaxError(token.pos, "a non-blank term")
            except LineBreakError:
                raise QuerySyntaxError(token.pos, "a term without line breaks")
            if self.peek().kind != "COMMA":
                break
            self.index += 1
        self.take("RBRACKET", "']'")
        return Criterion(attribute, tuple(terms))


def parse_query(text: str) -> QueryExpr:
    """Parse query text, normalizing attributes and terms.

    Raises QuerySyntaxError carrying the 0-based offset of the problem and
    a description of what was expected there.
    """
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    parser.take("EOF", "end of query")
    return expr


def _criterion_text(criterion: Criterion) -> str:
    inner = "[" + ", ".join(quote(t) for t in criterion.values) + "]"
    if criterion.attribute is None:
        return f"({inner})"
    return f"({quote(criterion.attribute)}, {inner})"


def _strip_nots(expr: QueryExpr) -> tuple[QueryExpr, int]:
    """The first node below a chain of NON, and the length of the chain."""
    nots = 0
    while isinstance(expr, Not):
        nots += 1
        expr = expr.child
    return expr, nots


def _operands(expr: QueryExpr, depth: int) -> tuple[QueryExpr, ...]:
    """Children of an ET/OU node with depth ET/OU nodes above it."""
    if not isinstance(expr, (And, Or)):
        raise TypeError(f"not a query expression: {expr!r}")
    if depth == _MAX_TREE_DEPTH:
        raise QueryTooDeepError(_MAX_TREE_DEPTH)
    return expr.children


def _format(expr: QueryExpr, depth: int) -> str:
    expr, nots = _strip_nots(expr)
    if isinstance(expr, Leaf):
        return "NON " * nots + _criterion_text(expr.criterion)
    parts = []
    for child in _operands(expr, depth):
        text = _format(child, depth + 1)
        # NON binds tighter than ET, and ET tighter than OU; a node nested
        # in its own kind keeps its parens so the tree keeps its shape.
        bare = isinstance(child, (Leaf, Not)) or (isinstance(expr, Or) and isinstance(child, And))
        parts.append(text if bare else f"({text})")
    text = (" ET " if isinstance(expr, And) else " OU ").join(parts)
    if nots:
        text = f"({text})"
    return "NON " * nots + text


def format_query(expr: QueryExpr) -> str:
    """Canonical text for a query tree.

    parse_query inverts it exactly while the text nests at most
    MAX_NESTING levels.  Raises QueryTooDeepError for a tree nested
    deeper than any parsed query.
    """
    return _format(expr, 0)


def matches(obj: AnnotationObject, criterion: Criterion) -> bool:
    """True when one pair of obj covers the criterion.

    The pair must carry the criterion's attribute and its value terms
    (ranks ignored) must include every criterion term.  Constrained
    criteria cannot be matched directly: UnresolvedCriterionError.
    """
    if criterion.attribute is None:
        raise UnresolvedCriterionError(
            "criterion has no attribute; rewrite it with rewrite_constrained first"
        )
    return covers(obj, criterion.attribute, set(criterion.values))


def _leaf_ids(kb: KnowledgeBase, leaf: Leaf) -> set[str]:
    """Fresh set of the ids a resolved criterion matches."""
    criterion = leaf.criterion
    if criterion.attribute is None:
        raise UnresolvedCriterionError(
            "criterion has no attribute; rewrite it with rewrite_constrained first"
        )
    return kb.covering(criterion.attribute, criterion.values)


def _eval(kb: KnowledgeBase, expr: QueryExpr, depth: int) -> tuple[set[str], bool]:
    """(ids, complemented): the ids, or every stored object except them.

    Every returned set is fresh and belongs to the caller (covering()
    copies the postings), so the set algebra below works in place.
    """
    expr, nots = _strip_nots(expr)
    complemented = nots % 2 == 1
    if isinstance(expr, Leaf):
        return _leaf_ids(kb, expr), complemented
    # ET keeps the intersection of its plain operands minus the union of its
    # complemented ones.  OU is the De Morgan dual, a OU b == NON (NON a ET
    # NON b): plain and complemented operands swap roles, and so does the
    # result.  Operands are folded in as they come, so each child's set is
    # freed once merged, and every operand is evaluated, so a constrained
    # leaf anywhere raises.
    is_or = isinstance(expr, Or)
    kept: set[str] | None = None
    dropped: set[str] | None = None
    for child in _operands(expr, depth):
        if isinstance(child, Leaf):  # the common case, without a recursive call
            ids, child_complemented = _leaf_ids(kb, child), False
        else:
            ids, child_complemented = _eval(kb, child, depth + 1)
        if child_complemented == is_or:
            if kept is None:
                kept = ids
            else:
                kept &= ids  # walks the smaller side
        elif dropped is None:
            dropped = ids
        else:
            dropped |= ids
    if kept is None:  # NON a ET NON b == NON (a OU b)
        return dropped, complemented == is_or
    if dropped:
        kept = kept - dropped  # walks the smaller side; -= would walk dropped
    return kept, complemented != is_or


def evaluate(kb: KnowledgeBase, expr: QueryExpr) -> list[str]:
    """Ids of objects satisfying expr, sorted ascending.

    NOT is the complement within the stored objects (closed world).
    Raises UnresolvedCriterionError if a constrained criterion remains,
    and QueryTooDeepError for a tree nested deeper than any parsed query.
    """
    ids, complemented = _eval(kb, expr, 0)
    if complemented:
        return [oid for oid in sorted(kb.objects) if oid not in ids]
    return sorted(ids)


@dataclass(frozen=True, slots=True)
class RewriteReport:
    """Outcome of rewriting constrained terms into an evaluable query."""

    rewritten: QueryExpr
    unresolved_terms: tuple[Term, ...]
    per_term_attributes: dict[Term, tuple[AttributeName, ...]]


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
    if not terms:
        raise ValueError("at least one term is required")
    wanted = dict.fromkeys(normalize_term(raw) for raw in terms)
    per_term: dict[Term, tuple[AttributeName, ...]] = {}
    parts: list[QueryExpr] = []
    unresolved: list[Term] = []
    for term in wanted:
        by_attribute = kb.postings.get(term, {})
        ranked = tuple(sorted(by_attribute, key=lambda a: (-len(by_attribute[a]), a)))
        per_term[term] = ranked
        if not ranked:
            unresolved.append(term)
            continue
        leaves = [Leaf(Criterion(attribute, (term,))) for attribute in ranked]
        parts.append(leaves[0] if len(leaves) == 1 else Or(tuple(leaves)))
    if not parts:
        raise AllUnresolvedError(tuple(unresolved))
    rewritten = parts[0] if len(parts) == 1 else And(tuple(parts))
    return RewriteReport(rewritten, tuple(unresolved), per_term)


def search_constrained(kb: KnowledgeBase, terms: list[str], strict: bool = True) -> list[str]:
    """Evaluate a constrained search over bare terms.

    In strict mode any unresolved term empties the result; in lenient
    mode unresolved terms are simply dropped (the report from
    rewrite_constrained says which).  Raises AllUnresolvedError when no
    term resolves at all.
    """
    report = rewrite_constrained(kb, terms)
    if strict and report.unresolved_terms:
        return []
    return evaluate(kb, report.rewritten)


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
