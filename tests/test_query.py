"""Query language: parsing, printing, matching, evaluation, rewriting."""

import copy
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from annote_kb import (
    AllUnresolvedError,
    And,
    AnnotationObject,
    AVPair,
    Criterion,
    IMPORT_META,
    KnowledgeBase,
    Leaf,
    LineBreakError,
    Not,
    Or,
    QuerySyntaxError,
    UnresolvedCriterionError,
    Value,
    evaluate,
    format_query,
    infer_attributes,
    load_facts_into,
    make_pair,
    matches,
    normalize_attribute,
    normalize_term,
    parse_query,
    rewrite_constrained,
    search_constrained,
    stored_list_rewrite,
)
import annote_kb.query as query_module
from annote_kb.quoting import format_values, quote
from genkb import ATTRIBUTES, TERMS, random_expr, random_kb
from oracles import kb_state, naive_eval, naive_infer_attributes, pair_covers
from test_factfile import accepted_spellings

CLASSIC = (
    '("auteur", ["Alain Juillet"]) ET ("mots-clés", ["désinformation"])'
)


def leaf(attribute, *terms) -> Leaf:
    return Leaf(Criterion(attribute, terms))


LEAF_TEXT = '("k", ["a"])'


def _not_chain(length: int, expr=leaf("k", "a")):
    for _ in range(length):
        expr = Not(expr)
    return expr


def _unless_recursive(call, *args):
    # A RecursionError traceback thousands of frames deep takes pytest
    # minutes to render, so a call that recurses fails as None instead.
    try:
        return call(*args)
    except RecursionError:
        return None


def _reparsed(expr):
    return parse_query(format_query(expr))


# ---------------------------------------------------------------- parsing


def test_parse_simple_criterion():
    assert parse_query('("mots-clés", ["désinformation"])') == leaf(
        "mots-clés", "désinformation"
    )


def test_parse_normalizes_attribute_and_terms():
    assert parse_query('("Mots Clés", ["  DÉSINFORMATION "])') == leaf(
        "mots-clés", "désinformation"
    )


def test_parse_multi_term_criterion():
    assert parse_query('("k", ["a", "b", "c"])') == leaf("k", "a", "b", "c")


def test_parse_constrained_criterion():
    assert parse_query('(["pertinent"])') == leaf(None, "pertinent")


def test_parse_or_binds_loosest():
    got = parse_query('("k", ["a"]) ET ("k", ["b"]) OU ("k", ["c"])')
    assert got == Or((And((leaf("k", "a"), leaf("k", "b"))), leaf("k", "c")))


def test_parse_not_binds_tightest():
    got = parse_query('NON ("k", ["a"]) ET ("k", ["b"])')
    assert got == And((Not(leaf("k", "a")), leaf("k", "b")))


def test_parse_parentheses_regroup():
    got = parse_query('("k", ["a"]) ET (("k", ["b"]) OU ("k", ["c"]))')
    assert got == And((leaf("k", "a"), Or((leaf("k", "b"), leaf("k", "c")))))


def test_parse_english_keywords_any_case():
    fr = parse_query('NON ("k", ["a"]) ET ("k", ["b"]) OU ("k", ["c"])')
    en = parse_query('not ("k", ["a"]) AND ("k", ["b"]) Or ("k", ["c"])')
    assert fr == en


def test_parse_chained_operators_flatten():
    got = parse_query('("k", ["a"]) ET ("k", ["b"]) ET ("k", ["c"])')
    assert got == And((leaf("k", "a"), leaf("k", "b"), leaf("k", "c")))


def test_parse_double_parens_is_plain_leaf():
    assert parse_query('(("k", ["a"]))') == leaf("k", "a")


def test_parse_double_negation_kept():
    assert parse_query('NON NON ("k", ["a"])') == Not(Not(leaf("k", "a")))


def test_parse_ignores_whitespace_layout():
    assert parse_query('\n ("k",\t["a"])  ET\n("k" , ["b"] ) ') == And(
        (leaf("k", "a"), leaf("k", "b"))
    )


def test_parse_escaped_strings():
    got = parse_query('("k", ["dit \\"oui\\"", "a\\\\b"])')
    assert got == leaf("k", 'dit "oui"', "a\\b")


# ---------------------------------------------------------------- syntax errors


@pytest.mark.parametrize(
    "text, position, expected_part",
    [
        ("", 0, "'(' or NON"),
        ("desinformation", 0, "keyword"),
        ("()", 1, "'(' or NON"),
        ('("a", [])', 7, "a quoted term"),
        ('("a" ["x"])', 5, "','"),
        ('("a", ["x"]', 11, "')'"),
        ('("a", ["x', 7, "closing quote"),
        ('("a", ["x"]) )', 13, "end of query"),
        ('("a", ["  "])', 7, "a non-blank term"),
        ('("  ", ["x"])', 1, "a non-blank attribute"),
        ('("k", ["a"]) ET', 15, "'(' or NON"),
        ('("a", ["x", "y\nz"])', 12, "a term without line breaks"),
        ('("a", ["y\u2028z"])', 7, "a term without line breaks"),
        # Any str.isspace() character separates tokens, not only ASCII ones.
        ('("k", ["a"])\x1fET\x1f', 16, "'(' or NON"),
        ('("k",\xa0["a"]\xa0', 12, "')'"),
        ('("k"\u3000["a"])', 5, "','"),
        ('("k", ["a"]) ÉT ("k", ["b"])', 13, "keyword, got 'ÉT'"),
        # A stray quote or word anywhere is reported before the parser's
        # complaint, even one earlier in the text.
        (') ("k", ["a"]) foo', 15, "keyword, got 'foo'"),
        ('("k", ["a"]) ET ) "', 18, "closing quote"),
        ('("  ", ["a"]) ET xyz', 17, "keyword, got 'xyz'"),
        # The end of the query is refused at the end of the text.
        ('("k", ["a"]) ET   ', 18, "'(' or NON"),
        ("NON NON", 7, "'(' or NON"),
    ],
)
def test_syntax_errors_carry_position(text, position, expected_part):
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(text)
    assert err.value.position == position
    assert expected_part in err.value.expected
    assert f"at position {position}" in str(err.value)


def test_criterion_terms_with_line_breaks_raise():
    # Query text cannot carry a line break inside a term, so no tree may
    # hold one: format_query would print text that parse_query refuses.
    for term in ["x\ny", "x\ry", "x\u2028y", "\x85"]:
        with pytest.raises(LineBreakError):
            Criterion("a", (term,))
        with pytest.raises(LineBreakError):
            Criterion(None, ("ok", term))
    expr = Leaf(Criterion("a", ("x y", "z\tw")))  # other whitespace is fine
    assert parse_query(format_query(expr)) == expr


def test_bad_escape_reported_at_backslash():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query('("a", ["\\n"])')
    assert err.value.position == 8


@pytest.mark.parametrize(
    "text, expected",
    [
        ("NON " * 1000 + LEAF_TEXT, _not_chain(1000)),
        ("(" * 1000 + LEAF_TEXT + ")" * 1000, leaf("k", "a")),
        ("NON (" * 600 + LEAF_TEXT + ")" * 600, _not_chain(600)),
        ("NON " * 1001 + LEAF_TEXT, _not_chain(1001)),
    ],
    ids=["NON", "parentheses", "mixed", "odd NON"],
)
def test_deep_nesting_parses_evaluates_and_round_trips(text, expected):
    expr = _unless_recursive(parse_query, text)
    assert expr == expected
    assert _unless_recursive(_reparsed, expr) == expr
    kb = random_kb(2, n_objects=100, attributes=["k"], terms=["a", "b", "c", "d"])
    hits = naive_eval(kb, leaf("k", "a"))
    assert 0 < len(hits) < len(kb)
    want = set(kb.objects) - hits if text.count("NON") % 2 else hits
    assert _unless_recursive(evaluate, kb, expr) == sorted(want)


def test_nesting_up_to_the_cap_parses():
    assert parse_query("NON " * 100 + LEAF_TEXT) == _not_chain(100)
    text = "(" * 100 + LEAF_TEXT + ")" * 100
    assert parse_query(text) == leaf("k", "a")


def test_an_operand_that_is_no_query_expression_is_a_type_error(desk_kb):
    for expr in (And((leaf("k", "a"), None)), Not(Or((Not(leaf("k", "a")), "k")))):
        with pytest.raises(TypeError, match="not a query expression"):
            format_query(expr)
        with pytest.raises(TypeError, match="not a query expression"):
            evaluate(desk_kb, expr)


def test_an_operand_that_is_no_query_expression_still_prints_and_compares():
    # repr, == and hash take such an operand as an opaque item.
    a = leaf("k", "a")
    text_a = repr(a)
    assert repr(And((a, None))) == f"And(children=({text_a}, None))"
    assert repr(Not("k")) == "Not(child='k')"
    assert repr(Not(Or((Not(a), "k")))) == f"Not(child=Or(children=(Not(child={text_a}), 'k')))"
    for make in (lambda: And((a, None)), lambda: Not("k"), lambda: Not(Or((Not(a), "k")))):
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)
    assert And((a, None)) != And((a, "k")) and And((a, None)) != And((None, a))
    assert Not("k") != Not("j") and Not("k") != Not(Not("k"))
    assert Not(Or((Not(a), "k"))) != Not(Or((a, "k")))


def test_criterion_requires_terms():
    with pytest.raises(ValueError):
        Criterion("k", ())
    with pytest.raises(ValueError):
        Criterion("k", [])


def test_criterion_keeps_any_iterable_of_terms_as_a_tuple(desk_kb):
    as_tuple = Leaf(Criterion("mots-clés", ("désinformation",)))
    for terms in (["désinformation"], iter(["désinformation"]), {"désinformation": 1}):
        expr = Leaf(Criterion("mots-clés", terms))
        assert expr.criterion.values == ("désinformation",)
        assert expr == as_tuple and hash(expr) == hash(as_tuple)
        assert _reparsed(expr) == expr
        assert evaluate(desk_kb, expr) == ["note_008", "note_211", "note_702"]
    # A bare str would be read as one term per character.
    with pytest.raises(TypeError, match="not one str"):
        Criterion("mots-clés", "désinformation")


@pytest.mark.parametrize("node", [And, Or])
def test_et_and_ou_need_two_operands(node):
    for children in ((), (leaf("k", "a"),)):
        with pytest.raises(ValueError, match="needs at least two operands"):
            node(children)
    assert node((leaf("k", "a"), leaf("k", "b"))).children[1] == leaf("k", "b")


# ---------------------------------------------------------------- printing


def test_format_leaf():
    assert format_query(leaf("mots-clés", "désinformation")) == (
        '("mots-clés", ["désinformation"])'
    )


def test_format_constrained_leaf():
    assert format_query(leaf(None, "pertinent")) == '(["pertinent"])'


def test_format_uses_french_keywords_and_parens():
    a, b, c = leaf("k", "a"), leaf("k", "b"), leaf("k", "c")
    expr = Or((And((a, Not(b))), c))
    assert format_query(expr) == (
        '("k", ["a"]) ET NON ("k", ["b"]) OU ("k", ["c"])'
    )
    # Only the parens that precedence and the tree's shape require.
    assert format_query(And((Or((a, b)), c))) == '(("k", ["a"]) OU ("k", ["b"])) ET ("k", ["c"])'
    assert format_query(And((And((a, b)), c))) == '(("k", ["a"]) ET ("k", ["b"])) ET ("k", ["c"])'
    assert format_query(Or((a, Or((b, c))))) == '("k", ["a"]) OU (("k", ["b"]) OU ("k", ["c"]))'


def test_format_wraps_compound_not_operand():
    expr = Not(And((leaf("k", "a"), leaf("k", "b"))))
    assert format_query(expr) == 'NON (("k", ["a"]) ET ("k", ["b"]))'


def test_format_escapes_strings():
    expr = leaf('q"q', "a\\b")
    text = format_query(expr)
    assert text == '("q\\"q", ["a\\\\b"])'
    assert parse_query(text) == expr


# normalized-form fixed points keep parse(format(e)) == e exact
_TERMS = st.sampled_from(
    ["désinformation", "a", "x y", 'dit "oui"', "a\\b", "très-fin", "é è"]
)
_ATTRS = st.sampled_from(["mots-clés", "k", "souligner", 'q"q', "attr-01"])


def _criteria() -> st.SearchStrategy[Criterion]:
    return st.builds(
        Criterion,
        st.one_of(st.none(), _ATTRS),
        st.lists(_TERMS, min_size=1, max_size=3, unique=True).map(tuple),
    )


def _trees(criteria: st.SearchStrategy[Criterion]) -> st.SearchStrategy:
    return st.recursive(
        st.builds(Leaf, criteria),
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, st.lists(inner, min_size=2, max_size=3).map(tuple)),
            st.builds(Or, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        ),
        max_leaves=12,
    )


_EXPRS = _trees(_criteria())


@settings(max_examples=300, deadline=None)
@given(_EXPRS)
def test_parse_inverts_format(expr):
    assert parse_query(format_query(expr)) == expr


_ANY_EXPRS = _trees(
    st.builds(
        Criterion,
        st.none() | accepted_spellings(normalize_attribute),
        st.lists(accepted_spellings(normalize_term), min_size=1, max_size=3, unique=True).map(tuple),
    )
)


@settings(max_examples=300, deadline=None)
@given(_ANY_EXPRS)
def test_parse_inverts_format_over_any_normalized_text(expr):
    assert parse_query(format_query(expr)) == expr


# A token of printed query text: a quoted string, punctuation or a word.
_QUERY_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|[()\[\],]|[^\s()\[\],"]+')
_INSERTED = st.sampled_from(["(", ")", "[", "]", ",", '"', "ET", "OU", "NON", "mot"])


@st.composite
def _mutated_queries(draw) -> str:
    """The printed text of a tree with tokens deleted, duplicated or inserted."""
    toks = _QUERY_TOKEN.findall(format_query(draw(_ANY_EXPRS)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(toks)))
        action = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if action == "insert" or at == len(toks):
            toks.insert(at, draw(_INSERTED))
        elif action == "delete":
            del toks[at]
        else:
            toks.insert(at, toks[at])
    return draw(st.sampled_from([" ", ""])).join(toks)


@settings(max_examples=500, deadline=None)
@given(st.text() | _mutated_queries())
def test_any_text_parses_to_a_tree_or_a_positioned_syntax_error(text):
    try:
        expr = parse_query(text)
    except QuerySyntaxError as err:
        assert 0 <= err.position <= len(text)
        assert str(err) == f"at position {err.position}: expected {err.expected}"
    else:
        assert parse_query(format_query(expr)) == expr


# ---------------------------------------------------------------- matching


def _note() -> AnnotationObject:
    pairs = (
        make_pair("mots-clés", ["désinformation", "décision"]),
        make_pair("souligner", ["pertinent"]),
        AVPair("ordonner", (Value("pauvre", 0), Value("pertinent", 4))),
    )
    return AnnotationObject("n", "d", pairs, IMPORT_META)


def test_matches_needs_superset_in_one_pair():
    note = _note()
    assert matches(note, Criterion("mots-clés", ("désinformation",)))
    assert matches(note, Criterion("mots-clés", ("décision", "désinformation")))
    assert not matches(note, Criterion("mots-clés", ("désinformation", "zzz")))
    # terms spread over two pairs do not count
    assert not matches(note, Criterion("souligner", ("pertinent", "pauvre")))


def test_matches_checks_attribute():
    assert not matches(_note(), Criterion("auteur", ("désinformation",)))


def test_matches_ignores_ranks():
    assert matches(_note(), Criterion("ordonner", ("pertinent", "pauvre")))


def test_matches_rejects_constrained_criterion():
    with pytest.raises(UnresolvedCriterionError):
        matches(_note(), Criterion(None, ("pertinent",)))


# ---------------------------------------------------------------- evaluation


def _deepest_parsable_text() -> str:
    """100 parenthesis levels, each holding an OU over an ET."""
    text = '("k", ["a"]) OU ("k", ["b"]) ET ("k", ["c"])'
    for _ in range(100):
        text = f'("k", ["a"]) OU ("k", ["b"]) ET ({text})'
    return text


def test_evaluate_classic_search(desk_kb):
    assert evaluate(desk_kb, parse_query(CLASSIC)) == [
        "note_008",
        "note_211",
        "note_702",
    ]


def test_evaluate_and_narrows(desk_kb):
    narrowed = parse_query(CLASSIC + ' ET ("mots-clés", ["protection du patrimoine"])')
    assert evaluate(desk_kb, narrowed) == ["note_211"]


def test_evaluate_not_is_complement(desk_kb):
    hits = set(evaluate(desk_kb, parse_query(CLASSIC)))
    rest = evaluate(desk_kb, Not(parse_query(CLASSIC)))
    assert set(rest) == set(desk_kb.objects) - hits
    assert rest == sorted(rest)


def test_evaluate_no_hits(desk_kb):
    assert evaluate(desk_kb, parse_query('("auteur", ["personne"])')) == []


def test_evaluate_needs_one_pair_covering_all_terms():
    kb = KnowledgeBase()
    pairs = (make_pair("k", ["a"]), make_pair("k", ["b"]))
    kb.insert(AnnotationObject("n", "d", pairs, IMPORT_META))
    # terms split across two pairs under the same attribute do not count
    assert evaluate(kb, leaf("k", "a", "b")) == []
    assert evaluate(kb, leaf("k", "a")) == ["n"]
    assert evaluate(kb, leaf("k", "a", "a")) == ["n"]


def test_evaluate_unresolved_criterion_raises(desk_kb):
    # Anywhere in the tree: under NON, and after an operand with no hits.
    for text in [
        '(["pertinent"])',
        'NON (["pertinent"])',
        'NON NON (["pertinent"])',
        '("auteur", ["personne"]) ET (["pertinent"])',
        '("auteur", ["personne"]) ET NON (["pertinent"])',
        'NON ("auteur", ["alain juillet"]) ET NON (["pertinent"])',
        '("auteur", ["alain juillet"]) OU (["pertinent"])',
        'NON ("auteur", ["personne"]) OU NON (["pertinent"])',
    ]:
        with pytest.raises(UnresolvedCriterionError):
            evaluate(desk_kb, parse_query(text))


# A small vocabulary, so that most criteria have hits and NON excludes some.
DENSE = {"attributes": ATTRIBUTES[:4], "terms": TERMS[:8]}
A, B, C = leaf("attr-00", "terme000"), leaf("attr-01", "terme001"), leaf("attr-02", "terme002")
COMPLEMENT_SHAPES = [
    Not(A),
    Not(Not(A)),
    Not(Not(Not(A))),
    And((Not(A), Not(B))),
    And((Not(A), Not(B), Not(C))),
    And((A, Not(B))),
    And((Not(A), B, Not(C))),
    Or((A, Not(B))),
    Or((Not(A), Not(B))),
    Or((Not(A), B, Not(C))),
    Not(And((A, Not(B)))),
    Not(Or((Not(A), Not(B)))),
    Or((And((Not(A), Not(B))), C)),
    And((Or((A, Not(B))), Not(Or((B, C))))),
]


def test_evaluate_agrees_with_naive_scan():
    rng = random.Random(7)
    cases = [(random_kb(seed, n_objects=200), {}, []) for seed in range(3)]
    # Dense hits, objects inserted out of id order, every complement shape.
    cases.append((random_kb(3, n_objects=200, shuffled=True, **DENSE), DENSE, COMPLEMENT_SHAPES))
    for kb, vocabulary, shapes in cases:
        before = kb_state(kb)
        exprs = shapes + [random_expr(rng, depth=4, **vocabulary) for _ in range(40)]
        for expr in exprs:
            assert evaluate(kb, expr) == sorted(naive_eval(kb, expr))
        assert kb_state(kb) == before  # in-place set algebra never reaches a posting
    kb = cases[-1][0]
    assert list(kb.objects) != sorted(kb.objects)
    assert all(0 < len(evaluate(kb, x)) < len(kb) for x in (A, B, C))


def test_complement_sees_objects_inserted_after_it_was_cut():
    kb = random_kb(4, n_objects=200, shuffled=True, **DENSE)
    rest = Not(A)
    pairs = (make_pair("attr-01", ["terme001"]),)
    first = evaluate(kb, rest)
    assert first == sorted(naive_eval(kb, rest))
    # New ids before, among and after the cached sorted ids.
    for oid in ("a0", "obj00100b", "zz"):
        kb.insert(AnnotationObject(oid, "doc", pairs, IMPORT_META))
    assert not load_facts_into(kb, 'annotation(obj00050b, "attr-01", ["terme001"], doc).').diagnostics
    second = evaluate(kb, rest)
    assert second == sorted(naive_eval(kb, rest))
    assert set(second) - set(first) == {"a0", "obj00050b", "obj00100b", "zz"}

    # A copy shares the cached ids; an insert on either side is its own.
    snapshot = kb.copy()
    kb.insert(AnnotationObject("b0", "doc", pairs, IMPORT_META))
    snapshot.insert(AnnotationObject("c0", "doc", pairs, IMPORT_META))
    assert evaluate(kb, rest) == sorted(naive_eval(kb, rest)) == sorted(second + ["b0"])
    assert evaluate(snapshot, rest) == sorted(naive_eval(snapshot, rest)) == sorted(second + ["c0"])


def test_complement_cut_at_the_edges_by_either_path(monkeypatch):
    # Each object also holds its own id as a term, so any id set can be
    # excluded; objects keep random_kb's shuffled insertion order.
    base = random_kb(5, n_objects=200, shuffled=True)
    kb = KnowledgeBase()
    for o in base.objects.values():
        kb.insert(AnnotationObject(o.id, o.target, o.pairs + (make_pair("id", [o.id]),), IMPORT_META))
    every = sorted(kb.objects)
    assert list(kb.objects) != every

    ran: list[str] = []
    for name in ("bisect_left", "filterfalse"):
        def counted(*args, real=getattr(query_module, name), name=name):
            ran.append(name)
            return real(*args)
        monkeypatch.setattr(query_module, name, counted)

    splice, scan = {"bisect_left"}, {"filterfalse"}
    cases = {
        "no id": (["absent"], set()),  # the splice with nothing to cut
        "smallest": ([every[0]], splice),
        "largest": ([every[-1]], splice),
        "one in the middle": ([every[100]], splice),
        "both ends and neighbours": (every[:2] + every[-2:], splice),
        "a third": (every[::3], scan),
        "every id": (every, scan),
    }
    for name, (excluded, paths) in cases.items():
        leaves = [leaf("id", oid) for oid in excluded]
        expr = Not(leaves[0] if len(leaves) == 1 else Or(tuple(leaves)))
        ran.clear()
        got = evaluate(kb, expr)
        assert got == sorted(naive_eval(kb, expr)), name
        assert got == [oid for oid in every if oid not in excluded], name
        assert set(ran) == paths, name


def test_evaluate_folds_long_not_chains(desk_kb):
    author = leaf("auteur", "alain juillet")
    hits = evaluate(desk_kb, author)
    assert 0 < len(hits) < len(desk_kb)
    assert evaluate(desk_kb, _not_chain(5000, author)) == hits
    rest = [oid for oid in sorted(desk_kb.objects) if oid not in hits]
    assert evaluate(desk_kb, _not_chain(5001, author)) == rest
    assert format_query(_not_chain(5000)) == "NON " * 5000 + LEAF_TEXT


def test_deepest_parsable_query_evaluates_and_prints():
    kb = random_kb(2, n_objects=100, attributes=["k"], terms=["a", "b", "c", "d"])
    expr = parse_query(_deepest_parsable_text())
    assert evaluate(kb, expr) == sorted(naive_eval(kb, expr))
    assert format_query(expr).startswith('("k", ["a"]) OU ("k", ["b"]) ET (')


def test_canonical_text_of_deepest_parsable_query_reparses():
    text = _deepest_parsable_text()
    expr = parse_query(text)
    assert format_query(expr) == text  # no parens beyond the ones it already had
    assert parse_query(format_query(expr)) == expr


def test_trees_of_any_depth_evaluate_and_round_trip():
    kb = random_kb(2, n_objects=100, attributes=["k"], terms=["a", "b", "c", "d"])
    deepest = parse_query(_deepest_parsable_text())
    for expr in (And((leaf("k", "a"), deepest)), Not(Or((deepest, Not(deepest))))):
        assert evaluate(kb, expr) == sorted(naive_eval(kb, expr))
        assert _reparsed(expr) == expr
    a, b, c = (naive_eval(kb, leaf("k", term)) for term in "abc")
    expr, want = leaf("k", "a"), a
    for _ in range(5000):
        expr = Or((leaf("k", "b"), And((expr, leaf("k", "c")))))
        want = b | (want & c)
    assert _unless_recursive(evaluate, kb, expr) == sorted(want)
    assert _unless_recursive(_reparsed, expr) == expr
    for expr in (_alternating(5000), _not_chain(100_000)):
        assert _unless_recursive(_reparsed, expr) == expr


def _alternating(depth: int, inner=leaf("k", "a")):
    for level in range(depth):
        inner = (And if level % 2 else Or)((leaf("k", "b"), inner))
    return inner


def test_deep_trees_compare_and_hash_without_recursion():
    # Trees far deeper than the interpreter's stack, built through the API.
    chain, twin = _not_chain(5000), _not_chain(5000)
    assert chain is not twin
    assert chain == twin and hash(chain) == hash(twin)
    assert chain != _not_chain(4999) and chain != _not_chain(5000, leaf("k", "b"))
    tree, twin = _alternating(3000), _alternating(3000)
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != _alternating(3000, leaf("k", "c"))
    assert tree != _alternating(2999) and tree != _alternating(3001)
    assert {chain: 1, tree: 2}[twin] == 2


def test_repr_keeps_the_dataclass_text():
    a, b = leaf("a", "x"), leaf("k", "y", "z")
    text_a = "Leaf(criterion=Criterion(attribute='a', values=('x',)))"
    text_b = "Leaf(criterion=Criterion(attribute='k', values=('y', 'z')))"
    assert repr(Not(a)) == f"Not(child={text_a})"
    assert repr(And((a, Or((b, Not(a)))))) == (
        f"And(children=({text_a}, Or(children=({text_b}, Not(child={text_a})))))"
    )
    assert repr(Or((a, b, a))) == f"Or(children=({text_a}, {text_b}, {text_a}))"


def test_deep_trees_print_without_recursion():
    text_a, text_b = repr(leaf("k", "a")), repr(leaf("k", "b"))
    assert _unless_recursive(repr, _not_chain(5000)) == "Not(child=" * 5000 + text_a + ")" * 5000
    opening = "".join(
        f"{'And' if level % 2 else 'Or'}(children=({text_b}, " for level in reversed(range(3000))
    )
    assert _unless_recursive(repr, _alternating(3000)) == opening + text_a + "))" * 3000


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_query_functions_take_no_frame_per_level():
    # With the recursion limit 100 frames above the caller, a walk that
    # recurses once per level of a 2,000-level tree fails at once.
    kb = random_kb(2, n_objects=100, attributes=["k"], terms=["a", "b", "c", "d"])
    every, b = set(kb.objects), naive_eval(kb, leaf("k", "b"))
    expr, want = leaf("k", "a"), naive_eval(kb, leaf("k", "a"))
    for level in range(2000):
        if level % 3 == 0:
            expr, want = Not(expr), every - want
        elif level % 3 == 1:
            expr, want = And((expr, leaf("k", "b"))), want & b
        else:
            expr, want = Or((expr, leaf("k", "b"))), want | b
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        parsed = parse_query(format_query(expr))
        ids = evaluate(kb, expr)
        same, same_hash = parsed == expr, hash(parsed) == hash(expr)
        same_repr = repr(parsed) == repr(expr)
        with pytest.raises(RecursionError):
            naive_eval(kb, expr)  # the limit is low enough to catch recursion
    finally:
        sys.setrecursionlimit(limit)
    assert same and same_hash and same_repr
    assert ids == sorted(want)


def test_tree_equality_follows_kind_and_shape():
    a, b = leaf("k", "a"), leaf("k", "b")
    assert And((a, b)) == And((a, b)) and hash(And((a, b))) == hash(And((a, b)))
    assert And((a, b)) != Or((a, b))
    assert And((a, b)) != And((b, a))
    assert And((a, b, a)) != And((a, b))
    assert And((And((a, b)), a)) != And((a, And((b, a))))
    assert Not(And((a, b))) != And((Not(a), b))
    assert Not(a) != a and Not(a) != Not(b)
    with pytest.raises(AttributeError):
        Not(a).child = b  # still frozen


def test_evaluate_boolean_laws():
    rng = random.Random(8)
    kb = random_kb(4, n_objects=200)
    for _ in range(25):
        a = random_expr(rng, depth=3)
        b = random_expr(rng, depth=3)
        assert evaluate(kb, Not(Not(a))) == evaluate(kb, a)
        assert evaluate(kb, Not(And((a, b)))) == evaluate(kb, Or((Not(a), Not(b))))
        assert evaluate(kb, Not(Or((a, b)))) == evaluate(kb, And((Not(a), Not(b))))
        assert evaluate(kb, And((a, a))) == evaluate(kb, a)
        assert evaluate(kb, Or((a, a))) == evaluate(kb, a)


# ---------------------------------------------------------------- rewriting


def test_rewrite_constrained_golden(desk_kb):
    report = rewrite_constrained(
        desk_kb, ["désinformation", "protection du patrimoine", "pertinent"]
    )
    assert format_query(report.rewritten) == (
        '("mots-clés", ["désinformation"])'
        ' ET ("mots-clés", ["protection du patrimoine"])'
        ' ET (("ordonner", ["pertinent"]) OU ("souligner", ["pertinent"]))'
    )
    assert report.unresolved_terms == ()
    assert report.per_term_attributes == {
        "désinformation": ("mots-clés",),
        "protection du patrimoine": ("mots-clés",),
        "pertinent": ("ordonner", "souligner"),
    }


def test_rewrite_single_term_stays_bare(desk_kb):
    report = rewrite_constrained(desk_kb, ["désinformation"])
    assert report.rewritten == leaf("mots-clés", "désinformation")


def test_rewrite_deduplicates_terms(desk_kb):
    once = rewrite_constrained(desk_kb, ["pertinent"])
    twice = rewrite_constrained(desk_kb, ["pertinent", "  PERTINENT "])
    assert once.rewritten == twice.rewritten
    assert list(twice.per_term_attributes) == ["pertinent"]


def test_rewrite_records_unresolved(desk_kb):
    report = rewrite_constrained(desk_kb, ["zzz", "désinformation"])
    assert report.unresolved_terms == ("zzz",)
    assert report.rewritten == leaf("mots-clés", "désinformation")
    assert report.per_term_attributes["zzz"] == ()


def test_rewrite_all_unresolved(desk_kb):
    with pytest.raises(AllUnresolvedError) as err:
        rewrite_constrained(desk_kb, ["zzz", "yyy"])
    assert err.value.terms == ("zzz", "yyy")


@pytest.mark.parametrize("node", [And, Or])
def test_et_and_ou_keep_their_operands_as_a_tuple(node):
    # A list the caller changes later must not change the tree, its hash,
    # or its place in a dict.
    a, b, c = leaf("k", "a"), leaf("k", "b"), leaf("k", "c")
    kids = [a, b]
    expr = node(kids)
    held = {expr: 1}
    kids.append(c)
    assert expr.children == (a, b)
    assert _reparsed(expr) == node((a, b)) == expr
    assert expr in held and node((a, b)) in held
    assert node(iter([a, b])).children == (a, b)


def test_rewrite_requires_terms(desk_kb):
    with pytest.raises(ValueError):
        rewrite_constrained(desk_kb, [])


@pytest.mark.parametrize("read", [rewrite_constrained, search_constrained])
def test_constrained_reads_refuse_a_bare_str(desk_kb, read):
    # A str is iterable, so it would be read as one term per character.
    with pytest.raises(TypeError, match="list of terms"):
        read(desk_kb, "pertinent")


@pytest.mark.parametrize("read", [
    lambda kb, terms: Criterion("mots-clés", terms),
    rewrite_constrained,
    search_constrained,
    infer_attributes,
])
def test_every_list_of_terms_follows_one_rule(desk_kb, read):
    # Any iterable of terms is read; a bare str and no terms are refused alike.
    read(desk_kb, iter(["pertinent"]))
    with pytest.raises(TypeError, match="^terms must be a list of terms, not one str$"):
        read(desk_kb, "pertinent")
    for empty in ([], (), iter([])):
        with pytest.raises(ValueError, match="^at least one term is required$"):
            read(desk_kb, empty)


def test_rewrite_is_deterministic(desk_kb):
    terms = ["pertinent", "désinformation"]
    assert rewrite_constrained(desk_kb, terms) == rewrite_constrained(desk_kb, terms)


def _naive_stored_form(kb, term, ranked) -> str:
    """One term's stored-list text from naive_infer_attributes' ranking:
    for each attribute, the first covering pair of its smallest supporting id."""
    pieces = []
    for attribute, support in ranked:
        pair = next(p for p in kb.objects[support[0]].pairs if pair_covers(p, attribute, [term]))
        pieces.append(f"({quote(attribute)}, {format_values(pair.values)})")
    return pieces[0] if len(pieces) == 1 else "(" + " OU ".join(pieces) + ")"


def _tied_kb() -> KnowledgeBase:
    """'x' is held twice under "c" and once under each of "b" and "a",
    which are inserted in the reverse of their name order."""
    kb = KnowledgeBase()
    for oid, attribute in [("o3", "b"), ("o1", "c"), ("o2", "a"), ("o0", "c")]:
        kb.insert(AnnotationObject(oid, "d", (make_pair(attribute, [oid, "x"]),), IMPORT_META))
    return kb


def test_rewrite_ranks_like_the_naive_oracle(desk_kb):
    cases = [desk_kb, _tied_kb()] + [random_kb(seed, n_objects=300) for seed in range(2)]
    cases.append(random_kb(2, n_objects=300, shuffled=True))
    ties = 0
    for kb in cases:
        terms = list(kb.postings)
        report = rewrite_constrained(kb, terms)
        assert list(report.per_term_attributes) == terms
        forms = []
        for term in terms:
            ranked = naive_infer_attributes(kb, [term])
            assert report.per_term_attributes[term] == tuple(a for a, _ in ranked)
            sizes = [len(support) for _, support in ranked]
            ties += len(sizes) != len(set(sizes))
            forms.append(_naive_stored_form(kb, term, ranked))
            assert stored_list_rewrite(kb, rewrite_constrained(kb, [term])) == forms[-1]
        assert stored_list_rewrite(kb, report) == " ET ".join(forms)
    assert ties > 0
    assert rewrite_constrained(_tied_kb(), ["x"]).per_term_attributes == {"x": ("c", "a", "b")}


def test_rewritten_query_evaluates(desk_kb):
    report = rewrite_constrained(desk_kb, ["alain juillet"])
    assert evaluate(desk_kb, report.rewritten) == ["note_008", "note_211", "note_702"]


# ---------------------------------------------------------------- constrained search


def test_search_constrained_golden(desk_kb):
    found = search_constrained(
        desk_kb, ["désinformation", "protection du patrimoine", "pertinent"]
    )
    assert found == ["note_211"]


def test_search_constrained_strict_empties_on_unresolved(desk_kb):
    assert search_constrained(desk_kb, ["désinformation", "zzz"], strict=True) == []


def test_search_constrained_lenient_drops_unresolved(desk_kb):
    found = search_constrained(desk_kb, ["désinformation", "zzz"], strict=False)
    assert found == ["note_008", "note_211", "note_702"]


def test_search_constrained_all_unresolved(desk_kb):
    with pytest.raises(AllUnresolvedError):
        search_constrained(desk_kb, ["zzz"], strict=False)


def _naive_find(kb, terms) -> list[str] | None:
    """Lenient constrained search through naive_infer_attributes, built as
    perfbench's oracle_find builds it; None when no term resolves."""
    result = None
    for term in dict.fromkeys(map(normalize_term, terms)):
        found = naive_infer_attributes(kb, [term])
        if found:
            matched = {oid for _, support in found for oid in support}
            result = matched if result is None else result & matched
    return None if result is None else sorted(result)


def _respelled(rng, term) -> str:
    return rng.choice([term, term.upper(), f"  {term.title()} ", f"{term}\t"])


def _held_terms(obj) -> list[str]:
    """The terms of obj's explicit pairs, sorted."""
    return sorted({t for p in obj.pairs if p.attribute for t in p.terms()})


def _find_cases(kb, rng) -> list[list[str]]:
    """Term lists of 1-4 terms from the postings: from one stored object
    (so results are rarely empty) or anywhere, respelled, some with a
    duplicate or an unresolved term; plus the term under the most
    attributes, terms that resolve nowhere, and a list whose filter is
    empty before its largest term is reached."""
    totals = {term: sum(map(len, by_attr.values())) for term, by_attr in kb.postings.items()}
    widest = max(kb.postings, key=lambda t: (len(kb.postings[t]), t))
    assert len(kb.postings[widest]) >= 5
    held = [pool for pool in map(_held_terms, kb.objects.values()) if pool]
    cases = [[widest], [widest.upper(), widest], ["zzz"], ["zzz", " YYY "]]
    for i in range(60):
        pool = sorted(kb.postings) if i % 2 else rng.choice(held)
        terms = [_respelled(rng, t) for t in rng.sample(pool, min(len(pool), rng.randint(1, 4)))]
        if i % 3 == 0:
            terms.append(_respelled(rng, rng.choice(terms)))
        if i % 5 == 0:
            terms.insert(rng.randrange(len(terms) + 1), "zzz unresolved")
        if i % 7 == 0:
            terms.append(widest)
        cases.append(terms)
    largest = max(totals, key=totals.get)
    small = sorted(totals, key=lambda t: (totals[t], t))
    unions = {t: set().union(*kb.postings[t].values()) for t in small[:50]}
    a, b = next((a, b) for a in unions for b in unions if a < b and not unions[a] & unions[b])
    assert max(totals[a], totals[b]) < totals[largest]
    cases.append([largest, a, b])
    return cases


def test_search_constrained_agrees_with_its_rewrite_and_the_naive_oracle():
    rng = random.Random(16)
    bases = [random_kb(0), random_kb(1), random_kb(2, shuffled=True)]
    checked = {"empty": 0, "nonempty": 0, "unresolved": 0, "none resolve": 0}
    for kb in bases:
        for terms in _find_cases(kb, rng):
            naive = _naive_find(kb, terms)
            if naive is None:
                checked["none resolve"] += 1
                for strict in (True, False):
                    with pytest.raises(AllUnresolvedError):
                        search_constrained(kb, terms, strict=strict)
                with pytest.raises(AllUnresolvedError):
                    rewrite_constrained(kb, terms)
                continue
            lenient = search_constrained(kb, terms, strict=False)
            assert lenient == evaluate(kb, rewrite_constrained(kb, terms).rewritten) == naive
            unresolved = any(not naive_infer_attributes(kb, [normalize_term(t)]) for t in terms)
            checked["unresolved"] += unresolved
            checked["empty" if not naive else "nonempty"] += 1
            assert search_constrained(kb, terms, strict=True) == ([] if unresolved else lenient)
    assert all(count >= 3 for count in checked.values()), checked


def test_search_constrained_leaves_the_postings_unchanged(desk_kb):
    for kb in (desk_kb, random_kb(0, n_objects=300)):
        snapshot = copy.deepcopy(kb.postings)
        terms = sorted(kb.postings)
        assert 0 < sum(len(kb.postings[t]) == 1 for t in terms) < len(terms)
        largest = max(terms, key=lambda t: sum(map(len, kb.postings[t].values())))
        found = 0
        for strict in (True, False):
            for term in terms:  # under one attribute, a term's union is its posting
                found += len(search_constrained(kb, [term], strict=strict))
                found += len(search_constrained(kb, [term, largest, "zzz"], strict=strict))
            for together in filter(None, map(_held_terms, kb.objects.values())):
                found += len(search_constrained(kb, together, strict=strict))
                found += len(search_constrained(kb, together[:2], strict=strict))
        assert found
        assert kb.postings == snapshot


# ---------------------------------------------------------------- stored-list view


def test_stored_list_rewrite_shows_full_lists(desk_kb):
    report = rewrite_constrained(
        desk_kb, ["désinformation", "protection du patrimoine", "pertinent"]
    )
    assert stored_list_rewrite(desk_kb, report) == (
        '("mots-clés", ["désinformation", "intelligence stratégique", "décision"])'
        ' ET ("mots-clés", ["désinformation", "intelligence stratégique",'
        ' "décision", "protection du patrimoine"])'
        ' ET (("ordonner", [("pauvre", 0), ("faible", 1), ("moyen", 2),'
        ' ("riche", 3), ("pertinent", 4)]) OU ("souligner", ["pertinent"]))'
    )


def test_stored_list_rewrite_skips_unresolved(desk_kb):
    report = rewrite_constrained(desk_kb, ["zzz", "alain juillet"])
    text = stored_list_rewrite(desk_kb, report)
    assert text == '("auteur", ["alain juillet"])'
