"""Fact file grammar: lenient loading with diagnostics, canonical saving."""

import contextlib
import gc
import random
import re
import sys
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from annote_kb import (
    ActionKind,
    AnnotatorProfile,
    AnnotatorRole,
    AnnotationObject,
    AVPair,
    CyclicTargetError,
    DocumentRecord,
    DocumentTier,
    DuplicateIdError,
    EmptyAttributeError,
    EmptyTermError,
    IMPORT_META,
    InvalidIdError,
    KnowledgeBase,
    LineBreakError,
    Value,
    build_object,
    load_facts,
    load_facts_into,
    make_pair,
    normalize_attribute,
    normalize_term,
    save_facts,
)
from annote_kb.factfile import HEADER
from genkb import random_kb
from oracles import kb_state, naive_save_facts
from test_factfile_golden import fuzz_corpus

import pytest


THREE_FACTS = """\
annotation(note_91007, "souligner", ["stratégie", "développement"], doc_A).
annotation(note_71007, "mots clés", ["ATN", "formalisme", "analyse"], doc_B).
annotation(note_56007, "ordonner", [("pauvre", 0), ("faible", 1), ("moyen", 2), ("riche", 3), ("pertinent", 4)], doc_C).
"""


def test_loads_three_facts():
    result = load_facts(THREE_FACTS)
    assert not result.diagnostics
    assert result.loaded == 3
    kb = result.kb
    assert kb.objects["note_91007"].pairs == (
        make_pair("souligner", ["stratégie", "développement"]),
    )
    assert kb.objects["note_71007"].pairs[0].attribute == "mots-clés"
    assert kb.objects["note_56007"].pairs[0].values == (
        Value("pauvre", 0),
        Value("faible", 1),
        Value("moyen", 2),
        Value("riche", 3),
        Value("pertinent", 4),
    )


def test_desk_fixture_loads_clean(desk_text):
    result = load_facts(desk_text)
    assert not result.diagnostics
    assert result.loaded == 7
    assert result.kb.documents["doc_B"].tier is DocumentTier.SECONDARY
    assert result.kb.annotators["veilleur_01"].role is AnnotatorRole.VEILLEUR


def test_empty_and_comment_only_input():
    for text in ("", "\n\n", "% nothing here\n"):
        result = load_facts(text)
        assert not result.diagnostics
        assert len(result.kb) == 0


def test_pair_with_neither_side_is_rejected():
    result = load_facts("annotation(n1, _, [], d1).\n")
    assert len(result.kb) == 0
    (diag,) = result.diagnostics
    assert diag.line == 1
    assert "neither attribute nor values" in diag.reason


def test_missing_attribute_pair_loads():
    result = load_facts('annotation(n1, _, ["pertinent"], d1).\n')
    assert not result.diagnostics
    assert result.kb.objects["n1"].pairs == (AVPair(None, (Value("pertinent"),)),)


def test_missing_values_pair_loads():
    result = load_facts('annotation(n1, "ordonner", [], d1).\n')
    assert not result.diagnostics
    assert result.kb.objects["n1"].pairs == (AVPair("ordonner", ()),)


def test_consecutive_lines_merge_into_one_object():
    text = (
        'annotation(n1, "auteur", ["alain juillet"], d1).\n'
        'annotation(n1, "mots-clés", ["décision"], d1).\n'
    )
    result = load_facts(text)
    assert not result.diagnostics
    assert result.loaded == 1
    assert [p.attribute for p in result.kb.objects["n1"].pairs] == ["auteur", "mots-clés"]


def test_comment_between_group_lines_does_not_split():
    text = (
        'annotation(n1, "a", ["x"], d1).\n'
        "% annotation continues\n"
        'annotation(n1, "b", ["y"], d1).\n'
    )
    result = load_facts(text)
    assert not result.diagnostics
    assert len(result.kb.objects["n1"].pairs) == 2


def test_lines_between_two_lines_of_one_object_do_not_end_its_group():
    result = load_facts(
        'annotation(n1, "a", ["x"], d1).\n'
        "document(d2, secondary).\n"
        'annotator(v1, "Anne", veilleur).\n'
        "\n"
        'annotation(n1, "b", ["y"] d1).\n'
        'annotation(n1, "b", ["y"], n1).\n'
        "annotation(n1, _, [], d1).\n"
        'annotation(n1, "b", ["y"], d3).\n'
        'annotation(n1, "c", ["z"], d1).\n'
    )
    assert result.loaded == 1
    assert result.kb.objects["n1"].pairs == (make_pair("a", ["x"]), make_pair("c", ["z"]))
    assert result.kb.documents["d2"].tier is DocumentTier.SECONDARY
    assert "v1" in result.kb.annotators
    assert [(d.line, d.reason) for d in result.diagnostics] == [
        (5, "expected ','"),
        (6, "annotation n1 cannot annotate itself"),
        (7, "invalid object: pair has neither attribute nor values"),
        (8, "conflicting target for n1: d3 after d1"),
    ]


def test_non_consecutive_duplicate_is_rejected():
    text = (
        'annotation(n1, "a", ["x"], d1).\n'
        'annotation(n2, "b", ["y"], d1).\n'
        'annotation(n1, "c", ["z"], d1).\n'
    )
    result = load_facts(text)
    assert sorted(result.kb.objects) == ["n1", "n2"]
    (diag,) = result.diagnostics
    assert diag.line == 3
    assert "already present" in diag.reason


def test_conflicting_target_within_group_is_rejected():
    text = (
        'annotation(n1, "a", ["x"], d1).\n'
        'annotation(n1, "b", ["y"], d2).\n'
    )
    result = load_facts(text)
    (diag,) = result.diagnostics
    assert diag.line == 2
    assert "conflicting target" in diag.reason
    assert result.kb.objects["n1"].target == "d1"
    assert len(result.kb.objects["n1"].pairs) == 1


def test_self_targeting_line_is_rejected():
    result = load_facts('annotation(n1, "a", ["x"], n1).\n')
    assert len(result.kb) == 0
    assert "annotate itself" in result.diagnostics[0].reason


def test_cycle_across_lines_is_rejected():
    text = (
        'annotation(a, "k", ["v"], b).\n'
        'annotation(b, "k", ["v"], a).\n'
    )
    result = load_facts(text)
    assert sorted(result.kb.objects) == ["a"]
    (diag,) = result.diagnostics
    assert diag.line == 2
    assert "loops back" in diag.reason


def test_syntax_diagnostics_carry_position():
    result = load_facts('annotation(n1 "a", ["x"], d1).\n')
    (diag,) = result.diagnostics
    assert diag.line == 1
    assert diag.column == 15  # where the comma should be
    assert "','" in diag.reason


def test_unterminated_string_diagnostic():
    result = load_facts('annotation(n1, "a, ["x"], d1).\n')
    assert result.diagnostics  # unterminated / malformed string reported
    assert len(result.kb) == 0


def test_bad_escape_diagnostic():
    result = load_facts('annotation(n1, "a\\n", ["x"], d1).\n')
    (diag,) = result.diagnostics
    assert "\\" in diag.reason


def test_blank_term_diagnostic():
    result = load_facts('annotation(n1, "a", ["  "], d1).\n')
    (diag,) = result.diagnostics
    assert "blank" in diag.reason


@pytest.mark.parametrize("int_digits", [0, 640, 4300, 100_000])
def test_ranks_past_640_digits_are_diagnostics_under_any_int_limit(int_digits):
    longest = "9" * 640
    kept = f'annotation(n1, "a", [("x", {longest}), ("y", -{longest})], d1).\n'
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(int_digits)
    try:
        result = load_facts(kept)
        saved = save_facts(result.kb)
        rejected = []
        for rank in ("1" + "0" * 640, "-" + "9" * 641, "0" * 5000 + "1", "1" * 5000):
            line = f'annotation(n1, "a", ["x", ("y", {rank})], d1).\n'
            (diag,) = load_facts(line).diagnostics
            rejected.append((diag.column, line.index(rank) + 1, diag.reason))
    finally:
        sys.set_int_max_str_digits(limit)
    assert not result.diagnostics
    assert [v.rank for v in result.kb.objects["n1"].pairs[0].values] == [int(longest), -int(longest)]
    assert saved.endswith(kept)
    for column, rank_column, reason in rejected:
        assert column == rank_column
        assert reason == "rank longer than 640 digits"


def test_unknown_clause_diagnostic():
    result = load_facts("fact(n1).\n")
    (diag,) = result.diagnostics
    assert "unknown clause" in diag.reason


def test_trailing_junk_diagnostic():
    result = load_facts('annotation(n1, "a", ["x"], d1). extra\n')
    (diag,) = result.diagnostics
    assert "after '.'" in diag.reason


def test_document_line_tier_rules():
    result = load_facts(
        "document(doc_X, secondary).\n"
        "document(doc_Y, nowhere).\n"
        "document(ghost, tertiary).\n"
        'annotation(n1, "a", ["x"], doc_X).\n'
        "document(n1, tertiary).\n"
    )
    kb = result.kb
    assert kb.documents["doc_X"].tier is DocumentTier.SECONDARY
    assert "ghost" not in kb.documents
    assert "n1" not in kb.documents  # its tertiary tier is derived, not stored
    reasons = " | ".join(d.reason for d in result.diagnostics)
    assert "unknown document tier" in reasons
    assert "not an annotation" in reasons
    assert len(result.diagnostics) == 2


def test_document_line_cannot_demote_annotation():
    result = load_facts(
        'annotation(n1, "a", ["x"], d).\n'
        "document(n1, primary).\n"
    )
    (diag,) = result.diagnostics
    assert "stays tertiary" in diag.reason
    assert result.kb.document("n1").tier is DocumentTier.TERTIARY


def test_annotator_lines():
    result = load_facts(
        'annotator(v1, "Anne Dupont", veilleur).\n'
        'annotator(v1, "Someone Else", analyste).\n'
        'annotator(v2, "Marc \\"Le Sage\\" Petit", autre).\n'
        'annotator(v3, "X", chef).\n'
    )
    kb = result.kb
    assert kb.annotators["v1"].name == "Anne Dupont"
    assert kb.annotators["v2"].name == 'Marc "Le Sage" Petit'
    reasons = " | ".join(d.reason for d in result.diagnostics)
    assert "already declared" in reasons
    assert "unknown annotator role" in reasons


def test_loading_continues_after_bad_lines():
    text = (
        "nonsense here\n"
        'annotation(n1, "a", ["x"], d1).\n'
        "annotation(broken\n"
        'annotation(n2, "b", ["y"], d2).\n'
    )
    result = load_facts(text)
    assert sorted(result.kb.objects) == ["n1", "n2"]
    assert len(result.diagnostics) == 2
    assert [d.line for d in result.diagnostics] == [1, 3]


def test_every_line_of_a_rejected_group_is_reported():
    result = load_facts(
        'annotation(n1, "a", ["x"], d).\n'
        'annotation(n2, "a", ["y"], d).\n'
        'annotation(n1, "b", ["z"], d).\n'
        'annotation(n1, "c", ["w"], d).\n'
    )
    assert sorted(result.kb.objects) == ["n1", "n2"]
    assert result.kb.objects["n1"].pairs == (make_pair("a", ["x"]),)
    assert [(d.line, d.column, d.reason) for d in result.diagnostics] == [
        (3, 1, "object id already present: n1"),
        (4, 1, "object id already present: n1"),
    ]


def test_rejected_group_reports_each_line_once():
    result = load_facts(
        'annotation(a, "k", ["v"], b).\n'
        'annotation(b, "k", ["v"], a).\n'  # closes a cycle: the group is dropped
        'annotation(b, "k", ["w"], d).\n'  # conflicting target, rejected at once
        "% a comment does not end the group\n"
        'annotation(b, "j", ["u"], a).\n'
    )
    assert sorted(result.kb.objects) == ["a"]
    cycle = "target chain of b loops back onto itself"
    assert [(d.line, d.reason) for d in result.diagnostics] == [
        (2, cycle),
        (3, "conflicting target for b: d after a"),
        (5, cycle),
    ]


def test_save_empty_kb_is_header_only():
    assert save_facts(KnowledgeBase()) == HEADER + "\n"


def test_save_load_golden_bytes(desk_text, desk_canonical):
    kb = load_facts(desk_text).kb
    assert save_facts(kb) == desk_canonical


def test_save_is_fixpoint(desk_text):
    first = save_facts(load_facts(desk_text).kb)
    second = save_facts(load_facts(first).kb)
    assert first == second


def test_save_rejects_unrepresentable_id():
    # An id a fact file cannot hold is refused where it enters the model,
    # so save_facts never meets one.
    pairs = (make_pair("a", ["x"]), make_pair("b", ["y"]))
    raw_pairs = [("a", ["x"])]
    for bad in ("bad id", "z z", "a a", "y y", "d 1", "n2 bad", "", "n1\n", "a-b", "é"):
        for make in (
            lambda: AnnotationObject(bad, "d", pairs, IMPORT_META),
            lambda: AnnotationObject("n1", bad, pairs, IMPORT_META),
            lambda: DocumentRecord(bad, DocumentTier.PRIMARY),
            lambda: AnnotatorProfile(bad, "Anne Dupont", AnnotatorRole.VEILLEUR),
            lambda: build_object(ActionKind.INDEXER, bad, raw_pairs, IMPORT_META),
            lambda: build_object(ActionKind.INDEXER, "d", raw_pairs, IMPORT_META, object_id=bad),
        ):
            with pytest.raises(InvalidIdError) as refused:
                make()
            assert refused.value.some_id == bad


def test_save_matches_pair_by_pair_rendering(desk_kb):
    assert save_facts(desk_kb) == naive_save_facts(desk_kb)
    for seed in range(3):
        for shuffled in (False, True):
            kb = random_kb(seed, n_objects=300, shuffled=shuffled)
            assert save_facts(kb) == naive_save_facts(kb)


def test_save_quotes_each_spelling_like_pair_by_pair_rendering():
    # Memo mix-ups would show on escaped spellings and on a term saved
    # both bare and ranked.
    attributes = ['le-"mot"', "barre\\oblique", "x", "a-\\\""]
    terms = ['le "mot"', "barre \\ oblique", '\\"', "x", "_", "plain"]
    kb = random_kb(5, n_objects=200, attributes=attributes, terms=terms)
    values = [v for obj in kb.objects.values() for pair in obj.pairs for v in pair.values]
    assert {v.term for v in values if v.rank is None} & {v.term for v in values if v.rank is not None}
    kb.add_annotator(AnnotatorProfile("v1", 'nom "bizarre" \\', AnnotatorRole.AUTRE))
    assert save_facts(kb) == naive_save_facts(kb)
    assert kb_state(load_facts(save_facts(kb)).kb) == kb_state(kb)


def _batch(seed: int, n: int) -> str:
    """Fact text of 40 random objects under ids no random_kb base holds."""
    return re.sub(r"\bobj(?=\d{5}\b)", f"b{n}_", save_facts(random_kb(seed, n_objects=40)))


def _saves_like_the_oracle(*kbs: KnowledgeBase) -> None:
    for kb in kbs:
        text = save_facts(kb)
        assert text == naive_save_facts(kb)
        assert save_facts(load_facts(text).kb) == text


@pytest.mark.parametrize("seed, shuffled", [(0, False), (1, True), (2, False)])
def test_saving_again_writes_no_stale_or_missing_text(seed, shuffled):
    # save_facts keeps each object's text for the next save of its base.
    kb = random_kb(seed, n_objects=300, shuffled=shuffled)
    _saves_like_the_oracle(kb)
    kb.insert(AnnotationObject("obj00150a", "doc001", (make_pair("ajout", ["x"]),), IMPORT_META))
    _saves_like_the_oracle(kb)
    assert load_facts_into(kb, _batch(seed + 10, 1)).loaded == 40
    _saves_like_the_oracle(kb)
    kb.add_document(DocumentRecord("doc999", DocumentTier.SECONDARY))
    kb.add_annotator(AnnotatorProfile("v9", "Anne Dupont", AnnotatorRole.VEILLEUR))
    _saves_like_the_oracle(kb)
    dup = kb.copy()
    _saves_like_the_oracle(dup)
    # One new id, a different object on each side of the copy.
    kb.insert(AnnotationObject("n_new", "doc002", (make_pair("a", ["base"]),), IMPORT_META))
    _saves_like_the_oracle(kb)
    dup.insert(AnnotationObject("n_new", "doc003", (make_pair("b", ["copie"]),), IMPORT_META))
    _saves_like_the_oracle(dup, kb, dup)
    assert load_facts_into(dup, _batch(seed + 20, 2)).loaded == 40
    _saves_like_the_oracle(dup, kb)
    # objects is a plain dict: an object put there under a saved id is
    # written afresh, not as the text kept for the one it replaced.
    oid = kb.sorted_ids()[7]
    kb.objects[oid] = replace(kb.objects[oid], pairs=(make_pair("remplacé", ["y"]),))
    _saves_like_the_oracle(kb)


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_load_leaves_the_collector_as_it_found_it(collecting):
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        load_facts('annotation(n1, "a", ["x"], d1).\n')
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_load_restores_the_collector_when_it_raises(monkeypatch):
    def refuse(self, obj):
        raise RuntimeError("insert failed")

    monkeypatch.setattr(KnowledgeBase, "insert", refuse)
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        load_facts('annotation(n1, "a", ["x"], d1).\n')
    assert gc.isenabled()


def test_loading_makes_no_cyclic_garbage():
    # Why pausing the collector during a load loses nothing: no cycle is left.
    corpus = fuzz_corpus()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = load_facts(corpus)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert result.loaded > 1000 and result.diagnostics


def test_load_facts_into_merges():
    kb = load_facts('annotation(n1, "a", ["x"], d1).\n').kb
    result = load_facts_into(kb, 'annotation(n2, "b", ["y"], d2).\n')
    assert result.kb is kb
    assert sorted(kb.objects) == ["n1", "n2"]
    again = load_facts_into(kb, 'annotation(n2, "b", ["y"], d2).\n')
    assert again.loaded == 0
    assert "already present" in again.diagnostics[0].reason


def test_escapes_round_trip():
    kb = KnowledgeBase()
    pair = make_pair('ti\\tre "special"', ['va\\l "x"', ("clef: \\", 2)])
    kb.insert(AnnotationObject("n1", "d1", (pair,), IMPORT_META))
    kb.add_annotator(AnnotatorProfile("a1", 'nom "bizarre" \\', AnnotatorRole.AUTRE))
    reloaded = load_facts(save_facts(kb))
    assert not reloaded.diagnostics
    assert kb_state(reloaded.kb) == kb_state(kb)


def test_longest_negative_rank_round_trips():
    rank = -(10**640 - 1)
    kb = KnowledgeBase()
    kb.insert(AnnotationObject("n1", "d1", (make_pair("k", [("x", rank)]),), IMPORT_META))
    reloaded = load_facts(save_facts(kb))
    assert not reloaded.diagnostics
    assert reloaded.kb.objects["n1"].pairs[0].values == (Value("x", rank),)


def test_plain_string_tier_and_role_are_coerced():
    kb = KnowledgeBase()
    kb.add_document(DocumentRecord("d1", "primary"))
    kb.add_annotator(AnnotatorProfile("u1", "Ann", "analyste"))
    assert kb.documents["d1"].tier is DocumentTier.PRIMARY
    assert kb.annotators["u1"].role is AnnotatorRole.ANALYSTE
    assert save_facts(kb) == f'{HEADER}\ndocument(d1, primary).\nannotator(u1, "Ann", analyste).\n'
    with pytest.raises(ValueError, match="not an annotation"):
        kb.add_document(DocumentRecord("d2", "tertiary"))
    with pytest.raises(ValueError):
        DocumentRecord("d3", "Primary")
    with pytest.raises(ValueError):
        AnnotatorProfile("u2", "Bob", "chef")


def test_random_kbs_round_trip_index_identical():
    for seed in range(5):
        kb = random_kb(seed, n_objects=60)
        kb.add_document(DocumentRecord("doc000", DocumentTier.SECONDARY))
        kb.add_annotator(AnnotatorProfile("v1", "Anne Dupont", AnnotatorRole.VEILLEUR))
        text = save_facts(kb)
        reloaded = load_facts(text)
        assert not reloaded.diagnostics
        assert kb_state(reloaded.kb) == kb_state(kb)
        assert save_facts(reloaded.kb) == text


@pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
def test_reloaded_base_holds_the_same_document_records(shuffled):
    # Insertion order decides whether a target is stored as primary before
    # its id becomes an annotation; the reloaded base must not tell.
    kb = random_kb(1, n_objects=2000, shuffled=shuffled)
    assert load_facts(save_facts(kb)).kb.documents == kb.documents


# What str.splitlines cuts a fact file on.  Attribute names collapse these
# like any space; a term or annotator name that keeps one must be refused.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_chars = st.sampled_from("abcdé \\\"-xyz" * 3 + LINE_BREAKS)
_term = st.text(alphabet=_chars, min_size=1, max_size=8).filter(lambda s: s.strip())

# attribute names must survive separator collapsing
_attr = _term.filter(lambda s: s.replace("-", " ").strip())


def _accepted(make, raw: str, stored: str):
    """make(raw), or None when the stored text would span lines in a fact
    file, which is exactly when make must raise LineBreakError."""
    if len(f"{stored}.".splitlines()) > 1:
        with pytest.raises(LineBreakError):
            make(raw)
        return None
    return make(raw)


@st.composite
def _mini_kb(draw):
    """A small base built through the API from drawn spellings, holding
    the terms and the annotator name that the API accepted."""
    kb = KnowledgeBase()
    n = draw(st.integers(min_value=1, max_value=6))
    for i in range(n):
        pairs = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            kind = draw(st.integers(min_value=0, max_value=2))
            values = []
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                raw = draw(_term)
                term = _accepted(normalize_term, raw, raw.strip())
                if term is not None:
                    values.append(Value(term, draw(st.none() | st.integers(-5, 5))))
            attribute = None if kind == 0 else normalize_attribute(draw(_attr))
            if kind == 1:
                values = []
            if attribute is not None or values:
                pairs.append(AVPair(attribute, tuple(values)))
        target = draw(st.sampled_from(["d1", "d2", "d3"]))
        if pairs:
            kb.insert(AnnotationObject(f"n{i}", target, tuple(pairs), IMPORT_META))
    name = draw(st.text(alphabet=_chars, max_size=8))
    profile = _accepted(lambda raw: AnnotatorProfile("v1", raw, AnnotatorRole.AUTRE), name, name)
    if profile is not None:
        kb.add_annotator(profile)
    return kb


@given(_mini_kb())
def test_round_trip_property(kb):
    text = save_facts(kb)
    reloaded = load_facts(text)
    assert not reloaded.diagnostics
    assert kb_state(reloaded.kb) == kb_state(kb)
    assert save_facts(reloaded.kb) == text


def _kept(make, raw: str):
    """make(raw), or None when the API refuses the spelling."""
    try:
        return make(raw)
    except (EmptyTermError, EmptyAttributeError, LineBreakError):
        return None


def accepted_spellings(normalize) -> st.SearchStrategy[str]:
    """normalize over any text, keeping the spellings it accepts."""
    return st.text().map(lambda raw: _kept(normalize, raw)).filter(bool)


_any_value = st.builds(Value, accepted_spellings(normalize_term), st.none() | st.integers())
_any_pair = st.builds(
    AVPair,
    st.none() | accepted_spellings(normalize_attribute),
    st.lists(_any_value, max_size=3).map(tuple),
).filter(lambda pair: pair.attribute is not None or pair.values)


# The id rule, stated apart from model.ID so that a wrong ID shows.
_ID_RULE = re.compile(r"[A-Za-z0-9_]+")
_any_id = st.text() | st.from_regex(_ID_RULE, fullmatch=True)


def _made(make, *ids):
    """make(*ids), or None when the API refuses one of the ids as
    InvalidIdError, which it must do exactly when one breaks the rule."""
    broken = [some_id for some_id in ids if not _ID_RULE.fullmatch(some_id)]
    try:
        made = make(*ids)
    except InvalidIdError as exc:
        assert exc.some_id in broken
        return None
    assert not broken
    return made


@st.composite
def _any_text_kb(draw):
    """A small base built through the API from any text it accepts as an
    id, an attribute, a term (ranked or bare) or an annotator name."""
    kb = KnowledgeBase()
    for doc_id in draw(st.lists(_any_id, max_size=2)):
        tier = draw(st.sampled_from([DocumentTier.PRIMARY, DocumentTier.SECONDARY]))
        record = _made(lambda some_id: DocumentRecord(some_id, tier), doc_id)
        if record is not None:
            kb.add_document(record)
    objects = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pairs = tuple(draw(st.lists(_any_pair, min_size=1, max_size=2)))
        object_id, target = draw(_any_id), draw(_any_id)
        if object_id == target:  # an annotation cannot annotate itself
            continue
        obj = _made(lambda *ids: AnnotationObject(*ids, pairs, IMPORT_META), object_id, target)
        if obj is not None:
            objects.append(obj)
    for obj in sorted(objects, key=lambda obj: obj.id):  # as kb_state needs, and a load does
        with contextlib.suppress(DuplicateIdError, CyclicTargetError):
            kb.insert(obj)
    annotator_id, name = draw(_any_id), draw(st.text())
    with contextlib.suppress(LineBreakError):  # a name the API refuses
        profile = _made(lambda *ids: AnnotatorProfile(*ids, name, AnnotatorRole.AUTRE), annotator_id)
        if profile is not None:
            kb.add_annotator(profile)
    return kb


@settings(max_examples=300)
@given(_any_text_kb())
def test_round_trip_property_over_any_accepted_text(kb):
    text = save_facts(kb)
    reloaded = load_facts(text)
    assert not reloaded.diagnostics
    assert kb_state(reloaded.kb) == kb_state(kb)
    assert save_facts(reloaded.kb) == text
