"""Core model: normalization, classification, object building."""

import random
import sys

import pytest
from hypothesis import given, strategies as st

from annote_kb import (
    ActionKind,
    AnnotationContext,
    AnnotationMeta,
    AnnotationObject,
    AnnotatorProfile,
    AnnotatorRole,
    AVPair,
    EmptyAttributeError,
    EmptyTermError,
    Explicitness,
    IMPORT_META,
    InvalidIdError,
    InvalidPairError,
    LineBreakError,
    Value,
    as_value,
    build_object,
    classify,
    is_explicit_pair,
    make_pair,
    normalize_attribute,
    normalize_term,
)

FRENCH_TEXT = st.text(
    alphabet="abcdefghij KLMNOPQ 0123456789 éèêëàâîïôùûç œÉÈÀÇŒß '\"\\-",
    min_size=1,
    max_size=30,
)


# ---------------------------------------------------------------- terms


def test_normalize_term_folds_case_and_trims():
    assert normalize_term("  Stratégie ") == "stratégie"
    assert normalize_term("DÉCISION") == "décision"
    assert normalize_term("Alain Juillet") == "alain juillet"


def test_normalize_term_composes_nfc():
    # e + combining acute accent composes to é
    assert normalize_term("décision") == "décision"


def test_normalize_term_keeps_accents_and_inner_spacing():
    assert normalize_term("protection du patrimoine") == "protection du patrimoine"
    assert normalize_term("intelligence stratégique") == "intelligence stratégique"


def test_normalize_term_blank_raises():
    for raw in ("", "   ", "\t\n"):
        with pytest.raises(EmptyTermError):
            normalize_term(raw)


def test_normalize_attribute_unifies_spaces_and_hyphens():
    assert normalize_attribute("mots clés") == "mots-clés"
    assert normalize_attribute("Mots-Clés") == "mots-clés"
    assert normalize_attribute("mots  -  clés") == "mots-clés"
    assert normalize_attribute(" souligner ") == "souligner"


def test_normalize_attribute_blank_raises():
    for raw in ("", "  ", "-", " - -- "):
        with pytest.raises(EmptyAttributeError):
            normalize_attribute(raw)


# Whatever str.splitlines cuts a fact file on could not be saved.
LINE_BREAKS = [c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) == 2]


def test_line_breaks_in_terms_and_annotator_names_raise():
    assert len(LINE_BREAKS) == 10
    for c in LINE_BREAKS:
        with pytest.raises(LineBreakError):
            normalize_term(f"a{c}b")
        with pytest.raises(LineBreakError):
            make_pair("a", ["x", f"y{c}z"])
        with pytest.raises(LineBreakError):
            AnnotatorProfile("v1", f"Anne{c}Dupont", AnnotatorRole.VEILLEUR)
        assert normalize_term(f"{c}ab{c}") == "ab"  # trimmed away, nothing left inside
        assert normalize_attribute(f"a{c}b") == "a-b"  # a separator, like any space


def test_bare_values_and_pairs_refuse_line_breaks():
    # Saved as is, such a term or attribute would split its annotation line:
    # the term below would declare a document d9 nobody added.
    with pytest.raises(LineBreakError):
        AVPair("a", (Value("x\ndocument(d9, secondary).\n%"),))
    with pytest.raises(LineBreakError):
        AVPair('b\nannotation(n9, "c", ["y"], d9).\n%', (Value("x"),))
    for c in LINE_BREAKS:
        with pytest.raises(LineBreakError):
            Value(f"a{c}b")
        with pytest.raises(LineBreakError):
            Value(f"a{c}b", 1)
        with pytest.raises(LineBreakError):
            AVPair(f"a{c}b", ())
    assert AVPair(None, (Value("x"),)).attribute is None


@given(FRENCH_TEXT)
def test_normalize_term_idempotent_and_case_insensitive(raw):
    try:
        once = normalize_term(raw)
    except EmptyTermError:
        return
    assert normalize_term(once) == once
    assert normalize_term(raw.upper()) == once


@given(FRENCH_TEXT)
def test_normalize_attribute_idempotent_and_case_insensitive(raw):
    try:
        once = normalize_attribute(raw)
    except EmptyAttributeError:
        return
    assert normalize_attribute(once) == once
    assert normalize_attribute(raw.upper()) == once


# ---------------------------------------------------------------- values and pairs


def test_as_value_coercions():
    assert as_value("Pertinent ") == Value("pertinent")
    assert as_value(("Pauvre", 0)) == Value("pauvre", 0)
    assert as_value(Value("RICHE", 3)) == Value("riche", 3)


def test_value_rank_is_kept_but_distinct():
    assert Value("pauvre", 0) != Value("pauvre", 1)
    assert Value("pauvre", 0).term == Value("pauvre", 1).term


@pytest.mark.parametrize(
    "rank",
    [True, False, 1.0, "1", 10**640, -(10**640), 10**5000],
    ids=["True", "False", "1.0", "'1'", "10**640", "-10**640", "10**5000"],  # str() refuses 10**5000
)
def test_value_refuses_a_rank_a_fact_file_cannot_hold(rank):
    with pytest.raises(ValueError, match="rank"):
        Value("x", rank)


def test_make_pair_refuses_a_rank_too_long_to_save():
    with pytest.raises(ValueError, match="rank longer than 640 digits"):
        make_pair("k", [("x", 10**5000)])


def test_make_pair_normalizes_both_sides():
    pair = make_pair("Mots Clés", ["ATN", ("Pertinent", 4)])
    assert pair.attribute == "mots-clés"
    assert pair.values == (Value("atn"), Value("pertinent", 4))


def test_make_pair_accepts_missing_sides():
    assert make_pair(None, ["x"]).attribute is None
    assert make_pair("a", []).values == ()


# ---------------------------------------------------------------- classification


def _obj(pairs) -> AnnotationObject:
    return AnnotationObject("x", "doc", tuple(pairs), IMPORT_META)


def test_classify_explicit():
    obj = _obj([make_pair("souligner", ["stratégie", "développement"])])
    assert classify(obj) is Explicitness.EXPLICIT


def test_classify_implicit_missing_attribute():
    assert classify(_obj([AVPair(None, (Value("pertinent"),))])) is Explicitness.IMPLICIT


def test_classify_implicit_missing_values():
    assert classify(_obj([AVPair("ordonner", ())])) is Explicitness.IMPLICIT


def test_classify_invalid_empty_pair():
    assert classify(_obj([AVPair(None, ())])) is Explicitness.INVALID


def test_classify_invalid_no_pairs():
    assert classify(_obj([])) is Explicitness.INVALID


def test_classify_mixed_pairs_is_implicit():
    pairs = [make_pair("a", ["x"]), AVPair("b", ())]
    assert classify(_obj(pairs)) is Explicitness.IMPLICIT


def test_classify_empty_pair_dominates():
    pairs = [make_pair("a", ["x"]), AVPair(None, ())]
    assert classify(_obj(pairs)) is Explicitness.INVALID


def _expected_state(pairs):
    if not pairs:
        return Explicitness.INVALID
    if any(p.attribute is None and not p.values for p in pairs):
        return Explicitness.INVALID
    if all(p.attribute is not None and p.values for p in pairs):
        return Explicitness.EXPLICIT
    return Explicitness.IMPLICIT


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=3)),
        max_size=5,
    )
)
def test_classify_is_total_and_exclusive(shape):
    pairs = tuple(
        AVPair("a" if has_attr else None, tuple(Value(f"t{i}") for i in range(n_values)))
        for has_attr, n_values in shape
    )
    state = classify(_obj(pairs))
    assert state in (Explicitness.EXPLICIT, Explicitness.IMPLICIT, Explicitness.INVALID)
    assert state is _expected_state(pairs)


def test_is_explicit_pair():
    assert is_explicit_pair(make_pair("a", ["x"]))
    assert not is_explicit_pair(AVPair(None, (Value("x"),)))
    assert not is_explicit_pair(AVPair("a", ()))


# ---------------------------------------------------------------- build_object


def _meta() -> AnnotationMeta:
    return AnnotationMeta(
        annotator_id="veilleur_01",
        action=ActionKind.INDEXER,
        context=AnnotationContext.RECHERCHE_INFO,
        timestamp="2008-02-14T10:00:00+00:00",
    )


def test_build_object_normalizes_and_sets_action():
    obj = build_object(
        ActionKind.INDEXER,
        "doc_B",
        [("Mots Clés", ["ATN", "formalisme", "analyse"])],
        _meta(),
    )
    assert obj.target == "doc_B"
    assert obj.pairs[0].attribute == "mots-clés"
    assert obj.pairs[0].values[0] == Value("atn")
    assert obj.meta.action is ActionKind.INDEXER
    assert classify(obj) is Explicitness.EXPLICIT


def test_build_object_fresh_ids_are_unique():
    seen = {build_object(ActionKind.INDEXER, "d", [("a", ["x"])], _meta()).id for _ in range(50)}
    assert len(seen) == 50


def test_build_object_accepts_explicit_id():
    obj = build_object(ActionKind.INDEXER, "d", [("a", ["x"])], _meta(), object_id="n1")
    assert obj.id == "n1"


def test_build_object_keeps_implicit_pairs_but_never_invalid():
    obj = build_object(ActionKind.INDEXER, "d", [AVPair(None, (Value("Pertinent"),))], _meta())
    assert classify(obj) is Explicitness.IMPLICIT
    assert obj.pairs[0].values[0].term == "pertinent"


def test_build_object_rejects_empty_target():
    for target in ("", "  "):
        with pytest.raises(InvalidIdError):
            build_object(ActionKind.INDEXER, target, [("a", ["x"])], _meta())


def test_build_object_rejects_empty_pair_list():
    with pytest.raises(InvalidPairError):
        build_object(ActionKind.INDEXER, "d", [], _meta())


def test_build_object_rejects_pair_with_neither_side():
    with pytest.raises(InvalidPairError):
        build_object(ActionKind.INDEXER, "d", [(None, [])], _meta())


def test_annotation_cannot_target_itself():
    with pytest.raises(ValueError):
        AnnotationObject("n1", "n1", (make_pair("a", ["x"]),), IMPORT_META)


def test_meta_requires_annotator_id():
    with pytest.raises(ValueError):
        AnnotationMeta(annotator_id="", action=ActionKind.INDEXER)


def test_meta_autre_action_requires_detail():
    with pytest.raises(ValueError):
        AnnotationMeta(annotator_id="a1", action=ActionKind.AUTRE)
    meta = AnnotationMeta(annotator_id="a1", action=ActionKind.AUTRE, action_detail="tri manuel")
    assert meta.action_detail == "tri manuel"


def test_classify_bulk_random_never_raises():
    rng = random.Random(7)
    for _ in range(500):
        pairs = tuple(
            AVPair(
                "a" if rng.random() < 0.7 else None,
                tuple(Value(f"t{k}") for k in range(rng.randrange(3))),
            )
            for _ in range(rng.randrange(4))
        )
        assert classify(_obj(pairs)) is _expected_state(pairs)
