"""Explicitation: attribute inference, value inference, candidate objects."""

import gc
import random

import pytest

from annote_kb import (
    AnnotationObject,
    AVPair,
    Explicitness,
    IMPORT_META,
    KnowledgeBase,
    NoCandidatesError,
    NotImplicitError,
    Value,
    classify,
    explicate,
    infer_attributes,
    infer_values,
    load_facts,
    make_pair,
    matches,
    Criterion,
)
from genkb import ATTRIBUTES, TERMS, random_kb
from oracles import naive_explicate, naive_infer_attributes, naive_infer_values


def obj(oid, target, pairs) -> AnnotationObject:
    built = tuple(p if isinstance(p, AVPair) else make_pair(*p) for p in pairs)
    return AnnotationObject(oid, target, built, IMPORT_META)


# ---------------------------------------------------------------- infer_attributes


def test_infer_attributes_for_pertinent(desk_kb):
    found = infer_attributes(desk_kb, ["pertinent"])
    assert [(c.attribute, c.support) for c in found] == [
        ("ordonner", ("note_56007",)),
        ("souligner", ("note_211",)),
    ]


def test_infer_attributes_single_candidate(desk_kb):
    found = infer_attributes(desk_kb, ["désinformation"])
    assert [(c.attribute, c.support) for c in found] == [
        ("mots-clés", ("note_008", "note_211", "note_702")),
    ]


def test_infer_attributes_conjunction_needs_one_covering_pair(desk_kb):
    found = infer_attributes(desk_kb, ["désinformation", "protection du patrimoine"])
    assert [(c.attribute, c.support) for c in found] == [("mots-clés", ("note_211",))]
    # spread across different objects is not enough
    assert infer_attributes(desk_kb, ["stratégie", "pertinent"]) == []


def test_infer_attributes_split_across_pairs_does_not_count():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("k", ["a"]), ("k", ["b"])]))
    assert infer_attributes(kb, ["a", "b"]) == []
    assert [c.attribute for c in infer_attributes(kb, ["a"])] == ["k"]


def test_infer_attributes_no_evidence(desk_kb):
    assert infer_attributes(desk_kb, ["zzz"]) == []


def test_infer_attributes_normalizes_input(desk_kb):
    found = infer_attributes(desk_kb, ["  PERTINENT "])
    assert {c.attribute for c in found} == {"ordonner", "souligner"}


def test_infer_attributes_requires_terms(desk_kb):
    with pytest.raises(ValueError):
        infer_attributes(desk_kb, [])


def test_infer_attributes_refuses_a_bare_str(desk_kb):
    # A str is iterable, so it would be read as one term per character.
    with pytest.raises(TypeError, match="list of terms"):
        infer_attributes(desk_kb, "pertinent")


def test_infer_attributes_ranking_support_then_name():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("beta", ["x"])]))
    kb.insert(obj("n2", "d", [("beta", ["x", "y"])]))
    kb.insert(obj("n3", "d", [("alpha", ["x"])]))
    kb.insert(obj("n4", "d", [("gamma", ["x"])]))
    found = infer_attributes(kb, ["x"])
    assert [c.attribute for c in found] == ["beta", "alpha", "gamma"]
    assert found[0].support == ("n1", "n2")
    assert found[0].support_count == 2


def test_infer_attributes_soundness(desk_kb):
    for terms in (["pertinent"], ["désinformation"], ["décision", "désinformation"]):
        for candidate in infer_attributes(desk_kb, terms):
            for oid in candidate.support:
                criterion = Criterion(candidate.attribute, tuple(terms))
                assert matches(desk_kb.objects[oid], criterion)


# ---------------------------------------------------------------- infer_values


def test_infer_values_weighted_scale(desk_kb):
    found = infer_values(desk_kb, "ordonner")
    assert len(found) == 1
    assert found[0].values == (
        Value("pauvre", 0),
        Value("faible", 1),
        Value("moyen", 2),
        Value("riche", 3),
        Value("pertinent", 4),
    )
    assert found[0].support == ("note_56007",)


def test_infer_values_souligner_lists(desk_kb):
    found = infer_values(desk_kb, "souligner")
    as_pairs = [([v.term for v in c.values], c.support) for c in found]
    assert (["stratégie", "développement"], ("note_91007",)) in as_pairs
    assert (["pertinent"], ("note_211",)) in as_pairs
    assert len(found) == 2


def test_infer_values_unknown_attribute(desk_kb):
    assert infer_values(desk_kb, "inconnu") == []


def test_infer_values_normalizes_attribute(desk_kb):
    assert infer_values(desk_kb, "Mots Clés")  # finds the mots-clés lists


def test_infer_values_identical_lists_merge():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("k", ["a", "b"])]))
    kb.insert(obj("n2", "d", [("k", ["a", "b"])]))
    kb.insert(obj("n3", "d", [("k", ["a"])]))
    found = infer_values(kb, "k")
    assert [(tuple(v.term for v in c.values), c.support) for c in found] == [
        (("a", "b"), ("n1", "n2")),
        (("a",), ("n3",)),
    ]


def test_infer_values_rank_distinguishes_lists():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("k", [("a", 1)])]))
    kb.insert(obj("n2", "d", [("k", [("a", 2)])]))
    found = infer_values(kb, "k")
    assert len(found) == 2  # verbatim comparison keeps both


def test_infer_values_skips_deficient_pairs():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [AVPair("k", ()), ("k", ["a"])]))
    found = infer_values(kb, "k")
    assert [tuple(v.term for v in c.values) for c in found] == [("a",)]


def test_infer_values_counts_a_list_held_twice_by_one_object_once():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("k", ["a"]), ("j", ["a"]), ("k", ["a"])]))
    kb.insert(obj("n2", "d", [("k", ["b"])]))
    kb.insert(obj("n3", "d", [("k", ["b"])]))
    found = infer_values(kb, "k")
    assert [(c.values, c.support) for c in found] == [
        ((Value("b"),), ("n2", "n3")),
        ((Value("a"),), ("n1",)),
    ]
    assert [(c.values, c.support) for c in found] == naive_infer_values(kb, "k")
    assert infer_values(kb, "k", limit=1) == found[:1]


def test_infer_values_limit_cuts_through_ties():
    # Eight lists tie at the floor count 2, six of them on first term "a",
    # differing only in rank or in a later term; one list is above, two below.
    floor = [
        ["a"],
        ["a", "b"],
        ["a", "c"],
        [("a", 0)],
        [("a", 0), "b"],
        [("a", 1)],
        ["b"],
        ["c", "a"],
    ]
    held = [["z"]] * 3 + [values for values in floor for _ in range(2)] + [["a", "d"], ["0"]]
    kb = KnowledgeBase()
    rng = random.Random(4)
    rng.shuffle(held)
    for i, values in enumerate(held):
        kb.insert(obj(f"n{i:02d}", "d", [("k", values)]))
    full = infer_values(kb, "k")
    assert [c.values for c in full] == [make_pair("k", v).values for v in [["z"], *floor, ["0"], ["a", "d"]]]
    assert [c.support_count for c in full] == [3] + [2] * 8 + [1, 1]
    assert [(c.values, c.support) for c in full] == naive_infer_values(kb, "k")
    for k in range(1, len(full) + 2):
        assert infer_values(kb, "k", limit=k) == full[:k]


@pytest.mark.parametrize("limit", [0, -1])
def test_infer_values_limit_must_be_positive(desk_kb, limit):
    with pytest.raises(ValueError):
        infer_values(desk_kb, "souligner", limit=limit)


@pytest.mark.parametrize("small", [False, True])
def test_infer_values_limit_is_a_prefix_on_random_kbs(small):
    # The small vocabulary makes lists repeat, so counts above 1 tie often.
    vocabulary = {"attributes": ATTRIBUTES[:3], "terms": TERMS[:4]} if small else {}
    for seed in range(3):
        kb = random_kb(seed, n_objects=300, **vocabulary)
        for attribute in kb.values_by_attribute:
            full = infer_values(kb, attribute)
            assert [(c.values, c.support) for c in full] == naive_infer_values(kb, attribute)
            for k in (1, 2, 3, 16, len(full) + 1):
                assert infer_values(kb, attribute, limit=k) == full[:k]


# ---------------------------------------------------------------- explicate


def test_explicate_missing_attribute(desk_kb):
    implicit = obj("n_imp", "doc_A", [AVPair(None, (Value("pertinent"),))])
    found = explicate(desk_kb, implicit)
    rendered = [
        (ex.object.pairs[0].attribute, [v.term for v in ex.object.pairs[0].values])
        for ex in found
    ]
    assert rendered == [("ordonner", ["pertinent"]), ("souligner", ["pertinent"])]
    assert [ex.support for ex in found] == [(("note_56007",),), (("note_211",),)]
    for ex in found:
        assert classify(ex.object) is Explicitness.EXPLICIT
        assert ex.object.id == "n_imp"
        assert ex.object.target == "doc_A"
        assert ex.object.meta == implicit.meta


def test_explicate_missing_values_substitutes_stored_list(desk_kb):
    implicit = obj("n_imp", "doc_A", [AVPair("ordonner", ())])
    found = explicate(desk_kb, implicit)
    assert len(found) == 1
    assert found[0].object.pairs[0].values == (
        Value("pauvre", 0),
        Value("faible", 1),
        Value("moyen", 2),
        Value("riche", 3),
        Value("pertinent", 4),
    )


def test_explicate_keeps_explicit_pairs(desk_kb):
    implicit = obj(
        "n_imp",
        "doc_A",
        [("auteur", ["alain juillet"]), AVPair(None, (Value("pertinent"),))],
    )
    found = explicate(desk_kb, implicit)
    for ex in found:
        assert ex.object.pairs[0] == make_pair("auteur", ["alain juillet"])
        assert ex.support[0] == ()
    assert len(found) == 2


def test_explicate_cartesian_and_cap(desk_kb):
    implicit = obj(
        "n_imp",
        "doc_A",
        [AVPair(None, (Value("pertinent"),)), AVPair("souligner", ())],
    )
    # 2 attribute candidates x 2 souligner value lists = 4 combinations
    found = explicate(desk_kb, implicit)
    assert len(found) == 4
    capped = explicate(desk_kb, implicit, cap=3)
    assert len(capped) == 3
    assert [ex.object for ex in capped] == [ex.object for ex in found[:3]]


def test_explicate_cap_must_be_positive(desk_kb):
    implicit = obj("n_imp", "doc_A", [AVPair(None, (Value("pertinent"),))])
    with pytest.raises(ValueError):
        explicate(desk_kb, implicit, cap=0)


@pytest.mark.parametrize("count", [2.5, 2.0, True, "2", None])
def test_explicate_and_infer_values_refuse_a_count_that_is_not_an_int(desk_kb, count):
    implicit = obj("n_imp", "doc_A", [AVPair("mots-clés", ())])
    with pytest.raises(TypeError, match="cap must be an int"):
        explicate(desk_kb, implicit, cap=count)
    if count is not None:  # None is infer_values' "no limit"
        with pytest.raises(TypeError, match="limit must be an int"):
            infer_values(desk_kb, "souligner", limit=count)
    assert desk_kb._rankings == {}  # refused before any work


def test_explicate_cap_past_sys_maxsize_returns_every_combination(desk_kb):
    implicit = obj("n_imp", "doc_A", [AVPair("mots-clés", ())])
    found = explicate(desk_kb, implicit, cap=10**30)
    assert [ex.object.pairs[0].values for ex in found] == [
        c.values for c in infer_values(desk_kb, "mots-clés")
    ]


def test_explicate_rejects_explicit_and_invalid(desk_kb):
    explicit = obj("n_exp", "doc_A", [("a", ["x"])])
    with pytest.raises(NotImplicitError):
        explicate(desk_kb, explicit)
    invalid = AnnotationObject("n_bad", "doc_A", (AVPair(None, ()),), IMPORT_META)
    with pytest.raises(NotImplicitError):
        explicate(desk_kb, invalid)


def test_explicate_reports_offending_pair_index(desk_kb):
    implicit = obj(
        "n_imp",
        "doc_A",
        [("a", ["x"]), AVPair(None, (Value("zzz"),))],
    )
    with pytest.raises(NoCandidatesError) as err:
        explicate(desk_kb, implicit)
    assert err.value.pair_index == 1


def test_explicate_reports_missing_values_under_an_attribute_with_no_list(desk_kb):
    desk_kb.insert(obj("n_hole", "doc_A", [("jamais vu", [])]))
    assert desk_kb.values_by_attribute["jamais-vu"] == {}
    for attribute in ("jamais vu", "inconnu"):  # held only without values; never seen
        implicit = obj("n_imp", "doc_A", [("souligner", ["x"]), (attribute, [])])
        with pytest.raises(NoCandidatesError) as err:
            explicate(desk_kb, implicit)
        assert err.value.pair_index == 1


def test_explicate_monotone_under_growth():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("ordonner", ["pertinent"])]))
    implicit = obj("n_imp", "d", [AVPair(None, (Value("pertinent"),))])
    before = {ex.object.pairs[0].attribute for ex in explicate(kb, implicit, cap=100)}
    kb.insert(obj("n2", "d", [("souligner", ["pertinent"])]))
    after = {ex.object.pairs[0].attribute for ex in explicate(kb, implicit, cap=100)}
    assert before <= after
    assert "souligner" in after


# ---------------------------------------------------------------- oracle equivalence


def test_inference_matches_naive_oracle_on_random_kbs():
    rng = random.Random(99)
    for seed in range(3):
        kb = random_kb(seed, n_objects=150)
        for _ in range(20):
            terms = rng.sample(TERMS, rng.randint(1, 2))
            got = [(c.attribute, c.support) for c in infer_attributes(kb, terms)]
            assert got == naive_infer_attributes(kb, terms)
        for _ in range(20):
            attribute = rng.choice(ATTRIBUTES)
            got = [(c.values, c.support) for c in infer_values(kb, attribute)]
            assert got == naive_infer_values(kb, attribute)


@pytest.mark.parametrize("small", [False, True])
def test_explicate_matches_naive_oracle_for_every_cap(small):
    vocabulary = {"attributes": ATTRIBUTES[:3], "terms": TERMS[:4]} if small else {}
    attributes = vocabulary.get("attributes", ATTRIBUTES)
    kb = random_kb(5, n_objects=300, **vocabulary)
    implicit = [o for o in kb.objects.values() if classify(o) is Explicitness.IMPLICIT]
    # Two deficient pairs, so the cap cuts across a cartesian product.
    implicit += [
        obj("two_lists", "d", [AVPair(attributes[0], ()), AVPair(attributes[1], ())]),
        obj(
            "mixed",
            "d",
            [AVPair(None, (Value(TERMS[0]),)), ("x", ["y"]), AVPair(attributes[2], ())],
        ),
    ]
    assert len(implicit) > 20
    for implicit_obj in implicit:
        expected = naive_explicate(kb, implicit_obj, 20)
        for cap in range(1, 21):
            if not expected:
                with pytest.raises(NoCandidatesError):
                    explicate(kb, implicit_obj, cap=cap)
                continue
            found = explicate(kb, implicit_obj, cap=cap)
            assert [(ex.object.pairs, ex.support) for ex in found] == expected[:cap]


def test_explicate_of_missing_values_leaves_the_collector_idle():
    # 6,000 distinct lists under "k": ranking them may not allocate per list.
    text = "".join(
        f'annotation(n{i}, "k", ["t{i % 97}", "u{i}"], doc{i % 50}).\n' for i in range(6000)
    )
    kb = load_facts(text).kb
    assert len(kb.values_by_attribute["k"]) == 6000
    implicit = obj("implicit", "doc0", [AVPair("k", ())])
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        found = explicate(kb, implicit)
    finally:
        gc.callbacks.remove(count)
        if not was_enabled:
            gc.disable()
    assert len(found) == 16
    assert len(collections) <= 5, collections
