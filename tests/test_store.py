"""Knowledge base store: insertion, indexes, registries, chains."""

import pytest

from annote_kb import (
    AnnotationObject,
    AnnotatorProfile,
    AnnotatorRole,
    AVPair,
    CyclicTargetError,
    DocumentRecord,
    DocumentTier,
    DuplicateIdError,
    IMPORT_META,
    InvalidObjectError,
    KnowledgeBase,
    UnknownIdError,
    Value,
    make_pair,
)
from genkb import random_kb
from oracles import naive_attributes_of


def obj(oid, target, pairs) -> AnnotationObject:
    built = tuple(p if isinstance(p, AVPair) else make_pair(*p) for p in pairs)
    return AnnotationObject(oid, target, built, IMPORT_META)


def test_insert_updates_all_indexes():
    kb = KnowledgeBase()
    kb.insert(obj("note_91007", "doc_A", [("souligner", ["stratégie", "développement"])]))
    assert len(kb) == 1
    assert kb.postings["stratégie"] == {"souligner": {"note_91007"}}
    assert kb.postings["développement"] == {"souligner": {"note_91007"}}
    assert kb.values_by_attribute["souligner"] == {
        (Value("stratégie"), Value("développement")): ["note_91007"]
    }
    assert kb.index_by_target["doc_A"] == ["note_91007"]


def test_insert_registers_documents():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "doc_A", [("a", ["x"])]))
    assert kb.document("n1").tier is DocumentTier.TERTIARY
    assert kb.documents["doc_A"].tier is DocumentTier.PRIMARY  # dangling target


def test_insert_upgrades_dangling_record_to_tertiary():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "later", [("a", ["x"])]))
    assert kb.documents["later"].tier is DocumentTier.PRIMARY
    kb.insert(obj("later", "doc_Z", [("b", ["y"])]))
    assert kb.document("later") == DocumentRecord("later", DocumentTier.TERTIARY)
    assert "later" not in kb.documents  # document() derives it, so nothing is stored


def test_declared_tier_survives_annotation():
    kb = KnowledgeBase()
    record = DocumentRecord("doc_B", DocumentTier.SECONDARY)
    kb.add_document(record)
    kb.insert(obj("n1", "doc_B", [("a", ["x"])]))
    assert kb.documents["doc_B"] == record
    assert kb.document("doc_B") == record
    assert kb.document("nowhere") is None
    assert kb.document("x") is None  # a term, not a document


def test_document_of_annotation_is_derived_not_stored():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "doc_A", [("a", ["x"])]))
    assert "n1" not in kb.documents
    assert kb.document("n1") == DocumentRecord("n1", DocumentTier.TERTIARY)


def test_declared_record_leaves_documents_when_its_id_becomes_an_annotation():
    kb = KnowledgeBase()
    kb.add_document(DocumentRecord("n1", DocumentTier.SECONDARY))
    kb.insert(obj("n1", "doc_A", [("a", ["x"])]))
    assert "n1" not in kb.documents  # documents never holds an annotation
    assert kb.document("n1") == DocumentRecord("n1", DocumentTier.TERTIARY)
    kb.add_document(DocumentRecord("n1", DocumentTier.TERTIARY))
    assert kb.documents == {"doc_A": DocumentRecord("doc_A", DocumentTier.PRIMARY)}


def test_generated_base_stores_no_record_for_annotations():
    kb = random_kb(seed=13, n_objects=500)
    # Targets are documents or earlier annotations, and nothing is declared.
    assert not kb.documents.keys() & kb.objects.keys()
    assert {kb.document(oid).tier for oid in kb.objects} == {DocumentTier.TERTIARY}
    assert {r.tier for r in kb.documents.values()} == {DocumentTier.PRIMARY}


def test_duplicate_id_rejected():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("a", ["x"])]))
    with pytest.raises(DuplicateIdError):
        kb.insert(obj("n1", "d2", [("b", ["y"])]))


def test_invalid_object_rejected():
    kb = KnowledgeBase()
    with pytest.raises(InvalidObjectError):
        kb.insert(AnnotationObject("n1", "d", (), IMPORT_META))
    with pytest.raises(InvalidObjectError):
        kb.insert(AnnotationObject("n1", "d", (AVPair(None, ()),), IMPORT_META))
    assert len(kb) == 0


def test_two_step_cycle_rejected():
    kb = KnowledgeBase()
    kb.insert(obj("a", "b", [("k", ["v"])]))  # b dangling for now
    with pytest.raises(CyclicTargetError):
        kb.insert(obj("b", "a", [("k", ["v"])]))
    assert "b" not in kb.objects


def test_three_step_cycle_rejected():
    kb = KnowledgeBase()
    kb.insert(obj("a", "b", [("k", ["v"])]))
    kb.insert(obj("c", "a", [("k", ["v"])]))
    with pytest.raises(CyclicTargetError):
        kb.insert(obj("b", "c", [("k", ["v"])]))


def test_add_document_tier_rules():
    kb = KnowledgeBase()
    with pytest.raises(ValueError):
        kb.add_document(DocumentRecord("ghost", DocumentTier.TERTIARY))
    kb.insert(obj("n1", "d", [("a", ["x"])]))
    with pytest.raises(ValueError):
        kb.add_document(DocumentRecord("n1", DocumentTier.PRIMARY))
    before = dict(kb.documents)
    kb.add_document(DocumentRecord("n1", DocumentTier.TERTIARY))  # document() derives it
    assert kb.documents == before
    assert kb.document("n1") == DocumentRecord("n1", DocumentTier.TERTIARY)


def test_attributes_of(desk_kb):
    assert desk_kb.attributes_of("doc_C") == ["ordonner"]
    assert desk_kb.attributes_of("doc_D") == ["auteur", "mots-clés"]
    assert desk_kb.attributes_of("nowhere") == []


def test_attributes_of_ignores_deficient_pairs():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [AVPair("vide", ()), ("plein", ["x"])]))
    kb.insert(obj("n2", "d", [AVPair(None, (Value("x"),))]))
    assert kb.attributes_of("d") == ["plein"]


def test_value_lists_of_returns_lists_verbatim(desk_kb):
    assert desk_kb.value_lists_of("doc_B") == [
        (Value("atn"), Value("formalisme"), Value("analyse"))
    ]
    assert desk_kb.value_lists_of("doc_C") == [
        (
            Value("pauvre", 0),
            Value("faible", 1),
            Value("moyen", 2),
            Value("riche", 3),
            Value("pertinent", 4),
        )
    ]
    assert desk_kb.value_lists_of("nowhere") == []


def test_value_lists_of_keeps_insertion_order():
    kb = KnowledgeBase()
    kb.insert(obj("n2", "d", [("a", ["x"]), ("b", ["y"])]))
    kb.insert(obj("n1", "d", [("c", ["z"])]))
    lists = kb.value_lists_of("d")
    assert lists == [(Value("x"),), (Value("y"),), (Value("z"),)]


def test_trace_chain_through_annotations(desk_kb):
    assert desk_kb.trace_chain("rev_001") == ["rev_001", "note_91007", "doc_A"]
    assert desk_kb.trace_chain("note_702") == ["note_702", "doc_D"]
    assert desk_kb.trace_chain("doc_A") == ["doc_A"]


def test_trace_chain_unknown_id(desk_kb):
    with pytest.raises(UnknownIdError):
        desk_kb.trace_chain("nowhere")


def test_trace_chain_deep():
    kb = KnowledgeBase()
    previous = "root"
    for i in range(10):
        kb.insert(obj(f"n{i}", previous, [("a", ["x"])]))
        previous = f"n{i}"
    chain = kb.trace_chain(previous)
    assert len(chain) == 11
    assert chain[0] == "n9" and chain[-1] == "root"


def test_copy_is_independent():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("a", ["x"])]))
    snapshot = kb.copy()
    kb.insert(obj("n2", "d", [("a", ["x"]), ("a", ["x", "y"])]))
    assert len(snapshot) == 1
    assert "y" not in snapshot.postings
    assert snapshot.postings["x"] == {"a": {"n1"}}
    # n2 holds n1's list, so a copy sharing the inner id list would see it.
    assert snapshot.values_by_attribute == {"a": {(Value("x"),): ["n1"]}}
    assert snapshot.index_by_target["d"] == ["n1"]
    assert kb.values_by_attribute["a"][(Value("x"),)] == ["n1", "n2"]


def test_covering_returns_a_fresh_set():
    kb = KnowledgeBase()
    kb.insert(obj("n1", "d", [("a", ["x", "y"])]))
    found = kb.covering("a", ["x"])
    found.add("intruder")
    assert kb.postings["x"]["a"] == {"n1"}
    assert kb.covering("a", ["y", "x"]) == {"n1"}
    assert kb.covering("a", ["x", "missing"]) == set()
    assert kb.covering("b", ["x"]) == set()
    with pytest.raises(ValueError):
        kb.covering("a", [])


def test_indexes_match_brute_force_rebuild():
    for shuffled in (False, True):
        kb = random_kb(seed=11, n_objects=300, shuffled=shuffled)
        # An attribute whose only pairs lack values, and one list held twice
        # by one object.
        kb.insert(obj("bare", "d", [AVPair("sans-valeurs", ())]))
        kb.insert(obj("twice", "d", [("attr-00", ["x", "y"]), ("attr-00", ["x", "y"])]))
        postings: dict = {}
        by_list: dict = {}
        by_target: dict = {}
        for oid, o in kb.objects.items():  # insertion order
            for pair in o.pairs:
                if pair.attribute is None:
                    continue
                lists = by_list.setdefault(pair.attribute, {})
                if pair.values and oid not in lists.setdefault(pair.values, []):
                    lists[pair.values].append(oid)
                for value in pair.values:
                    postings.setdefault(value.term, {}).setdefault(pair.attribute, set()).add(oid)
            by_target.setdefault(o.target, []).append(oid)
        assert kb.postings == postings
        assert kb.values_by_attribute == by_list  # lists: insertion order pinned too
        assert kb.index_by_target == by_target
        assert kb.values_by_attribute["sans-valeurs"] == {}
        assert kb.values_by_attribute["attr-00"][(Value("x"), Value("y"))] == ["twice"]
        # every indexed id refers to a stored object
        for lists in kb.values_by_attribute.values():
            for ids in lists.values():
                assert set(ids) <= kb.objects.keys()
        for by_attribute in kb.postings.values():
            for ids in by_attribute.values():
                assert ids <= kb.objects.keys()
        for ids in kb.index_by_target.values():
            assert set(ids) <= kb.objects.keys()


def test_attributes_of_matches_naive_scan():
    kb = random_kb(seed=12, n_objects=300)
    targets = {o.target for o in kb.objects.values()}
    for target in sorted(targets):
        assert kb.attributes_of(target) == naive_attributes_of(kb, target)


def test_annotators_registry():
    kb = KnowledgeBase()
    kb.add_annotator(AnnotatorProfile("v1", "Anne Dupont", AnnotatorRole.VEILLEUR))
    assert kb.annotators["v1"].role is AnnotatorRole.VEILLEUR
