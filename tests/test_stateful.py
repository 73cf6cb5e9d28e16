"""One stateful test over a base and every cache derived from it.

A hypothesis state machine drives up to three bases (the first and the
copies taken of it) through inserts, batch loads with bad lines, copies
with writes to either side, document and annotator registrations, saves
and reads, over a vocabulary small enough that value lists repeat and
rankings tie.  After every step, each base's indexes, its sorted ids,
its kept value rankings and its saved text are compared with what a
naive rebuild from its objects gives, and every read is compared with
its oracle in tests/oracles.py as it runs.
"""

from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from annote_kb import (
    AllUnresolvedError,
    And,
    AnnotationObject,
    AnnotatorProfile,
    AnnotatorRole,
    AVPair,
    Criterion,
    CyclicTargetError,
    DocumentRecord,
    DocumentTier,
    DuplicateIdError,
    IMPORT_META,
    InvalidObjectError,
    KnowledgeBase,
    Leaf,
    NoCandidatesError,
    Not,
    Or,
    UnknownIdError,
    evaluate,
    explicate,
    format_query,
    infer_attributes,
    infer_values,
    load_facts,
    load_facts_into,
    make_pair,
    parse_query,
    rewrite_constrained,
    save_facts,
    search_constrained,
)
from annote_kb.quoting import format_values, quote
from oracles import (
    naive_eval,
    naive_explicate,
    naive_infer_attributes,
    naive_infer_values,
    naive_save_facts,
)

ATTRIBUTES = ["a", "b", "c"]
IDS = [f"n{i}" for i in range(20)]
TARGETS = IDS + ["d0", "d1"]
BAD_LINES = [
    'annotation(n1, "a", ["x"], d0',  # unterminated
    "annotation(n2, _, [], d0).",  # neither side
    'annotation(n3, "b", ["y"], n3).',  # its own target
    "nonsense.",
]
# Drawn from fixed pools, which is far cheaper than building each value,
# and makes lists repeat so that rankings tie.
VALUE_LISTS = [
    (),
    ("x",),
    ("y",),
    ("z",),
    ("x", "y"),
    ("y", "x"),
    (("x", 0),),
    (("x", 1), "y"),
    ("z", "w", "x"),
]
PAIRS = [make_pair(a, values) for a in [None, *ATTRIBUTES] for values in VALUE_LISTS]
# A pair missing exactly one side, so an object holding one is implicit.
DEFICIENT = [p for p in PAIRS if (p.attribute is None) != (not p.values)]
EXPLICIT = [p for p in PAIRS if p.attribute is not None and p.values]
TERMS = sorted({v.term for p in PAIRS for v in p.values})


def _object(ends: tuple[str, str], pairs: list[AVPair]) -> AnnotationObject:
    return AnnotationObject(*ends, tuple(pairs), IMPORT_META)


objects = st.builds(
    _object,
    st.sampled_from([(i, t) for i in IDS for t in TARGETS if i != t]),  # never itself
    st.lists(st.sampled_from(PAIRS), min_size=1, max_size=3),
)
attributes = st.sampled_from(ATTRIBUTES)
counts = st.integers(1, 20)
sides = st.integers(0, 2)  # taken modulo the number of bases
# Terms come as a list, which Criterion keeps as a tuple.
leaves = st.builds(
    lambda attribute, terms: Leaf(Criterion(attribute, terms)),
    attributes,
    st.lists(st.sampled_from(TERMS), min_size=1, max_size=2, unique=True),
)


def _nodes(trees):
    operands = st.lists(trees, min_size=2, max_size=3).map(tuple)
    return st.one_of(st.builds(Not, trees), st.builds(And, operands), st.builds(Or, operands))


trees = st.recursive(leaves, _nodes, max_leaves=6)
bare_terms = st.lists(st.sampled_from(TERMS + ["absent"]), min_size=1, max_size=3)


def _line(obj: AnnotationObject, pair: AVPair) -> str:
    attribute = "_" if pair.attribute is None else quote(pair.attribute)
    return f"annotation({obj.id}, {attribute}, {format_values(pair.values)}, {obj.target})."


def _rebuilt_indexes(kb: KnowledgeBase) -> tuple[dict, dict, dict]:
    postings: dict = {}
    by_list: dict = {}
    by_target: dict = {}
    for oid, obj in kb.objects.items():  # insertion order
        for pair in obj.pairs:
            if pair.attribute is None:
                continue
            lists = by_list.setdefault(pair.attribute, {})
            if pair.values and oid not in lists.setdefault(pair.values, []):
                lists[pair.values].append(oid)
            for value in pair.values:
                postings.setdefault(value.term, {}).setdefault(pair.attribute, set()).add(oid)
        by_target.setdefault(obj.target, []).append(oid)
    return postings, by_list, by_target


def _rendered(candidates) -> list:
    return [(c.values, c.support) for c in candidates]


class BaseAndCaches(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.bases = [KnowledgeBase()]

    def base(self, side: int) -> KnowledgeBase:
        return self.bases[side % len(self.bases)]

    # ------------------------------------------------------------ writes

    @rule(side=sides, obj=objects)
    def insert(self, side, obj):
        kb = self.base(side)
        before = dict(kb.objects)
        try:
            kb.insert(obj)
        except (DuplicateIdError, InvalidObjectError, CyclicTargetError):
            assert kb.objects == before
        else:
            assert kb.objects[obj.id] is obj

    @rule(side=sides, batch=st.lists(st.one_of(objects, st.sampled_from(BAD_LINES)), max_size=6))
    def load_batch(self, side, batch):
        lines = []
        for item in batch:
            if isinstance(item, str):
                lines.append(item)
            else:
                lines.extend(_line(item, pair) for pair in item.pairs)
        load_facts_into(self.base(side), "".join(f"{line}\n" for line in lines))

    @rule(side=sides)
    def copy(self, side):
        # The third base is replaced, so copies of copies occur too.
        dup = self.base(side).copy()
        if len(self.bases) < 3:
            self.bases.append(dup)
        else:
            self.bases[2] = dup

    @precondition(lambda self: any(len(set(o.pairs)) > 1 for o in self.bases[0].objects.values()))
    @rule(data=st.data())
    def reorder_pairs(self, data):
        # objects is a plain dict.  An object put back under its id with
        # its pairs in another order leaves every index as it was, but its
        # saved text must change: the save memo may not reuse the old one.
        kb = self.bases[0]
        oid = data.draw(
            st.sampled_from(sorted(o.id for o in kb.objects.values() if len(set(o.pairs)) > 1))
        )
        obj = kb.objects[oid]
        kb.objects[oid] = replace(obj, pairs=obj.pairs[::-1])

    # ------------------------------------------------------------ reads

    @rule(
        side=sides,
        attribute=st.sampled_from(ATTRIBUTES + ["absent"]),
        limits=st.lists(st.one_of(st.none(), counts), min_size=1, max_size=4),
        falling=st.booleans(),
    )
    def infer_values(self, side, attribute, limits, falling):
        kb = self.base(side)
        expected = naive_infer_values(kb, attribute)
        # None asks for every list, so it sorts above every number.
        for limit in sorted(limits, key=lambda k: 21 if k is None else k, reverse=falling):
            found = infer_values(kb, attribute, limit=limit)
            assert _rendered(found) == expected[:limit]
            found.clear()  # the caller's list: no kept ranking may change

    @rule(side=sides, terms=st.lists(st.sampled_from(TERMS), min_size=1, max_size=2))
    def infer_attributes(self, side, terms):
        kb = self.base(side)
        found = [(c.attribute, c.support) for c in infer_attributes(kb, terms)]
        assert found == naive_infer_attributes(kb, terms)

    @rule(
        side=sides,
        deficient=st.lists(st.sampled_from(DEFICIENT), min_size=1, max_size=2),
        explicit=st.lists(st.sampled_from(EXPLICIT), max_size=1),
        cap=counts,
    )
    def explicate(self, side, deficient, explicit, cap):
        kb = self.base(side)
        probe = AnnotationObject("probe", "d0", tuple(explicit + deficient), IMPORT_META)
        expected = naive_explicate(kb, probe, cap)
        try:
            found = explicate(kb, probe, cap=cap)
        except NoCandidatesError:
            assert expected == []
        else:
            assert [(ex.object.pairs, ex.support) for ex in found] == expected

    @rule(side=sides, expr=trees)
    def evaluate(self, side, expr):
        # A complemented result is cut from sorted_ids(); NON over the tree
        # makes one of the two complemented, and lengthens its NON chain.
        kb = self.base(side)
        for tree in (expr, Not(expr)):
            assert evaluate(kb, tree) == sorted(naive_eval(kb, tree))
        reparsed = parse_query(format_query(expr))
        assert reparsed == expr and hash(reparsed) == hash(expr)

    @rule(side=sides, terms=bare_terms, strict=st.booleans())
    def search_constrained(self, side, terms, strict):
        kb = self.base(side)
        pairs = [p for o in kb.objects.values() for p in o.pairs if p.attribute is not None]
        held = {v.term for p in pairs for v in p.values}
        unresolved = tuple(t for t in dict.fromkeys(terms) if t not in held)
        if len(unresolved) == len(set(terms)):
            with pytest.raises(AllUnresolvedError):
                rewrite_constrained(kb, terms)
            with pytest.raises(AllUnresolvedError):
                search_constrained(kb, terms, strict=strict)
            return
        report = rewrite_constrained(kb, terms)
        assert report.unresolved_terms == unresolved
        expected = [] if strict and unresolved else sorted(naive_eval(kb, report.rewritten))
        assert search_constrained(kb, terms, strict=strict) == expected

    @rule(side=sides, start=st.sampled_from(TARGETS + ["d2"]))
    def trace_chain(self, side, start):
        kb = self.base(side)
        if start not in kb.objects and start not in kb.documents:
            with pytest.raises(UnknownIdError):
                kb.trace_chain(start)
            return
        chain = kb.trace_chain(start)
        assert chain[0] == start and chain[-1] not in kb.objects
        assert all(kb.objects[a].target == b for a, b in zip(chain, chain[1:]))

    # ------------------------------------------------------------ registries

    def _others(self, kb: KnowledgeBase) -> list:
        return [(other, dict(other.documents), dict(other.annotators))
                for other in self.bases if other is not kb]

    def _assert_unchanged(self, others: list) -> None:
        # A copy shares no registry with its source.
        for other, documents, annotators in others:
            assert other.documents == documents and other.annotators == annotators

    @rule(side=sides, doc_id=st.sampled_from(TARGETS + ["d2"]), tier=st.sampled_from(DocumentTier))
    def add_document(self, side, doc_id, tier):
        kb = self.base(side)
        others = self._others(kb)
        record = DocumentRecord(doc_id, tier)
        if (doc_id in kb.objects) != (tier is DocumentTier.TERTIARY):
            before = dict(kb.documents)
            with pytest.raises(ValueError):
                kb.add_document(record)
            assert kb.documents == before
        else:
            kb.add_document(record)
            assert kb.document(doc_id) == record
        self._assert_unchanged(others)

    @rule(side=sides, annotator=st.sampled_from(["a0", "a1"]), role=st.sampled_from(AnnotatorRole))
    def add_annotator(self, side, annotator, role):
        kb = self.base(side)
        others = self._others(kb)
        profile = AnnotatorProfile(annotator, f"{annotator} {role.value}", role)
        kb.add_annotator(profile)
        assert kb.annotators[annotator] is profile
        self._assert_unchanged(others)

    @rule(side=sides)
    def save_and_reload(self, side):
        text = save_facts(self.base(side))
        assert save_facts(load_facts(text).kb) == text

    # ------------------------------------------------------------ invariants

    @invariant()
    def indexes_match_a_rebuild(self):
        for kb in self.bases:
            postings, by_list, by_target = _rebuilt_indexes(kb)
            assert kb.postings == postings
            assert kb.values_by_attribute == by_list
            assert kb.index_by_target == by_target
            assert kb.sorted_ids() == tuple(sorted(kb.objects))
            assert not kb.documents.keys() & kb.objects.keys()
            targets = {o.target for o in kb.objects.values()}
            assert targets <= kb.objects.keys() | kb.documents.keys()
            assert all(d.tier is not DocumentTier.TERTIARY for d in kb.documents.values())

    @invariant()
    def kept_rankings_match_the_oracle(self):
        # An entry is (the limit it was built for, whether it ranks every
        # list, the candidates); see inference.infer_values.
        for kb in self.bases:
            for attribute, (limit, complete, kept) in kb._rankings.items():
                expected = naive_infer_values(kb, attribute)
                assert _rendered(kept) == (expected if complete else expected[:limit])
                assert len(kept) <= limit

    @invariant()
    def saves_match_the_oracle(self):
        for kb in self.bases:
            assert save_facts(kb) == naive_save_facts(kb)


# An example runs up to 50 steps, each checked against naive rebuilds, so a
# per-example deadline would fail on a slow runner rather than on a bug.
BaseAndCaches.TestCase.settings = settings(deadline=None)
test_base_and_caches = BaseAndCaches.TestCase
