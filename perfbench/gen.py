"""Seeded fact-file generator with skewed vocabularies.

Real annotation bases reuse a few popular terms and attributes heavily and
most of the vocabulary rarely, which is what makes inference and
constrained search expensive: a popular term has a long posting list that
infer_attributes walks once per candidate attribute.  A uniform vocabulary
hides that cost, so terms, attributes and documents are drawn from
Zipf-like distributions here.

The generator keeps its own record of every object it writes, in
normalized spelling, so the benchmark can draw queries from stored pairs
and predict chains without asking the engine.  The engine only ever sees
the fact text.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import asdict, dataclass, field

ROLES = ("veilleur", "analyste", "decideur", "autre")
SYLLABLES = (
    "ve", "il", "le", "stra", "té", "gie", "dé", "ve", "lop", "pe", "ment", "in",
    "for", "ma", "tion", "pa", "tri", "moi", "ne", "dé", "ci", "sion", "cri", "se",
    "ré", "seau", "ana", "ly", "se", "é", "co", "no", "mi", "que",
)
ATTRIBUTE_STEMS = (
    "Mots Clés", "auteur", "souligner", "ordonner", "thème", "source", "Pays",
    "secteur", "Niveau de Confiance", "résumé", "langue", "organisme",
)
NAMES = ("Anne Dupont", "Marc Leroy", "Inès Haddad", "Paul \"Le Veilleur\" Martin", "Zoé Roux")


@dataclass(frozen=True)
class GenParams:
    """Sizes and shape of a generated base.  Printed with every result."""

    n_objects: int
    n_terms: int = 3000
    n_attributes: int = 40
    n_documents: int = 0  # 0 means n_objects // 8, at least 50
    n_annotators: int = 24
    term_skew: float = 1.0
    attribute_skew: float = 1.0
    document_skew: float = 0.8
    rank_share: float = 0.2
    implicit_share: float = 0.1
    reannotate_share: float = 0.1

    def documents(self) -> int:
        return self.n_documents or max(50, self.n_objects // 8)

    def as_dict(self) -> dict:
        return asdict(self)


# A generated pair: attribute (None when unknown) and (term, rank) values,
# both in the normalized spelling the engine stores.
Pair = tuple  # (str | None, tuple[tuple[str, int | None], ...])


@dataclass
class GenObject:
    id: str
    target: str
    pairs: list[Pair]

    def explicit_pairs(self) -> list[Pair]:
        return [p for p in self.pairs if p[0] is not None and p[1]]

    def is_implicit(self) -> bool:
        return any(p[0] is None or not p[1] for p in self.pairs)


def _zipf_cum(n: int, skew: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (i + 1) ** skew for i in range(n)))


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass
class Corpus:
    """A growing generated base: its objects and the vocabulary they use."""

    params: GenParams
    seed: int
    terms: list[str] = field(default_factory=list)
    attributes: list[str] = field(default_factory=list)
    attribute_spellings: list[str] = field(default_factory=list)
    documents: list[str] = field(default_factory=list)
    objects: list[GenObject] = field(default_factory=list)
    by_id: dict[str, GenObject] = field(default_factory=dict)
    explicit_pool: list[tuple[str, Pair]] = field(default_factory=list)
    next_annotator: int = 0

    def __post_init__(self) -> None:
        p = self.params
        rng = random.Random(f"vocab:{self.seed}")
        for i in range(p.n_terms):
            word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
            # Every term stays distinct through the numeric suffix; some are
            # multi-word and a few carry a quote so escaping is exercised.
            if i % 7 == 3:
                word = f"{word} {rng.choice(SYLLABLES)}{rng.choice(SYLLABLES)}"
            if i % 211 == 5:
                word = f'{word} "cité"'
            self.terms.append(f"{word} {i}")
        for i in range(p.n_attributes):
            stem = ATTRIBUTE_STEMS[i % len(ATTRIBUTE_STEMS)]
            spelling = f"{stem} {i:02d}"
            self.attribute_spellings.append(spelling)
            self.attributes.append("-".join(spelling.casefold().split()))
        self.documents = [f"d{i:05d}" for i in range(p.documents())]
        self._term_cum = _zipf_cum(p.n_terms, p.term_skew)
        self._attr_cum = _zipf_cum(p.n_attributes, p.attribute_skew)
        self._doc_cum = _zipf_cum(len(self.documents), p.document_skew)
        self._rng = random.Random(f"objects:{self.seed}")

    def _draw(self, cum: list[float]) -> int:
        return bisect.bisect(cum, self._rng.random() * cum[-1])

    def _draw_terms(self, k: int) -> list[str]:
        picked: list[str] = []
        while len(picked) < k:
            term = self.terms[self._draw(self._term_cum)]
            if term not in picked:
                picked.append(term)
        return picked

    def _values(self, terms: list[str]) -> tuple:
        rng = self._rng
        return tuple(
            (t, rng.randrange(5) if rng.random() < self.params.rank_share else None)
            for t in terms
        )

    def _pair(self) -> Pair:
        rng = self._rng
        if self.explicit_pool and rng.random() < self.params.implicit_share:
            if rng.random() < 0.5:
                # Attribute unknown: reuse terms some stored explicit pair
                # carries together, so explication always finds evidence.
                _, (_, values) = rng.choice(self.explicit_pool)
                terms = [t for t, _ in values]
                return (None, self._values(rng.sample(terms, rng.randint(1, min(2, len(terms))))))
            # Values unknown: an attribute that already has explicit values.
            return (rng.choice(self.explicit_pool)[1][0], ())
        attribute = self.attributes[self._draw(self._attr_cum)]
        return (attribute, self._values(self._draw_terms(rng.randint(1, 4))))

    def add_object(self) -> GenObject:
        rng = self._rng
        oid = f"n{len(self.objects):06d}"
        if self.objects and rng.random() < self.params.reannotate_share:
            target = rng.choice(self.objects).id  # earlier: chains stay acyclic
        else:
            target = self.documents[self._draw(self._doc_cum)]
        pairs: list[Pair] = []
        for _ in range(rng.randint(1, 3)):
            pair = self._pair()
            if pair[0] is not None and pair[1] and any(p[0] == pair[0] for p in pairs):
                continue  # one pair per attribute keeps objects readable
            pairs.append(pair)
        obj = GenObject(oid, target, pairs)
        self.objects.append(obj)
        self.by_id[oid] = obj
        for pair in obj.explicit_pairs():
            self.explicit_pool.append((oid, pair))
        return obj

    def _annotation_lines(self, obj: GenObject) -> list[str]:
        rng = self._rng
        lines = []
        for attribute, values in obj.pairs:
            if attribute is None:
                attr_text = "_"
            else:
                index = self.attributes.index(attribute)
                # Mixed spellings exercise attribute normalization.
                spelling = self.attribute_spellings[index] if rng.random() < 0.3 else attribute
                attr_text = quote(spelling)
            items = []
            for term, rank in values:
                shown = term.capitalize() if rng.random() < 0.1 else term
                items.append(quote(shown) if rank is None else f"({quote(shown)}, {rank})")
            lines.append(f"annotation({obj.id}, {attr_text}, [{', '.join(items)}], {obj.target}).")
        return lines

    def _annotator_line(self) -> str:
        i = self.next_annotator
        self.next_annotator += 1
        name = NAMES[i % len(NAMES)]
        return f'annotator(a{i:04d}, {quote(name)}, {ROLES[i % len(ROLES)]}).'

    def base_text(self) -> str:
        """Fact text for a fresh base of params.n_objects objects."""
        rng = self._rng
        lines = [f"% generated base: seed {self.seed}, {self.params.n_objects} objects"]
        for doc in self.documents:
            roll = rng.random()
            if roll < 0.2:
                lines.append(f"document({doc}, secondary).")
            elif roll < 0.25:
                lines.append(f"document({doc}, primary).")
        lines += [self._annotator_line() for _ in range(self.params.n_annotators)]
        for _ in range(self.params.n_objects):
            lines += self._annotation_lines(self.add_object())
        return "\n".join(lines) + "\n"

    def batch_text(self, n_objects: int) -> tuple[str, list[GenObject]]:
        """Fact text for n_objects new objects plus one new annotator."""
        new = [self.add_object() for _ in range(n_objects)]
        lines = [self._annotator_line()]
        for obj in new:
            lines += self._annotation_lines(obj)
        return "\n".join(lines) + "\n", new

    def chain(self, oid: str) -> list[str]:
        """Expected trace_chain result for a generated object id."""
        out = [oid]
        while out[-1] in self.by_id:
            out.append(self.by_id[out[-1]].target)
        return out
