"""Fact file diagnostics pinned on a seeded fuzz corpus.

tests/data/fuzz_diagnostics.txt holds the (line, column, reason) of every
diagnostic that loading the corpus below produces, in line order.  Its rows
were recorded with the character-at-a-time parser that the token parser
replaced, so any change in where or why a line is rejected shows up here.
The corpus is rebuilt from a fixed seed; the file's first line holds its
SHA-256, so a change to the generator cannot pass for a change in the
parser.

kb.documents holds exactly the documents that are not annotations:
declared records and dangling targets (as primary); kb.document() derives
the tertiary tier of an annotation.  So the loaded corpus and its saved
copy hold the same records, although the copy lists its lines in another
order.
"""

import hashlib
import pathlib
import random

from annote_kb import DocumentTier, load_facts, save_facts

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "fuzz_diagnostics.txt"

CORPUS_SEED = 2009
# SHA-256 of save_facts() of the loaded corpus.
LOADED_SHA256 = "344b546caa0bb7bdee1480a053a53c33a42faf9f90e4616374e20ef29d5d0bbc"
CORPUS_LINES = 20_000
# Mutations draw from the fact syntax's own characters and from whitespace,
# including whitespace that is not a line break (\x1f, \xa0) and one that
# is (\x0b), so lines also split and merge.
MUTATION_CHARS = '"\\_-0123456789()[],.%' + " \t\x0b\x1f\xa0"

# Places where a token and a character-by-character reading split the
# text differently, plus every clause shape with a bad tail.
EDGE_LINES = [
    'annotation(n1, _abc, ["x"], d1).',
    'annotation(n1, _1, ["x"], d1).',
    'annotation(n1, __, ["x"], d1).',
    'annotation(n1, _ , ["x"], d1).',
    'annotation(n1, "a", [("x", 12x)], d1).',
    'annotation(n1, "a", [("x", 12_)], d1).',
    'annotation(n1, "a", [("x", -12x)], d1).',
    'annotation(n1, "a", [("x", - 1)], d1).',
    'annotation(n1, "a", [("x", --1)], d1).',
    'annotation(n1, "a", [("x", x1)], d1).',
    'annotation(n1, "a", [("x", 007)], d1).',
    'annotation(n1, "a", [("x", -0)], d1).',
    'annotation(n1, "a", [("x", )], d1).',
    'annotation(n1, "a", [("x" 1)], d1).',
    'annotation(n1, "a", [("x", 1], d1).',
    'annotation(n1, "a", [(1, "x")], d1).',
    'annotation(n1, "a", ["x"], d1) "',
    'annotation(n1, "a", ["x',
    'annotation(n1, "a", ["x\\',
    'annotation(n1, "a", ["x\\"], d1).',
    'annotation(n1, "a\\q", ["x"], d1).',
    'annotation(n1, "a", ["x\\\\"], d1).',
    'annotation(n1, "a", ["\\"x\\""], d1).',
    'annotation(n1, "',
    '"',
    "\\",
    '\\"',
    'annotation(n1, "a", ["x"], d1).\\',
    'annotation(n1 , "a" , [ "x" , ( "y" , -3 ) ] , d1 ) .   ',
    'annotation(-12, "a", ["x"], d1).',
    'annotation(n1-2, "a", ["x"], d1).',
    'annotation(n1, "a", ["x",], d1).',
    'annotation(n1, "a", [,"x"], d1).',
    'annotation(n1, "a", ["x" "y"], d1).',
    'annotation(n1, "a", ["x"] d1).',
    'annotation(n1, "a", ["x"], -d1).',
    'annotation(n1, "a", ["x"], d1',
    'annotation(n1, "a", ["x"], d1)',
    'annotation(n1, "a", [], d1).',
    'annotation(n1, _, [], d1).',
    'annotation(n1, "  ", ["x"], d1).',
    'annotation(n1, "-", ["x"], d1).',
    'annotation(n1, " - ", ["x"], d1).',
    'annotation(n1, "a", ["  "], d1).',
    'annotation(n1, "a", [(" ", 1)], d1).',
    'annotation(n1, "a", [("", 1)], d1).',
    'annotation(n1, a, ["x"], d1).',
    'annotation(n1, "a", [x], d1).',
    'annotation(n1, "a", x, d1).',
    'annotation',
    'annotation(',
    'annotation()',
    'annotation(n1',
    'annotation(n1,',
    'annotation(n1, ',
    'annotation(n1, "a"',
    'annotation(n1, "a", [',
    'annotation(n1, "a", [(',
    'annotation(n1, "a", [("x",',
    'annotation(n1, "a", ["x"], d1). % trailing comment',
    'annotation(n1, "a", ["x"], d1)..',
    'annotation(n1,"a",["x"],d1).',
    'annotation\t(\tn1\t,"a",["x"],d1).',
    'annotation\xa0(n1, "a", ["x"], d1).',
    'annotation(n1, "a", ["x"]\x1f, d1).',
    'annotation(n1, "a", ["x"], d1)　.',
    'Annotation(n1, "a", ["x"], d1).',
    '"annotation"(n1, "a", ["x"], d1).',
    '_annotation(n1, "a", ["x"], d1).',
    'annotation_(n1, "a", ["x"], d1).',
    '-1(n1)',
    '(n1)',
    '.',
    ',',
    'document(d9, tertiary).',
    'document(d9, Primary).',
    'document(d9, SECONDARY).',
    'document(d9, primary2).',
    'document(d9, 12).',
    'document(d9, "primary").',
    'document(d9, primary)x',
    'document(d9, primary) .x',
    'document(d9 primary).',
    'document(d9, ).',
    'document(, primary).',
    'document',
    'annotator(a9, "n", chef).',
    'annotator(a9, n, autre).',
    'annotator(a9, "n\\\\", autre).',
    'annotator(a9, "n\\", autre).',
    'annotator(a9, "n", Autre).',
    'annotator(a9, "n", autre',
    'annotator(a9, "n"',
    'annotator(a9, "", autre).',
    'annotator(a9, "n" autre).',
    'annotator(a9, "n", "autre").',
    '   % indented comment',
    '%',
    '  ',
    '\t',
]

ATTRIBUTES = ["souligner", "Mots Clés", "mots-clés", "ordonner", "auteur", " Partager ", "ÉTAT"]
TERMS = [
    "stratégie", "Développement", "ATN", "pertinent", "alain juillet",
    "intelligence  stratégique", 'le "mot"', "barre \\ oblique", "x", "ÉCOLE",
]
TIERS = ["primary", "secondary", "tertiary", "Primary", "nowhere"]
ROLES = ["veilleur", "analyste", "decideur", "autre", "chef", "Autre"]


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _clauses(rng: random.Random, fixture: list[str]):
    """Endless valid clauses.  Annotation lines often repeat the previous id
    (a merge, sometimes with a conflicting target) and now and then reuse an
    older one, and targets and document lines sometimes name annotations,
    so every loader rule fires: duplicates, conflicts, cycles, tier clashes."""
    ids = ["n0"]
    target = "d0"
    while True:
        roll = rng.random()
        if roll < 0.08:
            yield rng.choice(fixture)
        elif roll < 0.13:
            doc = rng.choice([f"d{rng.randrange(60)}", rng.choice(ids)])
            yield f"document({doc}, {rng.choice(TIERS)})."
        elif roll < 0.16:
            name = _quote(rng.choice(["Anne Dupont", 'Marc "Le Sage"', "x \\ y", ""]))
            yield f"annotator(a{rng.randrange(20)}, {name}, {rng.choice(ROLES)})."
        elif roll < 0.18:
            yield rng.choice(["% comment", "", "   "])
        else:
            roll = rng.random()
            if roll < 0.3:
                if rng.random() < 0.1:
                    target = f"d{rng.randrange(60)}"
            else:
                ids.append(f"n{len(ids)}" if roll > 0.03 else rng.choice(ids))
                roll = rng.random()
                if roll < 0.85:
                    target = f"d{rng.randrange(60)}"
                elif roll < 0.98:
                    target = rng.choice(ids)
                else:
                    target = f"n{rng.randrange(len(ids) + 50)}"
            attribute = "_" if rng.random() < 0.1 else _quote(rng.choice(ATTRIBUTES))
            values = []
            for _ in range(rng.choice([0, 1, 1, 2, 3])):
                term = _quote(rng.choice(TERMS))
                values.append(term if rng.random() < 0.7 else f"({term}, {rng.randrange(-3, 12)})")
            yield f"annotation({ids[-1]}, {attribute}, [{', '.join(values)}], {target})."


def _mutate(rng: random.Random, line: str) -> str:
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        at = rng.randrange(len(line) + 1)
        roll = rng.random()
        if roll < 0.4 or not line:
            line = line[:at] + rng.choice(MUTATION_CHARS) + line[at:]
        elif roll < 0.7:
            line = line[:at] + line[at + 1:]
        else:
            line = line[:at] + rng.choice(MUTATION_CHARS) + line[at + 1:]
    return line


def fuzz_corpus() -> str:
    """CORPUS_LINES seeded lines: fixture and generated clauses, half of
    them mutated, with EDGE_LINES spread through them."""
    rng = random.Random(CORPUS_SEED)
    fixture = [
        line
        for line in (DATA / "desk_fixture.facts").read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("%")
    ]
    lines = []
    for _, line in zip(range(CORPUS_LINES), _clauses(rng, fixture)):
        lines.append(_mutate(rng, line) if rng.random() < 0.5 else line)
    for edge in EDGE_LINES:
        lines.insert(rng.randrange(len(lines) + 1), edge)
    return "\n".join(lines) + "\n"


def _format_golden(corpus: str, diagnostics) -> str:
    digest = hashlib.sha256(corpus.encode("utf-8")).hexdigest()
    rows = [f"{d.line}\t{d.column}\t{d.reason}" for d in diagnostics]
    return "\n".join([f"corpus sha256 {digest}"] + rows) + "\n"


def test_fuzz_corpus_diagnostics_match_golden():
    corpus = fuzz_corpus()
    expected = GOLDEN.read_text(encoding="utf-8")
    header = expected.split("\n", 1)[0]
    assert header == _format_golden(corpus, ()).strip(), "the corpus generator changed"
    result = load_facts(corpus)  # never raises, whatever the line
    assert _format_golden(corpus, result.diagnostics) == expected
    # What loads pins which lines merge into which objects, which the
    # diagnostics alone do not show.
    assert result.loaded == 8497
    lines = [d.line for d in result.diagnostics]
    assert all(a < b for a, b in zip(lines, lines[1:])), "diagnostics out of line order"

    saved = save_facts(result.kb)
    assert hashlib.sha256(saved.encode("utf-8")).hexdigest() == LOADED_SHA256
    reloaded = load_facts(saved)
    assert not reloaded.diagnostics
    assert save_facts(reloaded.kb) == saved
    assert reloaded.kb.documents == result.kb.documents
    assert result.kb.documents.keys().isdisjoint(result.kb.objects)
    assert all(r.tier is not DocumentTier.TERTIARY for r in result.kb.documents.values())
