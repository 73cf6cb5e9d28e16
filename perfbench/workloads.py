"""The benchmark's workloads: op streams, execution and correctness checks.

Each workload draws its ops from the generator's record of what it wrote,
never from the engine, and checks the engine's answers outside the timed
phase: against the naive oracles of tests/oracles.py, against the
generator's own record, or (for the command line) against the library on
the same file.  An op result is reduced to a plain "summary" (ids, counts,
hashes), so digests do not depend on the engine's class reprs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass

from gen import Corpus, GenParams, quote


def digest(summary) -> bytes:
    return hashlib.blake2b(repr(summary).encode("utf-8"), digest_size=16).digest()


def text_hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def plain_pairs(pairs) -> tuple:
    return tuple((p.attribute, tuple((v.term, v.rank) for v in p.values)) for p in pairs)


# ---------------------------------------------------------------- queries

def _criterion(rng, corpus: Corpus, pool_len: int, oid: str | None = None) -> tuple:
    if oid is None:
        _, (attribute, values) = corpus.explicit_pool[rng.randrange(pool_len)]
    else:
        attribute, values = rng.choice(corpus.by_id[oid].explicit_pairs())
    terms = [t for t, _ in values]
    return ("leaf", attribute, tuple(rng.sample(terms, rng.randint(1, min(2, len(terms))))))


def _maybe_not(rng, spec: tuple) -> tuple:
    return ("not", spec) if rng.random() < 0.15 else spec


def draw_query(rng, corpus: Corpus, pool_len: int) -> tuple:
    """A query spec of 1-3 criteria drawn from stored explicit pairs.

    ET operands come from one anchor object, so the anchor matches unless
    a NON operand (drawn elsewhere) excludes it; OU operands are drawn
    independently.  About 15% of operands sit under NON.
    """
    n = rng.randint(1, 3)
    if n == 1:
        return _maybe_not(rng, _criterion(rng, corpus, pool_len))
    if rng.random() < 0.5:
        anchor, _ = corpus.explicit_pool[rng.randrange(pool_len)]
        children = [
            ("not", _criterion(rng, corpus, pool_len)) if rng.random() < 0.15
            else _criterion(rng, corpus, pool_len, anchor)
            for _ in range(n)
        ]
        return ("and", tuple(children))
    return ("or", tuple(_maybe_not(rng, _criterion(rng, corpus, pool_len)) for _ in range(n)))


def render_query(rng, corpus: Corpus, spec: tuple) -> str:
    """Query text for a spec, in mixed spellings and keyword languages."""
    kind = spec[0]
    if kind == "leaf":
        _, attribute, terms = spec
        if rng.random() < 0.3:
            attribute = corpus.attribute_spellings[corpus.attributes.index(attribute)]
        return f"({quote(attribute)}, [{', '.join(quote(t) for t in typed(rng, terms))}])"
    if kind == "not":
        return f"{'NOT' if rng.random() < 0.2 else 'NON'} {render_query(rng, corpus, spec[1])}"
    word = {"and": ("ET", "AND"), "or": ("OU", "OR")}[kind][rng.random() < 0.2]
    return f" {word} ".join(render_query(rng, corpus, c) for c in spec[1])


def spec_tree(akb, spec: tuple):
    """The query tree parse_query must return for a spec."""
    kind = spec[0]
    if kind == "leaf":
        return akb.Leaf(akb.Criterion(spec[1], spec[2]))
    if kind == "not":
        return akb.Not(spec_tree(akb, spec[1]))
    children = tuple(spec_tree(akb, c) for c in spec[1])
    return akb.And(children) if kind == "and" else akb.Or(children)


def draw_find(rng, corpus: Corpus, pool_len: int) -> tuple[str, ...]:
    """1-3 distinct terms of one stored object, normalized."""
    oid, _ = corpus.explicit_pool[rng.randrange(pool_len)]
    terms = sorted({t for _, values in corpus.by_id[oid].explicit_pairs() for t, _ in values})
    return tuple(rng.sample(terms, min(len(terms), rng.randint(1, 3))))


def typed(rng, terms: tuple[str, ...]) -> tuple[str, ...]:
    """Terms as a user might type them: now and then capitalized."""
    return tuple(t.capitalize() if rng.random() < 0.1 else t for t in terms)


class _Costs:
    """Rough cost of a read, from the generator's own counts of the posting
    sizes it walks; the engine is never asked."""

    def __init__(self, corpus: Corpus, pool_len: int, n_objects: int) -> None:
        self.term: Counter = Counter()
        self.attr: Counter = Counter()
        attrs = defaultdict(set)
        for _, (attribute, values) in corpus.explicit_pool[:pool_len]:
            self.attr[attribute] += 1
            for term, _ in values:
                self.term[term] += 1
                attrs[term].add(attribute)
        self.term_attrs = {t: len(a) for t, a in attrs.items()}
        self.n_objects = n_objects

    def _infer(self, term: str) -> int:
        # infer_attributes walks a term's posting once per candidate
        # attribute, and the rewrite it feeds evaluates one leaf per attribute.
        return self.term[term] * self.term_attrs.get(term, 1)

    def query(self, spec: tuple) -> int:
        if spec[0] == "leaf":
            return sum(self.term[t] for t in spec[2])
        if spec[0] == "not":
            return self.n_objects + self.query(spec[1])
        return sum(self.query(c) for c in spec[1])

    def find(self, terms: tuple[str, ...]) -> int:
        return sum(self._infer(t) for t in terms)

    def explicate(self, obj) -> int:
        return sum(self._infer(values[0][0]) if attribute is None else self.attr[attribute]
                   for attribute, values in obj.pairs if attribute is None or not values)


class _Spread:
    """Draws spread evenly over candidates sorted by cost.

    The j-th draw takes the candidate at quantile frac(u0 + j * 0.618...),
    a golden-ratio sequence, so every prefix of the draws, however long a
    run lasts, covers cheap and expensive candidates in their natural
    proportions.
    """

    STEP = (5 ** 0.5 - 1) / 2

    def __init__(self, rng) -> None:
        self.u = rng.random()

    def pick(self, ordered: list):
        self.u = (self.u + self.STEP) % 1.0
        return ordered[int(self.u * len(ordered))]


class Reads:
    """Query, find and explicate ops for a base, drawn by cost quantile.

    Candidates are drawn the natural way (criteria and terms from stored
    explicit pairs, explicate targets among the implicit objects).  Their
    costs span orders of magnitude and a few popular terms make the slow
    tail, so plain random draws move the latency quantiles from run to run
    with the luck of the draw.  Drawing evenly over the candidates sorted by
    cost keeps the natural mix of cheap and expensive reads in every run.
    """

    CANDIDATES = 20000

    def __init__(self, rng, corpus: Corpus, pool_len: int, n_objects: int) -> None:
        self.rng, self.corpus = rng, corpus
        self.costs = _Costs(corpus, pool_len, n_objects)
        self.queries = sorted((draw_query(rng, corpus, pool_len) for _ in range(self.CANDIDATES)),
                              key=self.costs.query)
        self.finds = sorted((draw_find(rng, corpus, pool_len) for _ in range(self.CANDIDATES)),
                            key=self.costs.find)
        self.spread = {kind: _Spread(rng) for kind in ("query", "find", "attribute", "values")}

    def query(self) -> Op:
        spec = self.spread["query"].pick(self.queries)
        return Op("query", (render_query(self.rng, self.corpus, spec), spec))

    def find(self) -> Op:
        terms = self.spread["find"].pick(self.finds)
        return Op("find", (typed(self.rng, terms), terms))

    def explicable(self, objects) -> dict[str, list]:
        """Implicit objects by missing side, each group sorted by cost."""
        implicit = [o for o in objects if o.is_implicit()]
        return {
            "attribute": sorted((o for o in implicit if any(p[0] is None for p in o.pairs)),
                                key=self.costs.explicate),
            "values": sorted((o for o in implicit if any(p[0] is not None and not p[1] for p in o.pairs)),
                             key=self.costs.explicate),
        }

    def explicate(self, groups: dict[str, list], missing: str) -> Op:
        """An object of explicable() missing an attribute or values (else the other side)."""
        if not groups[missing]:
            missing = "values" if missing == "attribute" else "attribute"
        return Op("explicate", (self.spread[missing].pick(groups[missing]).id,))


MISSING = ("attribute", "values")


# ------------------------------------------------------------ library ops

def execute_library(akb, kb, op: Op, batches=None):
    """Run one library op; returns the raw engine result."""
    kind, args = op.kind, op.args
    if kind == "query":
        expr = akb.parse_query(args[0])
        return expr, akb.evaluate(kb, expr), akb.format_query(expr)
    if kind == "find":
        return akb.search_constrained(kb, list(args[0]))
    if kind == "explicate":
        return akb.explicate(kb, kb.objects[args[0]])
    if kind == "chain":
        chain = kb.trace_chain(args[0])
        return chain, kb.attributes_of(chain[-1]), kb.value_lists_of(chain[-1])
    if kind == "ingest":
        result = akb.load_facts_into(kb, batches[args[0]])
        return result, akb.save_facts(kb)
    raise ValueError(f"unknown op kind {kind}")


def summarize_library(op: Op, result) -> tuple:
    kind = op.kind
    if kind == "query":
        _, ids, shown = result
        return shown, tuple(ids)
    if kind == "find":
        return tuple(result)
    if kind == "explicate":
        return tuple((plain_pairs(ex.object.pairs), ex.support) for ex in result)
    if kind == "chain":
        chain, attributes, lists = result
        return tuple(chain), tuple(attributes), tuple(tuple((v.term, v.rank) for v in vs) for vs in lists)
    load, saved = result
    return load.loaded, tuple(str(d) for d in load.diagnostics), len(saved), text_hash(saved)


def oracle_find(oracles, kb, terms: tuple[str, ...]) -> list[str]:
    """Strict constrained search through the naive oracles.

    A term's rewrite is the disjunction of (attribute, [term]) over its
    inferred attributes, which matches exactly the union of their supports;
    the terms are conjoined.
    """
    result: set[str] | None = None
    for term in dict.fromkeys(terms):
        found = oracles.naive_infer_attributes(kb, [term])
        if not found:
            return []
        matched = {oid for _, support in found for oid in support}
        result = matched if result is None else result & matched
    return sorted(result)


def check_library(akb, oracles, kb, corpus: Corpus, op: Op, result) -> str | None:
    """None when the result is right, else a description of the mismatch."""
    kind, args = op.kind, op.args
    if kind == "query":
        expr, ids, shown = result
        expected_tree = spec_tree(akb, args[1])
        if expr != expected_tree:
            return f"parse mismatch for {args[0]!r}"
        if akb.parse_query(shown) != expr:
            return f"format_query does not round-trip {shown!r}"
        if list(ids) != sorted(oracles.naive_eval(kb, expected_tree)):
            return f"query results differ from naive_eval for {args[0]!r}"
        return None
    if kind == "find":
        if list(result) != oracle_find(oracles, kb, args[1]):
            return f"find results differ from the oracles for {args[0]!r}"
        return None
    if kind == "explicate":
        obj = kb.objects[args[0]]
        if not result:
            return f"no explicate candidates for {args[0]}"
        for ex in result:
            if akb.classify(ex.object) is not akb.Explicitness.EXPLICIT:
                return f"explicate candidate for {args[0]} is not explicit"
            if (ex.object.id, ex.object.target) != (obj.id, obj.target):
                return f"explicate candidate for {args[0]} changed id or target"
        return None
    if kind == "chain":
        chain, attributes, lists = result
        if chain != corpus.chain(args[0]):
            return f"chain of {args[0]} differs from the generated targets"
        doc = chain[-1]
        if attributes != oracles.naive_attributes_of(kb, doc):
            return f"attributes_of({doc}) differs from the oracle"
        expected = [p.values for o in kb.objects.values() if o.target == doc
                    for p in o.pairs if p.attribute is not None and p.values]
        if list(lists) != expected:
            return f"value_lists_of({doc}) differs from a full scan"
        return None
    raise ValueError(f"no library check for {kind}")


def fixpoint_problems(akb, kb, expected_objects: int) -> list[str]:
    """The base must save to text that loads back and saves identically."""
    saved = akb.save_facts(kb)
    reloaded = akb.load_facts(saved)
    if reloaded.diagnostics or len(reloaded.kb) != expected_objects:
        return [f"saved base reloads with {len(reloaded.diagnostics)} diagnostics and "
                f"{len(reloaded.kb)} of {expected_objects} objects"]
    if akb.save_facts(reloaded.kb) != saved:
        return ["the saved base is not a save/load fixpoint"]
    return []


# --------------------------------------------------------------- query-mix

class QueryMix:
    """Read-only library session on a loaded base of about 20k objects."""

    name = "query-mix"
    SETUP_RUNS = 3
    keep_summaries = False
    # Every block of 20 ops holds exactly this mix, shuffled, so the share
    # of each op kind does not vary between runs.
    BLOCK = ("query",) * 12 + ("find",) * 5 + ("explicate",) * 2 + ("chain",)
    TRACE_CHUNK = len(BLOCK)
    N_REF = 32  # ops always checked and digested, whatever the speed
    SAMPLE_ONE_IN = 64  # later ops checked at this rate

    def __init__(self, akb, oracles, seed: int, scale: float = 1.0) -> None:
        self.akb, self.oracles, self.seed = akb, oracles, seed
        self.params = GenParams(n_objects=max(200, int(20000 * scale)))
        self.corpus = Corpus(self.params, seed)
        self.start_text = self.corpus.base_text()
        self.with_parent = [o.id for o in self.corpus.objects if o.target in self.corpus.by_id]
        self._rng = random.Random(f"query-mix ops:{seed}")
        self.reads = Reads(self._rng, self.corpus, len(self.corpus.explicit_pool), self.params.n_objects)
        self.implicit = self.reads.explicable(self.corpus.objects)
        self._ops: list[Op] = []
        self._explicated = 0
        self.kb = None

    def setup(self):
        return self.akb.load_facts(self.start_text).kb

    def begin(self, kb) -> None:
        self.kb = kb

    def before(self, index: int) -> None:
        pass

    def op(self, index: int) -> Op:
        while len(self._ops) <= index:
            kinds = list(self.BLOCK)
            self._rng.shuffle(kinds)
            self._ops += [self._draw(kind) for kind in kinds]
        return self._ops[index]

    def _draw(self, kind: str) -> Op:
        if kind == "query":
            return self.reads.query()
        if kind == "find":
            return self.reads.find()
        if kind == "explicate":
            self._explicated += 1
            return self.reads.explicate(self.implicit, MISSING[self._explicated % 2])
        rng = self._rng
        oid = rng.choice(self.with_parent) if rng.random() < 0.5 else rng.choice(self.corpus.objects).id
        return Op(kind, (oid,))

    def execute(self, op: Op):
        return execute_library(self.akb, self.kb, op)

    def summarize(self, op: Op, result) -> tuple:
        return summarize_library(op, result)

    def keep(self, index: int) -> bool:
        if index < self.N_REF:
            return True
        return hashlib.blake2b(f"{self.seed}:{index}".encode()).digest()[0] < 256 // self.SAMPLE_ONE_IN

    def verify(self, records) -> tuple[list[str], bytes]:
        """Check kept results against the oracles; digest the first N_REF ops."""
        problems = fixpoint_problems(self.akb, self.kb, self.params.n_objects)
        by_index = {r.index: r for r in records}
        refs = []
        for index in range(self.N_REF):
            record = by_index.get(index)
            if record is None or record.error:
                op = self.op(index)
                result = self.execute(op)
                refs.append(digest(self.summarize(op, result)))
                problem = check_library(self.akb, self.oracles, self.kb, self.corpus, op, result)
                if problem:
                    problems.append(problem)
            else:
                refs.append(record.digest)
        for record in records:
            if record.result is not None:
                problem = check_library(self.akb, self.oracles, self.kb, self.corpus,
                                        self.op(record.index), record.result)
                if problem:
                    problems.append(problem)
        return problems, digest(tuple(refs))


# -------------------------------------------------------------- ingest-mix

class IngestMix:
    """Batches of new objects loaded and saved, with reads in between."""

    name = "ingest-mix"
    SETUP_RUNS = 3
    keep_summaries = False
    BATCHES = 10  # per cycle; the base is reset to the loaded copy each cycle
    READS = ("query", "query", "query", "find", "find", "explicate", "chain")
    RECHECK_ONE_IN = 8  # later-cycle reads re-run on the checked replay

    def __init__(self, akb, oracles, seed: int, scale: float = 1.0) -> None:
        self.akb, self.oracles, self.seed = akb, oracles, seed
        self.params = GenParams(n_objects=max(200, int(10000 * scale)))
        self.batch_size = max(50, int(500 * scale))
        self.corpus = corpus = Corpus(self.params, seed)
        self.start_text = corpus.base_text()
        self._rng = random.Random(f"ingest-mix ops:{seed}")
        # Queries and finds address the starting base; explicate and chain
        # address the batch just loaded.
        self.reads = Reads(self._rng, corpus, len(corpus.explicit_pool), self.params.n_objects)
        self.batches: list[str] = []
        self.targets: list[tuple[dict, list[str]]] = []  # per batch: explicable, chain starts
        for _ in range(self.BATCHES):
            text, new = corpus.batch_text(self.batch_size)
            self.batches.append(text)
            self.targets.append((self.reads.explicable(new),
                                 [o.id for o in new if o.target in corpus.by_id] or [o.id for o in new]))
        # Every cycle loads the same batches into the same base, so the state
        # at a position is the same in every cycle; the reads are fresh draws.
        self.cycle_len = self.BATCHES * (1 + len(self.READS))
        self.TRACE_CHUNK = self.cycle_len  # a traced pass must start on a fresh base
        self._ops: list[Op] = []
        self.base_kb = None
        self.kb = None

    def setup(self):
        return self.akb.load_facts(self.start_text).kb

    def begin(self, kb) -> None:
        self.base_kb = kb

    def before(self, index: int) -> None:
        if index % self.cycle_len == 0:
            self.kb = self.base_kb.copy()

    def op(self, index: int) -> Op:
        while len(self._ops) <= index:
            for b, (explicable, chain_starts) in enumerate(self.targets):
                self._ops.append(Op("ingest", (b,)))
                for kind in self.READS:
                    if kind == "query":
                        self._ops.append(self.reads.query())
                    elif kind == "find":
                        self._ops.append(self.reads.find())
                    elif kind == "explicate":
                        self._ops.append(self.reads.explicate(explicable, MISSING[b % 2]))
                    else:
                        self._ops.append(Op(kind, (self._rng.choice(chain_starts),)))
        return self._ops[index]

    def execute(self, op: Op):
        return execute_library(self.akb, self.kb, op, self.batches)

    def summarize(self, op: Op, result) -> tuple:
        return summarize_library(op, result)

    def keep(self, index: int) -> bool:
        return False

    def verify(self, records) -> tuple[list[str], bytes]:
        """Replay the first cycle on a freshly loaded base with every op
        checked.  Timed ops of the first cycle, every timed ingest, and one
        later read in RECHECK_ONE_IN must answer like the replay does at the
        same position."""
        akb = self.akb
        problems = []
        recheck: dict[int, list] = {}
        for record in records:
            if record.error:
                continue
            position = record.index % self.cycle_len
            if (record.index < self.cycle_len or record.kind == "ingest"
                    or hashlib.blake2b(f"{self.seed}:{record.index}".encode()).digest()[0]
                    < 256 // self.RECHECK_ONE_IN):
                recheck.setdefault(position, []).append(record)
        kb = akb.load_facts(self.start_text).kb
        expected_size = len(kb)
        refs = []
        for position in range(self.cycle_len):
            op = self.op(position)
            result = execute_library(akb, kb, op, self.batches)
            refs.append(digest(summarize_library(op, result)))
            if op.kind == "ingest":
                load, _ = result
                expected_size += self.batch_size
                if load.loaded != self.batch_size or load.diagnostics or len(kb) != expected_size:
                    problems.append(f"batch {op.args[0]}: {load.loaded} loaded, "
                                    f"{len(load.diagnostics)} diagnostics, {len(kb)} objects")
            else:
                problem = check_library(akb, self.oracles, kb, self.corpus, op, result)
                if problem:
                    problems.append(problem)
            for record in recheck.get(position, ()):
                if record.index < self.cycle_len or op.kind == "ingest":
                    expected = refs[-1]
                else:
                    again = self.op(record.index)
                    expected = digest(summarize_library(again, execute_library(akb, kb, again, self.batches)))
                if record.digest != expected:
                    problems.append(f"op {record.index} ({record.kind}) answered unlike the checked replay")
        problems += fixpoint_problems(akb, kb, expected_size)
        return problems, digest(tuple(refs))


# ------------------------------------------------------------- cli-session

class CliSession:
    """One `python -m annote_kb.cli` process at a time on a ~2k-object file."""

    name = "cli-session"
    SETUP_RUNS = 5
    keep_summaries = True
    # query and find carry most of the weight so that their p90 rests on
    # enough samples; every other command still runs several times a run.
    WEIGHTS = {"query": 35, "find": 35, "stats": 5, "classify": 5, "explicate": 5,
               "chain": 5, "export": 5, "ingest": 5}
    # The stream opens with every command once, and explicate once per kind
    # of missing side, so even a short run reaches every layer.
    TOUR = tuple(WEIGHTS) + ("explicate",)
    N_REF = 16
    INGEST_FILES = 3

    def __init__(self, akb, oracles, seed: int, workdir, root, scale: float = 1.0) -> None:
        self.akb, self.oracles, self.seed = akb, oracles, seed
        self.params = GenParams(n_objects=max(100, int(2000 * scale)))
        self.corpus = corpus = Corpus(self.params, seed)
        self.start_text = corpus.base_text()
        # Commands address the file as written; the ingest batches below
        # extend the corpus but never stay in the file.
        self.base_ids = [o.id for o in corpus.objects]
        self.pool_len = len(corpus.explicit_pool)
        self._rng = random.Random(f"cli-session ops:{seed}")
        self.reads = Reads(self._rng, corpus, self.pool_len, self.params.n_objects)
        self.implicit = self.reads.explicable(corpus.objects)
        self.root = root
        self.kb_path = os.path.join(workdir, f"cli-session-{seed}.facts")
        self.ingest_paths = []
        self.ingest_texts = []
        for n in range(self.INGEST_FILES):
            text, _ = corpus.batch_text(20)
            path = os.path.join(workdir, f"cli-session-{seed}-ingest{n}.facts")
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)
            self.ingest_paths.append(path)
            self.ingest_texts.append(text)
        self._ops: list[Op] = []
        self._explicated = 0
        self._expected: dict[Op, tuple] = {}
        self.kb = None
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.restore()

    def restore(self) -> None:
        self._dirty = False
        with open(self.kb_path, "w", encoding="utf-8", newline="\n") as out:
            out.write(self.start_text)

    def setup(self):
        return self.akb.load_facts(self.start_text).kb

    def begin(self, kb) -> None:
        self.kb = kb
        self.restore()

    def before(self, index: int) -> None:
        if self._dirty:
            self.restore()

    def op(self, index: int) -> Op:
        kinds = list(self.WEIGHTS)
        while len(self._ops) <= index:
            n = len(self._ops)
            if n < len(self.TOUR):
                kind = self.TOUR[n]
            else:
                kind = self._rng.choices(kinds, list(self.WEIGHTS.values()))[0]
            self._ops.append(self._draw(kind))
        return self._ops[index]

    def _draw(self, kind: str) -> Op:
        if kind == "query":
            return Op(kind, (self.reads.query().args[0],))
        if kind == "find":
            return Op(kind, self.reads.find().args[0])
        if kind == "explicate":
            self._explicated += 1
            return self.reads.explicate(self.implicit, MISSING[self._explicated % 2])
        if kind == "chain":
            return Op(kind, (self._rng.choice(self.base_ids),))
        if kind == "ingest":
            return Op(kind, (self.ingest_paths[self._rng.randrange(self.INGEST_FILES)],))
        return Op(kind, ())

    def argv(self, op: Op) -> list[str]:
        return [op.kind, "--kb", self.kb_path, "--format", "json", *op.args]

    def execute(self, op: Op):
        """Run the command in a fresh interpreter; (exit code, stdout)."""
        self._dirty = op.kind == "ingest"
        proc = subprocess.run(
            [sys.executable, "-m", "annote_kb.cli", *self.argv(op)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            encoding="utf-8", timeout=60,
        )
        return proc.returncode, proc.stdout

    def execute_in_process(self, op: Op):
        """Run the command through cli.main in this process; (exit code, stdout)."""
        self._dirty = op.kind == "ingest"
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = sys.modules["annote_kb.cli"].main(self.argv(op))
        return code, out.getvalue()

    def summarize(self, op: Op, result) -> tuple:
        """Exit code and the answer the output carries; restores the kb file
        after an ingest, so every command sees the same file."""
        code, stdout = result
        after = None
        if op.kind == "ingest":
            with open(self.kb_path, encoding="utf-8") as handle:
                after = text_hash(handle.read())
            self.restore()
        try:
            payload = json.loads(stdout)
        except ValueError:
            return code, "unparsable output", stdout[:200]
        return code, self._answer(op.kind, payload, after)

    @staticmethod
    def _answer(kind: str, payload: dict, after: str | None):
        if kind == "query":
            return tuple(payload["results"])
        if kind == "find":
            return tuple(payload["results"]), tuple(payload["unresolved"])
        if kind == "stats":
            return payload["objects"], payload["explicit"], payload["implicit"]
        if kind == "classify":
            return len(payload["objects"]), payload["explicit"], payload["implicit"]
        if kind == "explicate":
            return tuple(
                tuple((p["attribute"], tuple((v["term"], v["rank"]) for v in p["values"]))
                      for p in c["pairs"])
                for c in payload["candidates"]
            )
        if kind == "chain":
            return tuple(payload["chain"])
        if kind == "export":
            return text_hash(payload["facts"])
        return payload["loaded"], payload["rejected"], after

    def expected(self, op: Op) -> tuple:
        """What the library answers for the same command on the same file."""
        if op in self._expected:
            return self._expected[op]
        akb, kb = self.akb, self.kb
        kind, args = op.kind, op.args
        if kind == "query":
            answer = tuple(akb.evaluate(kb, akb.parse_query(args[0])))
        elif kind == "find":
            report = akb.rewrite_constrained(kb, list(args))
            answer = tuple(akb.search_constrained(kb, list(args))), report.unresolved_terms
        elif kind in ("stats", "classify"):
            states = [akb.classify(o) for o in kb.objects.values()]
            explicit = sum(s is akb.Explicitness.EXPLICIT for s in states)
            implicit = sum(s is akb.Explicitness.IMPLICIT for s in states)
            answer = len(states), explicit, implicit
        elif kind == "explicate":
            found = akb.explicate(kb, kb.objects[args[0]], cap=16)
            answer = tuple(plain_pairs(ex.object.pairs) for ex in found)
        elif kind == "chain":
            answer = tuple(kb.trace_chain(args[0]))
        elif kind == "export":
            answer = text_hash(akb.save_facts(kb))
        else:
            text = self.ingest_texts[self.ingest_paths.index(args[0])]
            grown = akb.load_facts(self.start_text).kb
            load = akb.load_facts_into(grown, text)
            answer = load.loaded, len(load.diagnostics), text_hash(akb.save_facts(grown))
        self._expected[op] = (0, answer)
        return self._expected[op]

    def _expected_or_error(self, op: Op):
        try:
            return self.expected(op)
        except Exception as exc:  # the library failed where the command ran
            return "library raised", f"{type(exc).__name__}: {exc}"

    def keep(self, index: int) -> bool:
        return False

    def check(self, records) -> list[str]:
        """Every command's exit code and answer must match the library."""
        problems = []
        for record in records:
            op = self.op(record.index)
            if record.error is None and record.summary != self._expected_or_error(op):
                problems.append(f"op {record.index}: annote-kb {op.kind} {' '.join(op.args)} "
                                f"answered {str(record.summary)[:120]}")
        return problems

    def verify(self, records) -> tuple[list[str], bytes]:
        """check(), and a digest of the first N_REF answers."""
        problems = fixpoint_problems(self.akb, self.kb, self.params.n_objects) + self.check(records)
        summaries = {r.index: r.summary for r in records if r.error is None}
        refs = []
        for index in range(self.N_REF):
            if index not in summaries:
                op = self.op(index)
                self.before(index)
                summaries[index] = self.summarize(op, self.execute(op))
                if summaries[index] != self._expected_or_error(op):
                    problems.append(f"op {index} ({op.kind}) differs from the library")
            refs.append(digest(summaries[index]))
        return problems, digest(tuple(refs))
