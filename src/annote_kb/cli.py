"""Command line for the annotation knowledge base.

    annote-kb ingest    --kb kb.facts input.facts
    annote-kb classify  --kb kb.facts
    annote-kb explicate --kb kb.facts note_42
    annote-kb query     --kb kb.facts '("auteur", ["alain juillet"])'
    annote-kb find      --kb kb.facts désinformation pertinent
    annote-kb chain     --kb kb.facts note_42
    annote-kb export    --kb kb.facts
    annote-kb stats     --kb kb.facts

Exit codes: 0 success, 1 I/O, syntax or other error (a closed stdout and
Ctrl-C included), 2 partial ingest, 3 unresolved terms in a strict find,
4 explicitation found no candidates.
The kb file is re-read on every invocation; only ingest writes it back,
through a temporary file that is flushed to disk and renamed over it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

from .errors import (
    AllUnresolvedError,
    AnnoteKBError,
    NoCandidatesError,
    QuerySyntaxError,
)
from .factfile import LoadResult, load_facts, load_facts_into, save_facts
from .inference import explicate
from .model import Explicitness, classify
from .query import (
    evaluate,
    format_query,
    parse_query,
    rewrite_constrained,
    search_constrained,
    stored_list_rewrite,
)
from .quoting import format_values
from .store import KnowledgeBase

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL_INGEST = 2
EXIT_UNRESOLVED = 3
EXIT_NO_CANDIDATES = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for line in lines:
            print(line)


def _read_kb(path: str) -> LoadResult:
    """Load the kb file, listing its diagnostics on stderr as warnings."""
    try:
        text = _read_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read kb: {exc}")
    result = load_facts(text)
    for diag in result.diagnostics:
        print(f"warning: {path}: {diag}", file=sys.stderr)
    return result


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _replace_file(path: str, text: str) -> None:
    """Put text in place of the file at path, or leave that file as it was.

    The text goes to a temporary file beside the real target (so the
    rename stays on one file system), is flushed to disk, takes the old
    file's permissions, and only then is renamed over it.
    """
    path = os.path.realpath(path)  # a symlinked kb stays a symlink
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if os.path.exists(path):
            shutil.copymode(path, temp)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def _pair_text(pair) -> str:
    attr = "_" if pair.attribute is None else pair.attribute
    return f"({attr}, {format_values(pair.values)})"


def _pair_json(pair) -> dict:
    return {
        "attribute": pair.attribute,
        "values": [{"term": v.term, "rank": v.rank} for v in pair.values],
    }


def cmd_ingest(args: argparse.Namespace) -> int:
    try:
        text = _read_file(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read input: {exc}")
    kb = KnowledgeBase()
    if os.path.exists(args.kb):
        current = _read_kb(args.kb)
        # Rewriting the kb would drop the lines it could not load.
        if current.diagnostics:
            raise _CliError(f"not rewriting {args.kb}: some of its lines did not load")
        kb = current.kb
    result = load_facts_into(kb, text)
    try:
        _replace_file(args.kb, save_facts(kb))
    except OSError as exc:
        raise _CliError(f"cannot write kb: {exc}")
    rejected = len(result.diagnostics)
    lines = [f"{result.loaded} objects loaded, {rejected} rejected"]
    lines += [str(d) for d in result.diagnostics]
    payload = {
        "command": "ingest",
        "loaded": result.loaded,
        "rejected": rejected,
        "diagnostics": [
            {"line": d.line, "column": d.column, "reason": d.reason}
            for d in result.diagnostics
        ],
    }
    _emit(args, payload, lines)
    return EXIT_PARTIAL_INGEST if rejected else EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    kb = _read_kb(args.kb).kb
    states = {oid: classify(kb.objects[oid]) for oid in kb.sorted_ids()}
    explicit = sum(1 for s in states.values() if s is Explicitness.EXPLICIT)
    implicit = len(states) - explicit
    lines = [f"{oid}\t{state.value}" for oid, state in states.items()]
    lines.append(f"{len(states)} objects: {explicit} explicit, {implicit} implicit")
    payload = {
        "command": "classify",
        "objects": [{"id": oid, "state": state.value} for oid, state in states.items()],
        "explicit": explicit,
        "implicit": implicit,
    }
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_explicate(args: argparse.Namespace) -> int:
    if args.cap < 1:
        raise _CliError("--cap must be at least 1")
    kb = _read_kb(args.kb).kb
    obj = kb.objects.get(args.id)
    if obj is None:
        raise _CliError(f"unknown object id: {args.id}")
    if classify(obj) is Explicitness.EXPLICIT:
        _emit(
            args,
            {"command": "explicate", "id": args.id, "already_explicit": True, "candidates": []},
            [f"{args.id} is already explicit"],
        )
        return EXIT_OK
    try:
        found = explicate(kb, obj, cap=args.cap)
    except NoCandidatesError as exc:
        raise _CliError(f"no candidates for pair {exc.pair_index} of {args.id}", EXIT_NO_CANDIDATES)
    lines = [f"{len(found)} candidates for {args.id}"]
    for rank, ex in enumerate(found, start=1):
        pairs = " ".join(_pair_text(p) for p in ex.object.pairs)
        support = sorted({oid for ids in ex.support for oid in ids})
        lines.append(f"{rank}. {pairs} [support: {', '.join(support)}]")
    payload = {
        "command": "explicate",
        "id": args.id,
        "already_explicit": False,
        "candidates": [
            {
                "pairs": [_pair_json(p) for p in ex.object.pairs],
                "support": [list(ids) for ids in ex.support],
            }
            for ex in found
        ],
    }
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    kb = _read_kb(args.kb).kb
    try:
        expr = parse_query(args.expr)
    except QuerySyntaxError as exc:
        caret = " " * exc.position + "^"
        raise _CliError(f"syntax error: expected {exc.expected}\n  {args.expr}\n  {caret}")
    ids = evaluate(kb, expr)
    shown = format_query(expr)
    lines = [f"query: {shown}", f"{len(ids)} results"] + ids
    payload = {"command": "query", "query": shown, "results": ids}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_find(args: argparse.Namespace) -> int:
    kb = _read_kb(args.kb).kb
    try:
        report = rewrite_constrained(kb, args.terms)
    except AllUnresolvedError as exc:
        raise _CliError("unresolved: " + ", ".join(exc.terms), EXIT_UNRESOLVED)
    unresolved = list(report.unresolved_terms)
    if unresolved and not args.strict:
        print("warning: dropping unresolved terms: " + ", ".join(unresolved), file=sys.stderr)
    ids = search_constrained(kb, args.terms, strict=args.strict)
    rewrite = format_query(report.rewritten)
    lines = [f"rewrite: {rewrite}"]
    stored_form = stored_list_rewrite(kb, report) if args.show_paper_form else None
    if stored_form is not None:
        lines.append(f"stored form: {stored_form}")
    if unresolved:
        lines.append("unresolved: " + ", ".join(unresolved))
    lines.append(f"{len(ids)} results")
    lines += ids
    payload = {
        "command": "find",
        "rewrite": rewrite,
        "unresolved": unresolved,
        "results": ids,
    }
    if stored_form is not None:
        payload["stored_form"] = stored_form
    _emit(args, payload, lines)
    return EXIT_UNRESOLVED if unresolved and args.strict else EXIT_OK


def cmd_chain(args: argparse.Namespace) -> int:
    kb = _read_kb(args.kb).kb
    chain = kb.trace_chain(args.id)
    _emit(args, {"command": "chain", "chain": chain}, chain)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    kb = _read_kb(args.kb).kb
    text = save_facts(kb)
    if args.format == "json":
        print(json.dumps({"command": "export", "facts": text}, ensure_ascii=False, indent=2))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    kb = _read_kb(args.kb).kb
    states = [classify(obj) for obj in kb.objects.values()]
    tiers = {"primary": 0, "secondary": 0, "tertiary": len(kb.objects)}
    for record in kb.documents.values():
        tiers[record.tier.value] += 1
    payload = {
        "command": "stats",
        "objects": len(kb.objects),
        "explicit": sum(1 for s in states if s is Explicitness.EXPLICIT),
        "implicit": sum(1 for s in states if s is Explicitness.IMPLICIT),
        "documents": tiers,
        "annotators": len(kb.annotators),
        "attributes": len(kb.values_by_attribute),
        "terms": len(kb.postings),
    }
    lines = [
        f"objects: {payload['objects']} ({payload['explicit']} explicit, "
        f"{payload['implicit']} implicit)",
        f"documents: {tiers['primary']} primary, {tiers['secondary']} secondary, "
        f"{tiers['tertiary']} tertiary",
        f"annotators: {payload['annotators']}",
        f"attributes: {payload['attributes']}",
        f"terms: {payload['terms']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kb", required=True, help="path to the fact file")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(prog="annote-kb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="merge a fact file into the kb")
    p.add_argument("input", help="fact file to merge")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("classify", parents=[common], help="list explicit/implicit objects")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("explicate", parents=[common], help="explicit candidates for an object")
    p.add_argument("id", help="object id")
    p.add_argument("--cap", type=int, default=16,
                   help="maximum explicitation candidates (default 16)")
    p.set_defaults(func=cmd_explicate)

    p = sub.add_parser("query", parents=[common], help="evaluate a boolean query")
    p.add_argument("expr", help="query text")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("find", parents=[common], help="constrained search over bare terms")
    p.add_argument("terms", nargs="+", help="search terms")
    p.add_argument("--show-paper-form", action="store_true",
                   help="also print the rewrite with full stored value lists")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=True,
                      help="unresolved terms empty the result (default)")
    mode.add_argument("--lenient", dest="strict", action="store_false",
                      help="drop unresolved terms with a warning")
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("chain", parents=[common], help="follow targets down to the document")
    p.add_argument("id", help="object or document id")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("export", parents=[common], help="print the canonical fact file")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("stats", parents=[common], help="knowledge base counts")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; map usage
        # problems onto the documented I/O-or-syntax code.
        return EXIT_OK if not exc.code else EXIT_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except AnnoteKBError as exc:  # any other engine error is a plain failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # As the signal docs' "Note on SIGPIPE" says: stdout goes to devnull,
        # so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
