"""Command line behaviour: outputs, exit codes, text/json parity."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import annote_kb.cli
from annote_kb.cli import main
from test_factfile_golden import DATA, EDGE_LINES

IMPLICIT_LINE = 'annotation(n_imp, _, ["pertinent"], doc_A).\n'
TWO_HOLE_LINES = (
    'annotation(n_cap, _, ["pertinent"], doc_A).\n'
    'annotation(n_cap, "souligner", [], doc_A).\n'
)
FIND_TERMS = ["désinformation", "protection du patrimoine", "pertinent"]


@pytest.fixture()
def kb_path(tmp_path, desk_text):
    path = tmp_path / "kb.facts"
    path.write_text(desk_text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def kb_with_implicit(tmp_path, desk_text):
    path = tmp_path / "kb_imp.facts"
    path.write_text(desk_text + IMPLICIT_LINE + TWO_HOLE_LINES, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- classify


def test_classify_text(kb_path, capsys):
    code, out, _ = run(capsys, "classify", "--kb", kb_path)
    assert code == 0
    lines = out.splitlines()
    assert "note_211\texplicit" in lines
    assert lines[-1] == "7 objects: 7 explicit, 0 implicit"


def test_classify_reports_implicit(kb_with_implicit, capsys):
    code, out, _ = run(capsys, "classify", "--kb", kb_with_implicit)
    assert code == 0
    lines = out.splitlines()
    assert "n_imp\timplicit" in lines
    assert lines[-1] == "9 objects: 7 explicit, 2 implicit"


def test_classify_json(kb_path, capsys):
    code, out, _ = run(capsys, "classify", "--kb", kb_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "classify"
    assert payload["explicit"] == 7 and payload["implicit"] == 0
    assert {"id": "note_211", "state": "explicit"} in payload["objects"]


# ---------------------------------------------------------------- explicate


def test_explicate_text(kb_with_implicit, capsys):
    code, out, _ = run(capsys, "explicate", "--kb", kb_with_implicit, "n_imp")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 candidates for n_imp"
    assert lines[1] == '1. (ordonner, ["pertinent"]) [support: note_56007]'
    assert lines[2] == '2. (souligner, ["pertinent"]) [support: note_211]'


def test_explicate_json(kb_with_implicit, capsys):
    code, out, _ = run(
        capsys, "explicate", "--kb", kb_with_implicit, "n_imp", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["already_explicit"] is False
    first = payload["candidates"][0]
    assert first["pairs"] == [
        {"attribute": "ordonner", "values": [{"term": "pertinent", "rank": None}]}
    ]
    assert first["support"] == [["note_56007"]]


def test_explicate_already_explicit(kb_path, capsys):
    code, out, _ = run(capsys, "explicate", "--kb", kb_path, "note_211")
    assert code == 0
    assert out.splitlines() == ["note_211 is already explicit"]


def test_explicate_unknown_id(kb_path, capsys):
    code, _, err = run(capsys, "explicate", "--kb", kb_path, "nope")
    assert code == 1
    assert "unknown object id: nope" in err


def test_explicate_no_candidates(tmp_path, desk_text, capsys):
    path = tmp_path / "kb.facts"
    path.write_text(desk_text + 'annotation(n_bad, _, ["zzz"], doc_A).\n')
    code, _, err = run(capsys, "explicate", "--kb", str(path), "n_bad")
    assert code == 4
    assert "no candidates for pair 0 of n_bad" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_explicate_no_value_list_under_the_attribute(tmp_path, desk_text, capsys, fmt):
    path = tmp_path / "kb.facts"
    path.write_text(desk_text + 'annotation(n_hole, "jamais vu", [], doc_A).\n')
    code, out, err = run(capsys, "explicate", "--kb", str(path), "n_hole", "--format", fmt)
    assert (code, out) == (4, "")
    assert "no candidates for pair 0 of n_hole" in err


def test_explicate_cap_truncates(kb_with_implicit, capsys):
    code, out, _ = run(capsys, "explicate", "--kb", kb_with_implicit, "n_cap")
    assert code == 0
    assert out.splitlines()[0] == "4 candidates for n_cap"
    code, out, _ = run(
        capsys, "explicate", "--kb", kb_with_implicit, "n_cap", "--cap", "3"
    )
    assert code == 0
    assert out.splitlines()[0] == "3 candidates for n_cap"


def test_cap_must_be_positive(kb_path, capsys):
    code, _, err = run(capsys, "explicate", "--kb", kb_path, "n_imp", "--cap", "0")
    assert code == 1
    assert "--cap must be at least 1" in err


# ---------------------------------------------------------------- query


CLASSIC = '("auteur", ["Alain Juillet"]) ET ("mots-clés", ["désinformation"])'


def test_query_text(kb_path, capsys):
    code, out, _ = run(capsys, "query", "--kb", kb_path, CLASSIC)
    assert code == 0
    assert out.splitlines() == [
        'query: ("auteur", ["alain juillet"]) ET ("mots-clés", ["désinformation"])',
        "3 results",
        "note_008",
        "note_211",
        "note_702",
    ]


def test_query_json_matches_text(kb_path, capsys):
    code, out, _ = run(capsys, "query", "--kb", kb_path, CLASSIC, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == ["note_008", "note_211", "note_702"]


def test_query_syntax_error_points_at_offset(kb_path, capsys):
    code, _, err = run(capsys, "query", "--kb", kb_path, '("a", [])')
    assert code == 1
    assert "syntax error: expected a quoted term" in err
    assert "\n  " + " " * 7 + "^" in err


def test_query_rejects_constrained_criterion(kb_path, capsys):
    code, _, err = run(capsys, "query", "--kb", kb_path, '(["pertinent"])')
    assert code == 1
    assert "rewrite" in err


def test_query_nested_1200_levels_runs(kb_path, capsys):
    author = '("auteur", ["Alain Juillet"])'
    code, out, _ = run(capsys, "query", "--kb", kb_path, author, "--format", "json")
    hits = json.loads(out)["results"]
    assert code == 0 and 0 < len(hits) < 7
    every = ["note_008", "note_211", "note_56007", "note_702", "note_71007", "note_91007", "rev_001"]
    for nots, want in ((1200, hits), (1201, [oid for oid in every if oid not in hits])):
        code, out, err = run(capsys, "query", "--kb", kb_path, "NON " * nots + author)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "query: " + "NON " * nots + '("auteur", ["alain juillet"])'
        assert lines[2:] == want


def test_terms_with_line_breaks_are_errors_not_tracebacks(kb_path, capsys):
    code, out, err = run(capsys, "query", "--kb", kb_path, '("auteur", ["alain\rjuillet"])')
    assert code == 1
    assert out == ""
    assert "syntax error: expected a term without line breaks" in err
    assert "Traceback" not in err
    code, out, err = run(capsys, "find", "--kb", kb_path, "pertinent", "alain\u2029juillet")
    assert code == 1
    assert out == ""
    assert "line break" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- find


def test_find_text(kb_path, capsys):
    code, out, _ = run(capsys, "find", "--kb", kb_path, *FIND_TERMS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        'rewrite: ("mots-clés", ["désinformation"])'
        ' ET ("mots-clés", ["protection du patrimoine"])'
        ' ET (("ordonner", ["pertinent"]) OU ("souligner", ["pertinent"]))'
    )
    assert lines[1] == "1 results"
    assert lines[2] == "note_211"


def test_find_json(kb_path, capsys):
    code, out, _ = run(
        capsys, "find", "--kb", kb_path, *FIND_TERMS, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == ["note_211"]
    assert payload["unresolved"] == []


def test_find_stored_form(kb_path, capsys):
    code, out, _ = run(
        capsys, "find", "--kb", kb_path, *FIND_TERMS, "--show-paper-form"
    )
    assert code == 0
    stored = next(l for l in out.splitlines() if l.startswith("stored form: "))
    assert '("ordonner", [("pauvre", 0), ("faible", 1)' in stored
    assert '"protection du patrimoine"]' in stored


def test_find_strict_unresolved(kb_path, capsys):
    code, out, _ = run(capsys, "find", "--kb", kb_path, "désinformation", "zzz")
    assert code == 3
    lines = out.splitlines()
    assert "unresolved: zzz" in lines
    assert "0 results" in lines


def test_find_lenient_unresolved(kb_path, capsys):
    code, out, err = run(
        capsys, "find", "--kb", kb_path, "--lenient", "désinformation", "zzz"
    )
    assert code == 0
    assert "dropping unresolved terms: zzz" in err
    assert out.splitlines()[-3:] == ["note_008", "note_211", "note_702"]


def test_find_nothing_resolves(kb_path, capsys):
    code, _, err = run(capsys, "find", "--kb", kb_path, "zzz", "yyy")
    assert code == 3
    assert "unresolved: zzz, yyy" in err


# ---------------------------------------------------------------- chain


def test_chain(kb_path, capsys):
    code, out, _ = run(capsys, "chain", "--kb", kb_path, "rev_001")
    assert code == 0
    assert out.splitlines() == ["rev_001", "note_91007", "doc_A"]


def test_chain_unknown_id(kb_path, capsys):
    code, _, err = run(capsys, "chain", "--kb", kb_path, "nope")
    assert code == 1
    assert "nope" in err


# ---------------------------------------------------------------- export, stats


def test_export_text_is_canonical(kb_path, desk_canonical, capsys):
    code, out, _ = run(capsys, "export", "--kb", kb_path)
    assert code == 0
    assert out == desk_canonical


def test_export_json_wraps_facts(kb_path, desk_canonical, capsys):
    code, out, _ = run(capsys, "export", "--kb", kb_path, "--format", "json")
    assert code == 0
    assert json.loads(out)["facts"] == desk_canonical


def test_stats(kb_path, capsys):
    code, out, _ = run(capsys, "stats", "--kb", kb_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["objects"] == 7
    assert payload["explicit"] == 7 and payload["implicit"] == 0
    assert payload["documents"] == {"primary": 5, "secondary": 1, "tertiary": 7}
    assert payload["annotators"] == 2
    assert payload["attributes"] == 5
    assert payload["terms"] == 16
    code, out, _ = run(capsys, "stats", "--kb", kb_path)
    assert "objects: 7 (7 explicit, 0 implicit)" in out.splitlines()


def test_stats_reports_a_5000_digit_rank_as_a_warning(tmp_path, capsys):
    kb_file = tmp_path / "kb.facts"
    kb_file.write_text(
        'annotation(n1, "a", [("x", ' + "1" * 5000 + ')], doc_A).\n'
        'annotation(n2, "a", ["y"], doc_A).\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "stats", "--kb", str(kb_file), "--format", "json")
    assert code == 0
    assert json.loads(out)["objects"] == 1
    assert err == f"warning: {kb_file}: line 1, column 28: rank longer than 640 digits\n"


def test_stats_counts_target_turned_annotation_once_as_tertiary(tmp_path, capsys):
    kb_file = tmp_path / "kb.facts"
    kb_file.write_text(
        'annotation(n1, "a", ["x"], later).\n'  # later: a dangling target, primary
        'annotation(later, "b", ["y"], doc_A).\n'
        "document(doc_B, secondary).\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "stats", "--kb", str(kb_file), "--format", "json")
    assert code == 0
    assert json.loads(out)["documents"] == {"primary": 1, "secondary": 1, "tertiary": 2}


def test_stats_counts_an_attribute_seen_only_without_values(tmp_path, capsys):
    kb_file = tmp_path / "kb.facts"
    kb_file.write_text(
        'annotation(n1, "a", ["x"], doc_A).\n'
        'annotation(n2, "vide", [], doc_A).\n'  # "vide" holds no value list
        'annotation(n2, _, ["x"], doc_A).\n',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "stats", "--kb", str(kb_file), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["implicit"] == 1
    assert payload["attributes"] == 2 and payload["terms"] == 1
    code, out, _ = run(capsys, "stats", "--kb", str(kb_file))
    assert "attributes: 2" in out.splitlines()


# ---------------------------------------------------------------- ingest


def test_ingest_creates_canonical_kb(tmp_path, desk_text, desk_canonical, capsys):
    source = tmp_path / "input.facts"
    source.write_text(desk_text, encoding="utf-8")
    target = tmp_path / "fresh.facts"
    code, out, _ = run(capsys, "ingest", "--kb", str(target), str(source))
    assert code == 0
    assert out.splitlines()[0] == "7 objects loaded, 0 rejected"
    assert target.read_text(encoding="utf-8") == desk_canonical


def test_ingest_merges_and_reports_duplicates(tmp_path, desk_text, capsys):
    source = tmp_path / "input.facts"
    source.write_text(desk_text, encoding="utf-8")
    target = tmp_path / "kb.facts"
    target.write_text(desk_text, encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--kb", str(target), str(source))
    assert code == 2
    lines = out.splitlines()
    # 7 duplicate objects on 11 lines, plus 2 re-declared annotators
    assert lines[0] == "0 objects loaded, 13 rejected"
    assert sum("already present" in line for line in lines[1:]) == 11
    assert sum("already declared" in line for line in lines[1:]) == 2


def test_ingest_partial(tmp_path, desk_text, capsys):
    source = tmp_path / "input.facts"
    source.write_text(desk_text + "annotation(broken.\n", encoding="utf-8")
    target = tmp_path / "kb.facts"
    code, out, _ = run(capsys, "ingest", "--kb", str(target), str(source))
    assert code == 2
    assert out.splitlines()[0] == "7 objects loaded, 1 rejected"
    assert target.exists()


def test_ingest_reports_every_dropped_line(tmp_path, capsys):
    source = tmp_path / "input.facts"
    source.write_text(
        'annotation(n1, "a", ["x"], d).\n'
        'annotation(n2, "a", ["y"], d).\n'
        'annotation(n1, "b", ["z"], d).\n'
        'annotation(n1, "c", ["w"], d).\n',
        encoding="utf-8",
    )
    target = tmp_path / "kb.facts"
    code, out, _ = run(capsys, "ingest", "--kb", str(target), str(source))
    assert code == 2
    assert out.splitlines() == [
        "2 objects loaded, 2 rejected",
        "line 3, column 1: object id already present: n1",
        "line 4, column 1: object id already present: n1",
    ]


def test_ingest_leaves_kb_with_unreadable_lines_untouched(tmp_path, desk_text, capsys):
    source = tmp_path / "input.facts"
    source.write_text(IMPLICIT_LINE, encoding="utf-8")
    target = tmp_path / "kb.facts"
    before = (desk_text + "annotation(broken.\n").encode("utf-8")
    target.write_bytes(before)
    code, out, err = run(capsys, "ingest", "--kb", str(target), str(source))
    assert code == 1
    assert out == ""
    assert "warning" in err and "not rewriting" in err
    assert target.read_bytes() == before


def _fail(*args, **kwargs):
    raise OSError("disk full")


@pytest.mark.parametrize("step", ["save", "fsync"])
def test_ingest_failed_write_leaves_kb_untouched(tmp_path, desk_text, capsys, monkeypatch, step):
    source = tmp_path / "input.facts"
    source.write_text(IMPLICIT_LINE, encoding="utf-8")
    target = tmp_path / "kb.facts"
    before = desk_text.encode("utf-8")
    target.write_bytes(before)
    if step == "save":
        monkeypatch.setattr("annote_kb.cli.save_facts", _fail)
    else:
        monkeypatch.setattr(os, "fsync", _fail)
    code, out, err = run(capsys, "ingest", "--kb", str(target), str(source))
    assert code == 1
    assert out == ""
    assert "cannot write kb: disk full" in err
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.facts", "kb.facts"]


def test_ingest_keeps_kb_mode_and_symlink(tmp_path, desk_text, capsys):
    source = tmp_path / "input.facts"
    source.write_text(IMPLICIT_LINE, encoding="utf-8")
    real = tmp_path / "real.facts"
    real.write_text(desk_text, encoding="utf-8")
    real.chmod(0o640)
    link = tmp_path / "kb.facts"
    link.symlink_to(real)
    code, out, _ = run(capsys, "ingest", "--kb", str(link), str(source))
    assert code == 0
    assert out.splitlines()[0] == "1 objects loaded, 0 rejected"
    assert link.is_symlink()
    assert "n_imp" in real.read_text(encoding="utf-8")
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.facts", "kb.facts", "real.facts"]


def test_ingest_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--kb", str(tmp_path / "kb"), "nope.facts")
    assert code == 1
    assert "cannot read input" in err


# ---------------------------------------------------------------- plumbing


def test_missing_kb_flag_is_usage_error(capsys):
    assert main(["classify"]) == 1
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate", "--kb", "x"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_kb_file(tmp_path, capsys):
    code, _, err = run(capsys, "classify", "--kb", str(tmp_path / "absent.facts"))
    assert code == 1
    assert "cannot read kb" in err


def test_files_that_are_not_utf8_exit_1_and_stay_untouched(tmp_path, desk_text, capsys):
    bad = tmp_path / "bad.facts"
    bad_bytes = desk_text.encode("utf-8") + b"% caf\xe9\n"  # Latin-1, not UTF-8
    bad.write_bytes(bad_bytes)
    good = tmp_path / "input.facts"
    good.write_text(IMPLICIT_LINE, encoding="utf-8")
    kb = tmp_path / "kb.facts"
    kb_bytes = desk_text.encode("utf-8")
    kb.write_bytes(kb_bytes)

    code, out, err = run(capsys, "stats", "--kb", str(bad))
    assert (code, out) == (1, "")
    assert "error: cannot read kb" in err and "Traceback" not in err

    code, out, err = run(capsys, "ingest", "--kb", str(kb), str(bad))
    assert (code, out) == (1, "")
    assert "error: cannot read input" in err
    assert kb.read_bytes() == kb_bytes

    code, out, err = run(capsys, "ingest", "--kb", str(bad), str(good))
    assert (code, out) == (1, "")
    assert "error: cannot read kb" in err
    assert bad.read_bytes() == bad_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.facts", "input.facts", "kb.facts"]


def test_files_with_a_byte_order_mark_load_from_line_1(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    marked = tmp_path / "marked.facts"
    marked.write_bytes(bom + b"document(d1, primary).\n")
    code, out, err = run(capsys, "stats", "--kb", str(marked))
    assert (code, err) == (0, "")
    assert "documents: 1 primary, 0 secondary, 0 tertiary" in out.splitlines()

    kb = tmp_path / "kb.facts"
    code, out, err = run(capsys, "ingest", "--kb", str(kb), str(marked))
    assert (code, err) == (0, "")
    assert kb.read_text(encoding="utf-8").splitlines()[1:] == ["document(d1, primary)."]

    marked_kb = tmp_path / "marked_kb.facts"
    marked_kb.write_bytes(bom + kb.read_bytes())
    source = tmp_path / "input.facts"
    source.write_text(IMPLICIT_LINE, encoding="utf-8")
    code, out, err = run(capsys, "ingest", "--kb", str(marked_kb), str(source))
    assert (code, err) == (0, "")
    merged = marked_kb.read_bytes()
    assert not merged.startswith(bom)
    assert merged.decode("utf-8").splitlines()[1:] == [
        "document(d1, primary).",
        "document(doc_A, primary).",
        IMPLICIT_LINE.strip(),
    ]


def test_kb_diagnostics_become_warnings(tmp_path, desk_text, capsys):
    path = tmp_path / "kb.facts"
    path.write_text(desk_text + "mystery(x).\n", encoding="utf-8")
    code, _, err = run(capsys, "classify", "--kb", str(path))
    assert code == 0
    assert "warning" in err and "unknown clause" in err


# ---------------------------------------------------------------- fuzz


DESK_LINES = (DATA / "desk_fixture.facts").read_text(encoding="utf-8").splitlines()
HOLE_LINES = (IMPLICIT_LINE + TWO_HOLE_LINES).splitlines() + [
    'annotation(n_hole, "jamais vu", [], doc_A).'
]
_fact_lines = st.sampled_from(DESK_LINES + HOLE_LINES + EDGE_LINES) | st.text(max_size=30)
_fact_bytes = st.one_of(
    st.lists(_fact_lines, max_size=8).map("\n".join).map(str.encode),
    st.binary(max_size=80),
    st.builds(  # the desk fixture with holes, maybe a byte-order mark, maybe more lines
        lambda bom, more: bom + "\n".join(DESK_LINES + HOLE_LINES + more).encode(),
        st.sampled_from([b"", b"\xef\xbb\xbf"]),
        st.lists(_fact_lines, max_size=3),
    ),
)
_ids = st.sampled_from(["note_211", "rev_001", "doc_A", "n_imp", "n_cap", "n_hole"])
_ids |= st.text(max_size=10)
_leaves = st.sampled_from(
    ['("auteur", ["alain juillet"])', '("mots-clés", ["désinformation", "décision"])',
     '(["pertinent"])', '("k", ["x"])']
)
_queries = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(" ".join, st.lists(inner, min_size=2, max_size=3)),  # a syntax error
        st.builds("{} {} {}".format, inner, st.sampled_from(["ET", "OU", "and"]), inner),
        inner.map("NON {}".format),
        inner.map("({})".format),
    ),
    max_leaves=5,
)
_query_text = _queries | st.text(max_size=30)
_term = st.sampled_from(["pertinent", "désinformation", "Alain Juillet", "zzz", "-"])
_terms = st.lists(_term | st.text(max_size=12), min_size=1, max_size=3)


@st.composite
def _cli_call(draw, command):
    """Options and positionals for one command; positionals follow '--',
    so that text starting with '-' still reaches the command."""
    if command == "explicate":
        return ["--cap", str(draw(st.integers(-1, 20)))], [draw(_ids)]
    if command == "query":
        return [], [draw(_query_text)]
    if command == "find":
        options = draw(st.sampled_from([[], ["--lenient"], ["--strict"]]))
        return options + draw(st.sampled_from([[], ["--show-paper-form"]])), draw(_terms)
    if command == "chain":
        return [], [draw(_ids)]
    return [], []


COMMANDS = ["ingest", "classify", "explicate", "query", "find", "chain", "export", "stats"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40)
@given(data=st.data())
def test_cli_never_raises_and_exits_with_a_documented_code(command, fmt, data):
    kb_bytes = data.draw(st.none() | _fact_bytes, label="kb")  # None: no kb file
    with tempfile.TemporaryDirectory() as tmp:
        kb = pathlib.Path(tmp, "kb.facts")
        if kb_bytes is not None:
            kb.write_bytes(kb_bytes)
        options, positionals = data.draw(_cli_call(command), label="arguments")
        if command == "ingest":
            source = pathlib.Path(tmp, "input.facts")
            source.write_bytes(data.draw(_fact_bytes, label="input"))
            positionals = [str(source)]
        argv = [command, "--kb", str(kb), "--format", fmt, *options]
        if positionals:
            argv += ["--", *positionals]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        assert code in range(5), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if fmt == "json" and out.getvalue():
            json.loads(out.getvalue())
        if command == "ingest" and code == 1:
            assert (kb.read_bytes() if kb.exists() else None) == kb_bytes


def _src_env() -> dict:
    """The environment with this package's source first on PYTHONPATH, so a
    subprocess imports the same annote_kb as the tests."""
    src = str(pathlib.Path(annote_kb.cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


# ---------------------------------------------------------------- interruptions


def test_a_reader_that_closes_early_gets_exit_1_and_no_traceback(tmp_path):
    # classify prints about 400 kB in buffer-sized writes, far more than a
    # pipe and the reader's buffer hold, so a write fails once it has gone.
    kb = tmp_path / "kb.facts"
    kb.write_text(
        "".join(f'annotation(n_{i:040d}, "k", ["v"], d).\n' for i in range(8000)),
        encoding="utf-8",
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "annote_kb.cli", "classify", "--kb", str(kb)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    assert proc.stdout.readline().endswith(b"\texplicit\n")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


def test_ctrl_c_is_one_error_line_and_exit_1(kb_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("annote_kb.cli.load_facts", interrupted)
    assert run(capsys, "stats", "--kb", kb_path) == (1, "", "error: interrupted\n")


# ---------------------------------------------------------------- start-up


def test_importing_the_cli_skips_uuid_and_datetime():
    # build_object and _now_iso import them when they run; every command
    # would pay for them (and uuid's platform) at start-up otherwise.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import annote_kb.cli"],
        capture_output=True, text=True, env=_src_env(), check=True, timeout=60,
    )
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "annote_kb.cli" in imported
    assert not imported & {"uuid", "datetime"}
