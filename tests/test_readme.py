"""The README's command line walkthrough, replayed command by command,
and its library quick start, run as written.

Commands, code and expected output are read from README.md itself, so
neither can drift from what the engine prints.
"""

import pathlib
import re
import shlex
import shutil

from annote_kb.cli import main

ROOT = pathlib.Path(__file__).parent.parent
SECTION = "## Command line walkthrough"
QUICK_START = "## Library quick start"


def readme_section(heading: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(heading, 1)[1].split("\n## ", 1)[0]


def walkthrough() -> list[tuple[str, str]]:
    """(command, expected stdout) for every `$ ` line of the section's sh blocks."""
    section = readme_section(SECTION)
    steps: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.DOTALL):
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
    expected = []
    for command, out in steps:
        while out and not out[-1]:  # the blank line before the next command
            out.pop()
        expected.append((command, "".join(f"{line}\n" for line in out)))
    return expected


def run_step(command: str, capsys) -> str:
    """Run one walkthrough command in the current directory; its stdout."""
    argv = shlex.split(command)
    if argv[0] == "cp":
        shutil.copy(ROOT / argv[1], argv[2])
        return ""
    if argv[0] == "printf":
        fmt, redirect, target = argv[1:]
        assert redirect == ">" and "%" not in fmt
        text = fmt.replace("\\n", "\n")
        assert "\\" not in text, "printf escapes other than \\n are not replayed"
        pathlib.Path(target).write_text(text, encoding="utf-8")
        return ""
    assert argv[0] == "annote-kb", f"cannot replay {command!r}"
    tail = None
    if "|" in argv:
        argv, pipe = argv[: argv.index("|")], argv[argv.index("|") + 1:]
        assert pipe[0] == "tail" and re.fullmatch(r"-[0-9]+", pipe[1]), f"cannot replay {command!r}"
        tail = int(pipe[1][1:])
    assert main(argv[1:]) == 0, command
    out = capsys.readouterr().out
    if tail is not None:
        out = "".join(out.splitlines(keepends=True)[-tail:])
    return out


def test_readme_walkthrough_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    steps = walkthrough()
    assert len(steps) >= 8
    monkeypatch.chdir(tmp_path)
    for command, expected in steps:
        assert run_step(command, capsys) == expected, command


def test_readme_quick_start_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", readme_section(QUICK_START), re.DOTALL)
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    shown = [re.fullmatch(r"print\(.*\)\s+# (.*)", line) for line in prints]
    assert prints and all(shown), "every print line ends with a # result comment"
    shutil.copy(ROOT / "tests/data/desk_fixture.facts", tmp_path / "kb.facts")
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == [match[1] for match in shown]
