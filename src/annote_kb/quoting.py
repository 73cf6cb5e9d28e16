"""Double-quoted string syntax shared by the fact file and the query language.

Only two escapes exist: \\" for a quote and \\\\ for a backslash.  Value
lists are written in the same syntax wherever they are displayed.
"""

from __future__ import annotations

from .model import Value


def quote(text: str) -> str:
    """Wrap text in double quotes, escaping backslashes and quotes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_value(value: Value) -> str:
    """Render one value in file syntax: "term" or ("term", rank)."""
    if value.rank is None:
        return quote(value.term)
    return f"({quote(value.term)}, {value.rank})"


def format_values(values: tuple[Value, ...]) -> str:
    return "[" + ", ".join(format_value(v) for v in values) + "]"


def scan_quoted(text: str, start: int) -> tuple[str, int]:
    """Read a quoted string beginning at text[start] (which must be '"').

    Returns (value, index just past the closing quote).  Raises ValueError
    with a position-bearing args tuple (offset, reason) on malformed input.
    """
    if start >= len(text) or text[start] != '"':
        raise ValueError(start, "opening quote")
    out: list[str] = []
    i = start + 1
    while i < len(text):
        ch = text[i]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\":
            if i + 1 >= len(text):
                raise ValueError(i, "escape character after backslash")
            nxt = text[i + 1]
            if nxt not in ('"', "\\"):
                raise ValueError(i, 'one of \\" or \\\\')
            out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    raise ValueError(start, "closing quote")
