"""Double-quoted string syntax shared by the fact file and the query language.

Only two escapes exist: \\" for a quote and \\\\ for a backslash.  QUOTED
matches exactly the well-formed strings, and both tokenizers use it.
Value lists are written in the same syntax wherever they are displayed.
"""

from __future__ import annotations

import re

from .model import Value

_BODY = r'[^"\\]*(?:\\["\\][^"\\]*)*'
QUOTED = re.compile(f'"{_BODY}"')  # no capture group: findall yields whole tokens
_OPENED = re.compile(f'"{_BODY}')  # the longest well-formed start of a string
_ESCAPE = re.compile(r"\\(.)")


def quote(text: str) -> str:
    """Wrap text in double quotes, escaping backslashes and quotes."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def unquote(token: str) -> str:
    """The text of a well-formed quoted string (a QUOTED match)."""
    body = token[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def quote_error(text: str, start: int) -> tuple[int, str]:
    """(0-based offset, what was expected there) when no well-formed
    string begins at text[start]: its opening or closing quote, or a valid
    escape at the first backslash that escapes nothing usable."""
    opened = _OPENED.match(text, start)
    if opened is None:
        return start, "opening quote"
    end = opened.end()
    if end == len(text):
        return start, "closing quote"
    if end + 1 == len(text):  # text[end] is a backslash
        return end, "escape character after backslash"
    return end, 'one of \\" or \\\\'


def format_quoted_value(quoted_term: str, rank: int | None) -> str:
    """One value in file syntax, "term" or ("term", rank), from its quoted term."""
    return quoted_term if rank is None else f"({quoted_term}, {rank})"


def format_values(values: tuple[Value, ...]) -> str:
    return "[" + ", ".join(format_quoted_value(quote(v.term), v.rank) for v in values) + "]"
