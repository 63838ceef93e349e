"""SQL lexer: the SQL token rules for the shared :class:`repro.syntax.Lexer`.

The token vocabulary covers the SELECT fragment used throughout the
tutorial: nested subqueries with EXISTS / IN / ANY / ALL, set operations,
grouping and ordering.  Identifiers may be double-quoted; strings use
single quotes with ``''`` escaping; comments (``-- ...`` and ``/* ... */``)
are skipped.  Aggregate names (``count``, ``sum``, ...) are ordinary names.
"""

from __future__ import annotations

from repro.syntax import NAME, NUMBER, QUOTED, STRING, Lexer, Token


class SQLSyntaxError(Exception):
    """Raised for lexical or grammatical errors in SQL text."""


#: Keywords recognised by the parser (case-insensitive).
KEYWORDS = frozenset(
    """
    select distinct from where group by having order asc desc limit offset
    as and or not in exists between like is null true false
    union intersect except all any some
    join inner left right full outer natural cross on using
    """.split()
)

LEXER = Lexer(
    [("ws", r"\s+|--[^\n]*|/\*[\s\S]*?\*/"),
     ("number", NUMBER),
     ("string", STRING),
     ("quoted_name", QUOTED),
     ("op", r"<>|!=|<=|>=|=|<|>|\(|\)|,|\.|\*|\+|-|/|%|;"),
     ("name", NAME)],
    keywords=KEYWORDS, error=SQLSyntaxError)

__all__ = ["KEYWORDS", "LEXER", "SQLSyntaxError", "Token", "tokenize"]


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SQLSyntaxError` on illegal characters."""
    return LEXER.tokenize(sql)
