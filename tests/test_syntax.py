"""The shared front end (repro.syntax) across all five textual languages.

One table per concern, parametrized over SQL, RA, TRC, DRC and Datalog:

* every catalog text survives format -> re-parse as an equal AST;
* malformed texts raise exactly the language's own error class;
* the literals a language's lexer yields are the literals the plan-cache
  scanner (``engine.bind.scan_literals``) lifts, in order — the invariant
  slot discovery rests on.
"""

from __future__ import annotations

import pytest

from repro.datalog import parse_datalog
from repro.datalog.ast import DatalogError
from repro.datalog.parser import LEXER as DATALOG_LEXER
from repro.drc import parse_drc
from repro.drc.ast import DRCError
from repro.drc.format import format_drc_query
from repro.drc.parser import LEXER as DRC_LEXER
from repro.engine.bind import scan_literals
from repro.queries import CANONICAL_QUERIES
from repro.ra import parse_ra, to_text
from repro.ra.ast import RAError
from repro.ra.parser import LEXER as RA_LEXER
from repro.sql import parse_sql
from repro.sql.format import format_query
from repro.sql.lexer import LEXER as SQL_LEXER
from repro.sql.lexer import SQLSyntaxError
from repro.syntax import number
from repro.trc import parse_trc
from repro.trc.ast import TRCError
from repro.trc.format import format_trc_query
from repro.trc.parser import LEXER as TRC_LEXER

#: language (a catalog attribute) -> (parse, format, lexer, error class)
LANGUAGES = {
    "sql": (parse_sql, format_query, SQL_LEXER, SQLSyntaxError),
    "ra": (parse_ra, to_text, RA_LEXER, RAError),
    "trc": (parse_trc, format_trc_query, TRC_LEXER, TRCError),
    "drc": (parse_drc, format_drc_query, DRC_LEXER, DRCError),
    "datalog": (parse_datalog, str, DATALOG_LEXER, DatalogError),
}

#: Catalog texts, one case per (language, query).
CATALOG = [pytest.param(language, getattr(query, language),
                        id=f"{language}-{query.id}")
           for language in LANGUAGES for query in CANONICAL_QUERIES]

#: Malformed texts per language: truncated, unbalanced, an illegal
#: character, trailing input.
MALFORMED = {
    "sql": ["SELECT S.sname FROM Sailors S WHERE",
            "SELECT S.sname FROM (SELECT * FROM Sailors S",
            "SELECT S.sname FROM Sailors S WHERE S.age ? 3",
            "SELECT S.sname FROM Sailors S ) extra"],
    "ra": ["project[sname](select[rating >](Sailors))",
           "project[sname](select[rating > 7](Sailors)",
           "project[sname](select[rating $ 7](Sailors))",
           "project[sname](Sailors) Boats"],
    "trc": ["{ s.sname | Sailors(s) and s.rating > }",
            "{ s.sname | Sailors(s) and (s.rating > 7 }",
            "{ s.sname | Sailors(s) and s.rating @ 7 }",
            "{ s.sname | Sailors(s) } extra"],
    "drc": ["{ n | exists s, r, a (Sailors(s, n, r, a) and r > }",
            "{ n | exists s, r, a (Sailors(s, n, r, a) }",
            "{ n | exists s, r, a (Sailors(s, n, r, a) & r > 7) }",
            "{ n | exists s, r, a (Sailors(s, n, r, a)) } }"],
    "datalog": ["ans(N) :- sailors(S, N, R, A), R >",
                "ans(N) :- sailors(S, N, R, A.",
                "ans(N) :- sailors(S, N, R, A), R ! 7.",
                "ans(N) :- sailors(S, N, R, A). ans"],
}


@pytest.mark.parametrize("language, text", CATALOG)
def test_format_then_parse_is_the_same_ast(language, text):
    parse, format_, _lexer, _error = LANGUAGES[language]
    ast = parse(text)
    assert parse(format_(ast)) == ast


@pytest.mark.parametrize("language, text", [
    pytest.param(language, text, id=f"{language}-{i}")
    for language, texts in MALFORMED.items() for i, text in enumerate(texts)])
def test_malformed_text_raises_the_language_error(language, text):
    parse, _format, _lexer, error = LANGUAGES[language]
    with pytest.raises(Exception) as caught:
        parse(text)
    assert type(caught.value) is error, caught.value


@pytest.mark.parametrize("language, text", CATALOG)
def test_lexer_literals_are_the_scanned_literals(language, text):
    lexer = LANGUAGES[language][2]
    lexed = [number(token.text) if token.kind == "number" else token.text
             for token in lexer.tokenize(text)
             if token.kind in ("number", "string")]
    _shape, literals = scan_literals(text)
    assert lexed == list(literals)
    assert [type(v) for v in lexed] == [type(v) for v in literals]
