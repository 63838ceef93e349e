"""Formatting of TRC queries back to text (ASCII or Unicode logic symbols).

A TRC body is a logic formula, printed by the calculus printer
:func:`repro.drc.format.format_drc_formula` once :func:`check_trc` has
found it inside TRC.
"""

from __future__ import annotations

from repro.drc.format import format_drc_formula, format_term
from repro.logic.formula import Formula
from repro.trc.ast import HeadItem, TRCQuery, check_trc


def format_trc_formula(formula: Formula, *, unicode: bool = False) -> str:
    check_trc(formula)
    return format_drc_formula(formula, unicode=unicode)


def format_head_item(item: HeadItem) -> str:
    text = format_term(item.term)
    if item.alias:
        text += f" as {item.alias}"
    return text


def format_trc_query(query: TRCQuery, *, unicode: bool = False) -> str:
    head = ", ".join(format_head_item(item) for item in query.head)
    body = format_trc_formula(query.body, unicode=unicode)
    return f"{{ {head} | {body} }}"
