"""Tuple Relational Calculus: queries, parser, formatter, safety, evaluator.

A TRC body is a :mod:`repro.logic.formula` formula, the node classes DRC
uses too; this package adds the query frame (:class:`TRCQuery`,
:class:`HeadItem`), the attribute-reference term :class:`AttrRef`
(re-exported from :mod:`repro.logic.terms`), and TRC's own parser,
formatter, safety check and evaluator.
"""

from repro.logic.terms import AttrRef
from repro.trc.ast import (
    HeadItem,
    TRCError,
    TRCQuery,
    atom_variable,
    check_trc,
    variable_ranges,
)
from repro.trc.evaluate import evaluate_trc, evaluate_trc_boolean
from repro.trc.format import format_trc_formula, format_trc_query
from repro.trc.parser import parse_trc, parse_trc_formula
from repro.trc.safety import SafetyReport, check_safety, is_safe

__all__ = [
    "AttrRef",
    "HeadItem",
    "SafetyReport",
    "TRCError",
    "TRCQuery",
    "atom_variable",
    "check_safety",
    "check_trc",
    "evaluate_trc",
    "evaluate_trc_boolean",
    "format_trc_formula",
    "format_trc_query",
    "is_safe",
    "parse_trc",
    "parse_trc_formula",
    "variable_ranges",
]
