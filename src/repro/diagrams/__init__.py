"""Diagram builders for the formalisms surveyed in the tutorial.

Use :func:`build_diagram` to obtain a diagram for a query in any implemented
formalism::

    from repro.diagrams import build_diagram
    diagram = build_diagram("queryvis", "SELECT ...", schema)
    print(diagram.to_ascii())
"""

from __future__ import annotations

import importlib

from repro.core.diagram import Diagram
from repro.diagrams.common import CannotRepresent

#: Formalism key -> (module under ``repro.diagrams``, builder function); a
#: module is imported the first time its formalism is drawn.
_BUILDERS: dict[str, tuple[str, str]] = {
    "queryvis": ("queryvis", "queryvis_diagram"),
    "relational_diagrams": ("relational_diagrams", "relational_diagram"),
    "peirce_beta": ("peirce_beta", "beta_diagram_for_query"),
    "string_diagrams": ("string_diagrams", "string_diagram_for_query"),
    "qbe": ("qbe", "qbe_diagram"),
    "dfql": ("dfql", "dfql_diagram"),
    "sqlvis": ("sqlvis", "sqlvis_diagram"),
    "visual_sql": ("visual_sql", "visual_sql_diagram"),
    "conceptual": ("conceptual", "conceptual_graph_diagram"),
}


def available_builders() -> list[str]:
    """Keys accepted by :func:`build_diagram` for relational queries."""
    return sorted(_BUILDERS)


def build_diagram(formalism: str, query, schema) -> Diagram:
    """Build the diagram of ``query`` in the given formalism.

    ``query`` may be SQL text, a parsed SQL AST, or (for the TRC-based
    formalisms) a TRC query.  Formalisms that only handle logical statements
    (Euler, Venn, Peirce alpha, constraint diagrams) have their own dedicated
    APIs in their modules and are not reachable through this dispatcher.
    """
    key = formalism.lower()
    if key not in _BUILDERS:
        raise CannotRepresent(
            f"no diagram builder registered for formalism {formalism!r}; "
            f"available: {', '.join(available_builders())}"
        )
    module, builder = _BUILDERS[key]
    return getattr(importlib.import_module(f"repro.diagrams.{module}"), builder)(query, schema)


__all__ = ["available_builders", "build_diagram", "CannotRepresent"]
