"""Core query-visualization framework: diagram model, layout, renderers,
pipeline, query patterns, principles, formalism registry, and metrics."""

from repro.core.diagram import (
    Diagram,
    DiagramEdge,
    DiagramError,
    DiagramGroup,
    DiagramNode,
    merge_side_by_side,
)
from repro.core.layout import Box, Layout, compute_layout
from repro.core.metrics import DiagramMetrics, compare, measure, size_table
from repro.core.patterns import (
    PatternError,
    PatternPredicate,
    PatternVariable,
    QueryPattern,
    isomorphic,
    normalize_trc,
    pattern_of,
    same_pattern,
)
from repro.core.pipeline import (
    PIPELINE_LANGUAGES,
    Counters,
    PipelineResult,
    QueryVisualizationPipeline,
    answer_any,
    explain_calculus,
    explain_query,
    explain_sql,
    fingerprint_query,
    visualize_sql,
)
from repro.core.service import (
    MaterializedView,
    PreparedQuery,
    QueryService,
)
from repro.core.service_api import (
    OverloadedError,
    QueryResult,
    ServiceAPI,
    ServiceError,
    wrap_service_error,
)
from repro.core.sharded_service import ShardedQueryService
from repro.core.principles import (
    PRINCIPLES,
    Principle,
    PrincipleScore,
    principles_table,
    score_formalism,
)
from repro.core.registry import (
    FEATURES,
    REGISTRY,
    FormalismInfo,
    coverage_matrix,
    formalism,
    implemented_formalisms,
)
from repro.core.render_dot import render_dot
from repro.core.render_svg import render_svg, save_svg
from repro.core.render_text import render_text

__all__ = [
    "Box",
    "Diagram",
    "DiagramEdge",
    "DiagramError",
    "DiagramGroup",
    "DiagramMetrics",
    "DiagramNode",
    "FEATURES",
    "FormalismInfo",
    "Layout",
    "MaterializedView",
    "PRINCIPLES",
    "PIPELINE_LANGUAGES",
    "PatternError",
    "PatternPredicate",
    "PatternVariable",
    "Counters",
    "PipelineResult",
    "PreparedQuery",
    "answer_any",
    "fingerprint_query",
    "explain_calculus",
    "Principle",
    "PrincipleScore",
    "OverloadedError",
    "QueryPattern",
    "QueryResult",
    "QueryService",
    "QueryVisualizationPipeline",
    "ServiceAPI",
    "ServiceError",
    "ShardedQueryService",
    "wrap_service_error",
    "REGISTRY",
    "compare",
    "compute_layout",
    "coverage_matrix",
    "explain_query",
    "explain_sql",
    "formalism",
    "implemented_formalisms",
    "isomorphic",
    "measure",
    "merge_side_by_side",
    "normalize_trc",
    "pattern_of",
    "principles_table",
    "render_dot",
    "render_svg",
    "render_text",
    "same_pattern",
    "save_svg",
    "score_formalism",
    "size_table",
    "visualize_sql",
]
