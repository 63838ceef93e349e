"""The unified logical-plan engine behind all five query languages.

The paper's central observation is that one diagrammatic pattern underlies
SQL, RA, TRC, DRC, and Datalog; this package is the executable counterpart:
one logical plan IR (:mod:`repro.engine.plan`) that every frontend compiles
into (:mod:`repro.engine.lower`), one rule-based optimizer
(:mod:`repro.engine.optimize` — predicate pushdown, cardinality-greedy join
reordering, common subexpression elimination), and one physical executor
(:mod:`repro.engine.execute` — hash joins, hash set operations, index scans,
semi-naive Datalog recursion).  A Datalog program lowers to one plan too: a
recursive stratum is one plan operator, :class:`FixpointP`.

The per-language interpreters under ``repro.sql`` / ``ra`` / ``trc`` /
``drc`` / ``datalog`` remain the *reference semantics*; the differential
harness in ``tests/test_engine.py`` asserts the engine agrees with all five
of them on the full canonical-query catalog.  The engine imports none of
them.  What both sides decide alike they take from one neutral module each:
answer packaging and first-occurrence dedupe from :mod:`repro.data.relation`
(``result_relation``, ``dedupe_rows``), the calculus comparison from
:mod:`repro.logic.terms`, the guarded normal form of a calculus body from
:mod:`repro.logic.transform`, SQL operators, functions and the ORDER BY key
from :mod:`repro.expr.eval`, and Datalog output names from
:mod:`repro.datalog.ast`.  Evaluation itself is never shared, so the
interpreters stay a second implementation.

Quickstart::

    from repro.data import sailors_database
    from repro.engine import run_query

    db = sailors_database()
    run_query("SELECT S.sname FROM Sailors S WHERE S.rating > 7", db)
    run_query("project[sname](Sailors njoin Reserves)", db, language="ra")
    run_query("ans(N) :- sailors(S, N, R, A), reserves(S, 102, D).", db)
"""

from repro.engine.execute import (
    ExecutorBackend,
    Program,
    RowBackend,
    build_result_relation,
    compile_rows,
    execute_datalog,
    execute_plan,
    get_backend,
    run_query,
)
from repro.engine.vectorized import VectorizedBackend, compile_batches
from repro.engine.sharded import (
    NotDistributable,
    ShardedBackend,
    ShardedPlan,
    shard_plan,
    split_aggregate,
)
from repro.engine.kernels import kernels_enabled
from repro.engine.process import ProcessBackend, default_process_workers
from repro.engine import lifecycle
from repro.engine.bind import attach_slots, bind_plan, scan_literals
from repro.engine.delta import (
    AggregateMaintainer,
    BagMaintainer,
    DeltaRewriteError,
    DistinctMaintainer,
    ViewMaintainer,
    asof_plan,
    build_maintainer,
    delta_terms,
    find_core,
    finish_rows,
)
from repro.engine.lower import (
    LoweringError,
    detect_language,
    lower,
    lower_datalog,
    lower_drc,
    lower_ra,
    lower_sql,
    lower_trc,
)
from repro.engine.optimize import (
    common_subplan_count,
    eliminate_common_subexpressions,
    estimate_rows,
    optimize,
    promote_hash_keys,
    push_down_filters,
    reorder_joins,
)
from repro.engine.stats import (
    ColumnStats,
    StatsCatalog,
    TableStats,
    collect_table_stats,
)
from repro.engine.verify import (
    PlanVerificationError,
    verification_counts,
    verification_enabled,
    verify_plan,
    verify_sharded_plan,
    verify_view_terms,
)
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
    DeltaUnavailable,
    DistinctP,
    DivideP,
    FilterP,
    FixpointP,
    JoinP,
    Plan,
    PlanError,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
    explain,
    resolve_column,
)

__all__ = [
    "AggregateMaintainer",
    "AggregateP",
    "BagMaintainer",
    "ColumnStats",
    "DeltaRewriteError",
    "DeltaScanP",
    "DeltaUnavailable",
    "DistinctMaintainer",
    "DistinctP",
    "DivideP",
    "ExecutorBackend",
    "FilterP",
    "FixpointP",
    "JoinP",
    "LoweringError",
    "NotDistributable",
    "Plan",
    "PlanError",
    "PlanVerificationError",
    "ProcessBackend",
    "Program",
    "ProjectP",
    "RowBackend",
    "ScanP",
    "SetOpP",
    "ShardedBackend",
    "ShardedPlan",
    "SortLimitP",
    "StatsCatalog",
    "TableStats",
    "VectorizedBackend",
    "ViewMaintainer",
    "attach_slots",
    "asof_plan",
    "bind_plan",
    "build_maintainer",
    "build_result_relation",
    "collect_table_stats",
    "common_subplan_count",
    "compile_batches",
    "compile_rows",
    "default_process_workers",
    "delta_terms",
    "detect_language",
    "kernels_enabled",
    "lifecycle",
    "find_core",
    "finish_rows",
    "get_backend",
    "eliminate_common_subexpressions",
    "estimate_rows",
    "execute_datalog",
    "execute_plan",
    "explain",
    "lower",
    "lower_datalog",
    "lower_drc",
    "lower_ra",
    "lower_sql",
    "lower_trc",
    "optimize",
    "promote_hash_keys",
    "push_down_filters",
    "reorder_joins",
    "resolve_column",
    "run_query",
    "scan_literals",
    "shard_plan",
    "split_aggregate",
    "verification_counts",
    "verification_enabled",
    "verify_plan",
    "verify_sharded_plan",
    "verify_view_terms",
]
