"""The package imports and exports everything it promises."""

import importlib

# Names the top level is documented to export; test_all_is_complete keeps
# __all__ and this list in sync.
EXPECTED_EXPORTS = {
    # errors
    "ReproError",
    "SchemaError",
    "UpdateError",
    "UndecidableError",
    "NotControlledError",
    "RewritingError",
    "ParseError",
    "IncrementalError",
    "CertificationError",
    "CompactedError",
    # terms and formulas
    "Variable",
    "Constant",
    "Atom",
    "Equality",
    "And",
    "Or",
    "Not",
    "Exists",
    "Forall",
    "Implies",
    "Span",
    # queries and parsing
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
    "FirstOrderQuery",
    "parse_query",
    "parse_cq",
    # relational substrate
    "RelationSchema",
    "DatabaseSchema",
    "parse_schema",
    "Database",
    "AccessStats",
    "ChangeEntry",
    "ChangeLog",
    # storage backends
    "StorageBackend",
    "MemoryBackend",
    "SqliteBackend",
    "ShardedBackend",
    # access schemas
    "AccessRule",
    "EmbeddedAccessRule",
    "FullAccessRule",
    "AccessSchema",
    "parse_access_schema",
    # controllability and plans
    "Coverage",
    "CoverageStep",
    "coverage",
    "controlling_sets",
    "is_controlled",
    "Plan",
    "FetchStep",
    "ProbeStep",
    "StepCost",
    "compile_plan",
    # the physical executor
    "ExecutionContext",
    "FetchOp",
    "ProbeOp",
    "FilterOp",
    "ProjectDedupOp",
    "OperatorProfile",
    "PlanProfile",
    "build_pipeline",
    "execute_plan",
    "profile_plan",
    # incremental execution
    "IncrementalResult",
    "execute_plan_counting",
    "execute_plan_delta",
    "delta_fanout_bound",
    # materialized views (Section 6)
    "ViewDef",
    "ViewSet",
    "ViewState",
    # deciders
    "QDSIResult",
    "decide_qdsi",
    "QSIResult",
    "decide_qsi",
    # the Engine facade
    "Engine",
    "PreparedQuery",
    "ResultSet",
    "ExplainAnalyze",
    "CacheStats",
    # static analysis
    "Severity",
    "Diagnostic",
    "Report",
}


def test_every_exported_name_resolves():
    repro = importlib.import_module("repro")
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert not missing


def test_all_is_complete():
    repro = importlib.import_module("repro")
    assert set(repro.__all__) == EXPECTED_EXPORTS


def test_all_has_no_duplicates():
    repro = importlib.import_module("repro")
    assert len(repro.__all__) == len(set(repro.__all__))


def test_core_names_reexported_at_top_level():
    repro = importlib.import_module("repro")
    core = importlib.import_module("repro.core")
    for name in ("Plan", "FetchStep", "ProbeStep", "QSIResult", "QDSIResult", "Coverage", "coverage"):
        assert getattr(repro, name) is getattr(core, name)


def test_rewriting_error_is_exported():
    from repro import ReproError, RewritingError

    assert "RewritingError" in importlib.import_module("repro").__all__
    assert issubclass(RewritingError, ReproError)


def test_star_import_is_clean():
    namespace = {}
    exec("from repro import *", namespace)
    assert EXPECTED_EXPORTS <= set(namespace)


def test_subpackages_import():
    for mod in (
        "repro.logic",
        "repro.logic.evaluation",
        "repro.logic.homomorphism",
        "repro.logic.parser",
        "repro.relational",
        "repro.relational.backends",
        "repro.relational.backends.base",
        "repro.relational.backends.memory",
        "repro.relational.backends.sqlite",
        "repro.relational.backends.sharded",
        "repro.core",
        "repro.core.executor",
        "repro.api",
        "repro.api.cache",
        "repro.api.engine",
        "repro.incremental",
        "repro.views",
        "repro.views.definition",
        "repro.views.rewrite",
        "repro.workloads",
        "repro.workloads.churn",
        "repro.analysis",
        "repro.analysis.diagnostics",
        "repro.analysis.queries",
        "repro.analysis.access",
        "repro.analysis.plans",
        "repro.analysis.views",
        "repro.analysis.certify",
        "repro.analysis.dataflow",
        "repro.analysis.fixes",
        "repro.analysis.__main__",
    ):
        importlib.import_module(mod)


def test_docstring_promises_match_implementation():
    """The package docstring documents repro.views as implemented (the
    'planned' note is gone)."""
    import repro

    assert "repro.views" in repro.__doc__
    assert "repro.analysis" in repro.__doc__
    assert "planned" not in repro.__doc__.lower()


def test_subpackage_alls_resolve():
    for mod_name in (
        "repro.logic",
        "repro.relational",
        "repro.relational.backends",
        "repro.core",
        "repro.api",
        "repro.views",
        "repro.analysis",
    ):
        mod = importlib.import_module(mod_name)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod_name}: {missing}"
