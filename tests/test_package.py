"""The package imports and exports everything it promises."""

import ast
import importlib
from pathlib import Path

# Names the top level is documented to export; test_all_is_complete keeps
# __all__ and this list in sync.
EXPECTED_EXPORTS = {
    # errors
    "ReproError",
    "SchemaError",
    "UpdateError",
    "NotControlledError",
    "RewritingError",
    "ParseError",
    "IncrementalError",
    "CertificationError",
    "CompactedError",
    # terms, atoms and equalities
    "Variable",
    "Constant",
    "Atom",
    "Equality",
    "Span",
    # queries and parsing
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
    "parse_query",
    "parse_cq",
    # relational substrate
    "RelationSchema",
    "DatabaseSchema",
    "parse_schema",
    "Database",
    "AccessStats",
    # storage backends
    "MemoryBackend",
    "SqliteBackend",
    # access schemas
    "AccessRule",
    "EmbeddedAccessRule",
    "FullAccessRule",
    "AccessSchema",
    "parse_access_schema",
    # controllability and plans
    "controlling_sets",
    "is_controlled",
    "Plan",
    "FetchStep",
    "ProbeStep",
    "compile_plan",
    # the physical executor
    "ExecutionContext",
    "build_pipeline",
    "execute_plan",
    # incremental execution
    "IncrementalResult",
    "delta_fanout_bound",
    # materialized views (Section 6)
    "ViewDef",
    "ViewState",
    # deciders
    "decide_qdsi",
    "decide_qsi",
    # the Engine facade
    "Engine",
    "PreparedQuery",
    "ResultSet",
    # static analysis
    "Severity",
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
    for name in ("Plan", "FetchStep", "ProbeStep", "decide_qsi", "decide_qdsi", "is_controlled"):
        assert getattr(repro, name) is getattr(core, name)
    # What the deciders return stays in its subpackage, off the top level.
    for name in ("QSIResult", "QDSIResult", "Coverage", "coverage", "StepCost"):
        assert name in core.__all__ and name not in repro.__all__


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
        "repro.analysis.certify",
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


def test_lower_layers_never_import_analysis():
    """logic, relational and core sit below repro.analysis: no module of
    theirs imports it, not even lazily inside a function."""
    root = Path(importlib.import_module("repro").__file__).parent
    offending = []
    for layer in ("logic", "relational", "core"):
        for path in sorted((root / layer).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(n == "repro.analysis" or n.startswith("repro.analysis.") for n in names):
                    offending.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not offending, offending
