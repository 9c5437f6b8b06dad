"""The ``python -m repro.analysis`` linter.

Checks query files (one query per non-comment line; ``#`` comments and
blank lines are skipped) against an optional schema / access-rule pair,
and the repo's own workload bundles::

    # every query in queries.dl, parsed and schema-validated (SYN001)
    python -m repro.analysis queries.dl --schema schema.dl

    # with access rules, each line is reported exactly as
    # engine.analyze reports it: the controllability trace, the INC and
    # CST passes
    python -m repro.analysis queries.dl --schema schema.dl \\
        --access "friend(pid1 -> 32)" --params p

    # the CI gate: the Q1-Q5 workload bundles must be error-free and
    # every compiled plan must pass independent certification
    python -m repro.analysis --workload --certify

    # machine-readable output (what CI uploads as an artifact)
    python -m repro.analysis --workload --format json

    # the code table
    python -m repro.analysis --codes

Exit status is 1 when the report holds an error -- **SYN001** for input
that does not parse or validate, or a CRT / CST finding -- and 0
otherwise: hints inform, they never fail.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis import (
    CODES,
    Report,
    analyze_prepared,
    diagnostic,
    workload_report,
)
from repro.api.engine import Engine, PreparedQuery
from repro.core.access_schema import AccessSchema
from repro.errors import CertificationError, ParseError, ReproError
from repro.logic.ast import Span, _as_variable
from repro.logic.parser import parse_query
from repro.logic.ucq import disjuncts_of
from repro.relational.schema import DatabaseSchema


def _text_or_path(value: str) -> str:
    """DSL text, or the contents of the file it names."""
    try:
        path = Path(value)
        if path.is_file():
            return path.read_text()
    except OSError:
        pass
    return value


def _queries(
    filename: str, schema: DatabaseSchema | None, report: Report
) -> Iterator[tuple[int, str, object]]:
    """Every line of ``filename`` as ``(lineno, line, query)``; ``query``
    is None on blank, comment and unparseable lines (each failure a
    SYN001 in ``report``, as is an unreadable file).  A line is parsed
    alone (so a plain rule takes the parser's plain path), then its spans
    move down ``lineno - 1`` lines into file coordinates -- before any
    pass reads them, since INC001's trace quotes its atom's span."""
    try:
        text = Path(filename).read_text()
    except OSError as exc:
        report.add(
            diagnostic("SYN001", f"cannot read file: {exc}", source=filename)
        )
        return
    for lineno, line in enumerate(text.splitlines(), 1):
        query = None
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            try:
                query = _moved_down(parse_query(line, schema=schema), lineno - 1)
            except ParseError as exc:
                column = exc.column or 1
                span = Span(lineno, column, lineno, column)
                # The span carries the position; drop the message's own
                # "(line L, column C)" tail.
                message = re.sub(r" \(line \d+(?:, column \d+)?\)$", "", str(exc))
                report.add(diagnostic("SYN001", message, span=span, source=filename))
            except ReproError as exc:  # schema validation (SchemaError, ...)
                report.add(_line_error(str(exc), lineno, line, filename))
        yield lineno, line, query


def _moved_down(query, lines: int):
    """``query`` with its atoms' and equalities' spans moved down ``lines``."""
    for disjunct in disjuncts_of(query):
        for node in (*disjunct.body, *disjunct.equalities):
            span = node.span
            node.span = Span(span.line + lines, span.column, span.end_line + lines, span.end_column)
    return query


def _line_error(message: str, lineno: int, line: str, filename: str):
    """A SYN001 spanning the whole of line ``lineno``."""
    span = Span(lineno, 1, lineno, max(len(line.rstrip()), 1))
    return diagnostic("SYN001", message, span=span, source=filename)


def _usable(params: Sequence[str], query) -> tuple[str, ...]:
    """The declared parameters that occur in every disjunct of ``query``
    -- the Engine's own rule for a union.  A file of heterogeneous
    queries shares one ``--params`` list, so missing occurrences are
    normal, not an error."""
    shared = set.intersection(*(set(d.variables()) for d in disjuncts_of(query)))
    return tuple(p for p in params if _as_variable(p) in shared)


def _certification(exc: CertificationError, source: str):
    """The certifier's own CRT findings, anchored at ``source``."""
    return [replace(d, source=source) for d in exc.report]


def _print_codes() -> None:
    width = max(len(info.title) for info in CODES.values())
    for code in sorted(CODES):
        info = CODES[code]
        print(f"{info.code}  {str(info.severity):<7}  {info.title.ljust(width)}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically analyze query files and the built-in "
        "workload bundles.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="query files to lint (one query per non-comment line)",
    )
    parser.add_argument(
        "--schema",
        help="database schema: DSL text or a file containing it",
    )
    parser.add_argument(
        "--access",
        help="access rules (requires --schema): DSL text or a file",
    )
    parser.add_argument(
        "--params",
        default="",
        help="comma-separated parameter names supplied at execution time",
    )
    parser.add_argument(
        "--workload",
        action="store_true",
        help="analyze the built-in Q1-Q5 workload bundles (the CI gate)",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="independently certify every compiled plan (CRT codes); "
        "with --workload, gate the bundles' engine on certification",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json prints Report.to_json())",
    )
    parser.add_argument(
        "--codes",
        action="store_true",
        help="print the diagnostic code table and exit",
    )
    args = parser.parse_args(argv)

    if args.codes:
        _print_codes()
        return 0
    if args.access and not args.schema:
        parser.error("--access requires --schema")
    if not args.files and not args.workload:
        parser.error("nothing to analyze: pass query files or --workload")

    report = Report()
    schema: DatabaseSchema | None = None
    access: AccessSchema | None = None
    if args.schema:
        try:
            schema = DatabaseSchema.parse(_text_or_path(args.schema))
        except ReproError as exc:
            report.add(diagnostic("SYN001", str(exc), source="--schema"))
    if args.access and schema is not None:
        try:
            access = AccessSchema.parse(schema, _text_or_path(args.access))
        except ReproError as exc:
            report.add(diagnostic("SYN001", str(exc), source="--access"))

    if args.workload:
        try:
            report.extend(workload_report(certify=args.certify or None))
        except CertificationError as exc:
            report.extend(_certification(exc, "--workload"))

    params = tuple(p.strip() for p in args.params.split(",") if p.strip())
    engine = None
    if access is not None:
        engine = Engine(schema, access, certify=args.certify or None)
    for filename in args.files:
        for lineno, line, query in _queries(filename, schema, report):
            if query is None or engine is None:
                continue  # without access rules a line is only parsed
            usable = _usable(params, query)
            try:
                # The line's own parse, not engine.query: its source memo
                # ignores spans, so two equal lines would share one.
                prepared = PreparedQuery(engine, query)
            except ValueError as exc:  # a union whose heads disagree
                report.add(_line_error(str(exc), lineno, line, filename))
                continue
            try:
                report.extend(analyze_prepared(prepared, usable, source=filename))
            except CertificationError as exc:
                report.extend(_certification(exc, filename))

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        if report:
            print(report.render())
        print(report.summary())
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
