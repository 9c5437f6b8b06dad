"""The ``python -m repro.analysis`` linter.

Lints query files (one query per non-comment line; ``#`` comments and
blank lines are skipped) against an optional schema / access-rule pair,
plus the access rules themselves and the repo's own workload bundles::

    # every query in queries.dl, schema-validated and analyzed
    python -m repro.analysis queries.dl --schema schema.dl

    # plan-level passes too: compile under the access rules, advise
    # covering views for uncontrolled queries
    python -m repro.analysis queries.dl --schema schema.dl \\
        --access "friend(pid1 -> 32)" --params p

    # the CI gate: the Q1-Q5 workload bundles must be warning-clean and
    # every compiled plan must pass independent certification
    python -m repro.analysis --workload --strict --certify

    # machine-readable output (what CI uploads as an artifact)
    python -m repro.analysis --workload --format json

    # the multi-atom view advisor: seed a social instance, refresh cost
    # stats, and propose covering views for the uncontrolled/expensive
    # bundles (JSON output gains an "advice" key)
    python -m repro.analysis --workload --advise --format json

    # apply the certified QRY003/QRY004 rewrites in place (--dry-run:
    # print the unified diff without writing)
    python -m repro.analysis queries.dl --fix --params p

    # the code table
    python -m repro.analysis --codes

Exit status is 0 when the report stays below the failure floor --
errors by default, warnings under ``--strict`` -- and 1 otherwise.
Unparseable input surfaces as **SYN001** (error), so syntax problems
fail even without ``--strict``.
"""

from __future__ import annotations

import argparse
import difflib
import json
import re
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import (
    CODES,
    Report,
    Severity,
    advice_report,
    advise_covering_view,
    analyze_access,
    analyze_plan,
    analyze_query,
    certify_plan,
    diagnostic,
    fix_query,
    workload_advice,
    workload_report,
)
from repro.core.access_schema import AccessSchema
from repro.core.plans import compile_plan
from repro.errors import NotControlledError, ParseError, ReproError
from repro.logic.ast import Span, _as_variable
from repro.logic.cq import ConjunctiveQuery
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


def _lint_file(
    filename: str,
    schema: DatabaseSchema | None,
    access: AccessSchema | None,
    params: Sequence[str],
    report: Report,
    *,
    certify: bool = False,
) -> None:
    try:
        text = Path(filename).read_text()
    except OSError as exc:
        report.add(
            diagnostic("SYN001", f"cannot read file: {exc}", source=filename)
        )
        return
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        shift = lineno - 1
        try:
            query = parse_query(line, schema=schema)
        except ParseError as exc:
            column = exc.column if exc.column is not None else 1
            span = Span(lineno, column, lineno, column)
            # The span carries the (shifted) coordinates; drop the
            # parser's own one-line-relative "(line 1, column C)" tail.
            message = re.sub(r" \(line \d+(?:, column \d+)?\)$", "", str(exc))
            report.add(
                diagnostic("SYN001", message, span=span, source=filename)
            )
            continue
        except ReproError as exc:  # schema validation (SchemaError, ...)
            span = Span(lineno, 1, lineno, max(len(line.rstrip()), 1))
            report.add(
                diagnostic("SYN001", str(exc), span=span, source=filename)
            )
            continue
        for diag in analyze_query(query, access, _usable(params, query), source=filename):
            report.add(diag.shifted(shift))
        if access is None:
            continue
        for disjunct in disjuncts_of(query):
            usable = _usable(params, disjunct)
            try:
                plan = compile_plan(disjunct, access, usable)
            except NotControlledError:
                for diag in advise_covering_view(
                    disjunct, access, usable, source=filename
                ):
                    report.add(diag.shifted(shift))
            except ReproError:
                continue  # already reported (or out of scope) above
            else:
                for diag in analyze_plan(plan, source=filename):
                    report.add(diag.shifted(shift))
                if certify:
                    for diag in certify_plan(plan, access, source=filename):
                        report.add(diag.shifted(shift))


def _usable(params: Sequence[str], query) -> tuple[str, ...]:
    """The declared parameters that actually occur in ``query`` -- a file
    of heterogeneous queries shares one ``--params`` list, so missing
    occurrences are normal, not an error."""
    if isinstance(query, ConjunctiveQuery):
        variables = set(query.variables())
    else:
        variables = {v for d in query.disjuncts for v in d.variables()}
    return tuple(p for p in params if _as_variable(p) in variables)


def _fix_file(
    filename: str,
    schema: DatabaseSchema | None,
    params: Sequence[str],
    *,
    dry_run: bool,
) -> bool:
    """Apply the certified QRY003/QRY004 rewrites to ``filename``.

    Each query line is rewritten only when :func:`fix_query` both
    changed it and verified the rewrite by re-parse + homomorphic
    equivalence.  Prints a unified diff of any changes; writes the file
    unless ``dry_run``.  Returns True when anything changed."""
    try:
        text = Path(filename).read_text()
    except OSError:
        return False  # already reported as SYN001 by the lint pass
    old_lines = text.splitlines()
    new_lines = list(old_lines)
    notes: list[str] = []
    for lineno, line in enumerate(old_lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            query = parse_query(line, schema=schema)
        except ReproError:
            continue  # unparseable lines are lint findings, not fixable
        result = fix_query(query, _usable(params, query), schema=schema)
        if not result.fixes:
            continue
        if not result.verified:
            notes.append(
                f"{filename}:{lineno}: fix not applied -- the rewrite "
                f"failed equivalence verification"
            )
            continue
        indent = line[: len(line) - len(line.lstrip())]
        new_lines[lineno - 1] = indent + str(result.fixed)
        for fix in result.fixes:
            notes.append(f"{filename}:{lineno}: {fix}")
    if new_lines == old_lines:
        for note in notes:
            print(note)
        return False
    trailer = "\n" if text.endswith("\n") else ""
    new_text = "\n".join(new_lines) + trailer
    diff = difflib.unified_diff(
        text.splitlines(keepends=True),
        new_text.splitlines(keepends=True),
        fromfile=filename,
        tofile=f"{filename} (fixed)",
    )
    sys.stdout.write("".join(diff))
    for note in notes:
        print(note)
    if dry_run:
        print(f"{filename}: dry run -- no changes written")
    else:
        Path(filename).write_text(new_text)
        print(f"{filename}: fixes written")
    return True


def _advise_files(
    filenames: Sequence[str],
    schema: DatabaseSchema,
    access: AccessSchema,
    params: Sequence[str],
    report: Report,
) -> list:
    """Run the multi-atom advisor over every parseable query in
    ``filenames`` on a data-less engine (no stats, so bounds fall back to
    the default).  Merges the VIW004/VIW005 diagnostics into ``report``
    and returns the advice list."""
    from repro.analysis import advise_views
    from repro.api.engine import Engine

    engine = Engine(schema, access)
    entries: list[tuple] = []
    for filename in filenames:
        try:
            text = Path(filename).read_text()
        except OSError:
            continue  # already reported as SYN001 by the lint pass
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                query = parse_query(line, schema=schema)
            except ReproError:
                continue  # unparseable lines are lint findings
            entries.append((query, _usable(params, query), filename))
    advices = list(advise_views(engine, entries))
    report.extend(advice_report(advices))
    return advices


def _print_codes() -> None:
    width = max(len(info.title) for info in CODES.values())
    for code in sorted(CODES):
        info = CODES[code]
        print(f"{info.code}  {str(info.severity):<7}  {info.title.ljust(width)}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically analyze queries, access schemas and the "
        "built-in workload bundles.",
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
        "--strict",
        action="store_true",
        help="fail on warnings, not just errors",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help="independently certify every compiled plan (CRT codes); "
        "with --workload, gate the bundles' engine on certification",
    )
    parser.add_argument(
        "--advise",
        action="store_true",
        help="run the multi-atom view advisor: with --workload, seed a "
        "social instance and propose covering views for the "
        "uncontrolled/expensive bundles; with files, advise each query "
        "against --schema/--access (no stats, default bounds)",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply the certified QRY003/QRY004 rewrites to the given "
        "files (each verified by re-parse + homomorphic equivalence)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with --fix: print the unified diff without writing",
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
    if args.fix and not args.files:
        parser.error("--fix needs query files to rewrite")
    if args.dry_run and not args.fix:
        parser.error("--dry-run only makes sense with --fix")
    if args.advise and args.files and not args.access:
        parser.error("--advise on files needs --schema and --access")

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
        else:
            report.extend(analyze_access(access, source="--access"))

    if args.workload:
        try:
            report.extend(workload_report(certify=args.certify or None))
        except ReproError as exc:  # a CertificationError fails the gate
            report.add(diagnostic("SYN001", str(exc), source="--workload"))

    params = tuple(p.strip() for p in args.params.split(",") if p.strip())
    for filename in args.files:
        _lint_file(
            filename, schema, access, params, report, certify=args.certify
        )
    if args.fix:
        for filename in args.files:
            _fix_file(filename, schema, params, dry_run=args.dry_run)

    advices: list = []
    if args.advise:
        if args.workload:
            try:
                workload_advices, advice_diags = workload_advice()
            except ReproError as exc:
                report.add(
                    diagnostic("SYN001", str(exc), source="--workload")
                )
            else:
                advices.extend(workload_advices)
                report.extend(advice_diags)
        if args.files and schema is not None and access is not None:
            advices.extend(
                _advise_files(args.files, schema, access, params, report)
            )

    if args.format == "json":
        payload = report.to_dict()
        if args.advise:
            payload["advice"] = [advice.to_dict() for advice in advices]
        print(json.dumps(payload, indent=2))
    else:
        if report:
            print(report.render())
        print(report.summary())
    fail_on = Severity.WARNING if args.strict else Severity.ERROR
    return 0 if report.ok(fail_on) else 1


if __name__ == "__main__":
    sys.exit(main())
