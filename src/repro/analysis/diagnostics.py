"""The diagnostic framework: stable codes, severities, spanned messages.

A :class:`Diagnostic` is one finding of a static-analysis pass: a stable
``code`` (``QRY007``, ``CRT001``, ...), a :class:`Severity`, a
human-readable message and -- when the analyzed object was parsed from
text -- the 1-based source :class:`~repro.logic.ast.Span` the finding
points at.  Passes collect diagnostics into a :class:`Report`, which
renders compiler-style lines (``source:line:col: CODE severity:
message``) and decides pass/fail (:meth:`Report.ok`), which is what
``python -m repro.analysis`` exits on: an error fails, a hint informs.

Every shipped code is registered in :data:`CODES` via
:func:`register_code`, carrying its default severity and a one-line
title; :func:`diagnostic` builds a :class:`Diagnostic` from a registered
code so passes cannot emit unregistered or misspelled codes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterable, Iterator

from repro.logic.ast import Span


class Severity(IntEnum):
    """How bad a finding is: a hint informs, an error fails a report."""

    HINT = 10
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                + ", ".join(s.name.lower() for s in cls)
            ) from None


@dataclass(frozen=True)
class CodeInfo:
    """One registered diagnostic code: its default severity and title."""

    code: str
    severity: Severity
    title: str


#: Every registered diagnostic code, keyed by the code string.
CODES: dict[str, CodeInfo] = {}


def register_code(code: str, severity: Severity, title: str) -> CodeInfo:
    """Register a diagnostic code (``AAA000`` shape) with its default
    severity and one-line title.  Re-registering an existing code raises:
    codes are stable identifiers users grep changelogs for."""
    if len(code) != 6 or not code[:3].isalpha() or not code[:3].isupper() or not code[3:].isdigit():
        raise ValueError(
            f"diagnostic code must be three uppercase letters followed by "
            f"three digits, got {code!r}"
        )
    if code in CODES:
        raise ValueError(f"diagnostic code {code!r} is already registered")
    info = CodeInfo(code, Severity(severity), title)
    CODES[code] = info
    return info


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a registered code, a message, a severity and -- for
    parsed sources -- the :class:`~repro.logic.ast.Span` and a ``source``
    label (file name, bundle name, ...) to anchor it."""

    code: str
    message: str
    severity: Severity
    span: Span | None = None
    source: str | None = None

    def __str__(self) -> str:
        prefix = ""
        if self.source is not None and self.span is not None:
            prefix = f"{self.source}:{self.span.line}:{self.span.column}: "
        elif self.source is not None:
            prefix = f"{self.source}: "
        elif self.span is not None:
            prefix = f"{self.span.line}:{self.span.column}: "
        return f"{prefix}{self.code} {self.severity}: {self.message}"


def diagnostic(
    code: str,
    message: str,
    *,
    span: Span | None = None,
    source: str | None = None,
    severity: Severity | None = None,
) -> Diagnostic:
    """A :class:`Diagnostic` for a registered ``code``; the severity
    defaults to the code's registered one."""
    info = CODES.get(code)
    if info is None:
        raise ValueError(f"unregistered diagnostic code {code!r}")
    return Diagnostic(
        code, message, info.severity if severity is None else Severity(severity),
        span, source,
    )


class Report:
    """An ordered collection of diagnostics with severity roll-ups."""

    __slots__ = ("_diagnostics",)

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self._diagnostics: list[Diagnostic] = list(diagnostics)

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(self._diagnostics)

    def add(self, diag: Diagnostic) -> None:
        if not isinstance(diag, Diagnostic):
            raise TypeError(f"{diag!r} is not a Diagnostic")
        self._diagnostics.append(diag)

    def extend(self, diagnostics: "Iterable[Diagnostic] | Report") -> "Report":
        for diag in diagnostics:
            self.add(diag)
        return self

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __bool__(self) -> bool:
        return bool(self._diagnostics)

    def __repr__(self) -> str:
        return f"Report({self.summary()})"

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self._diagnostics if d.code == code)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self._diagnostics if d.severity == Severity.ERROR)

    @property
    def hints(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self._diagnostics if d.severity == Severity.HINT)

    def ok(self) -> bool:
        """True iff the report holds no error (a hint informs, never fails)."""
        return not self.errors

    def sorted_diagnostics(self) -> tuple[Diagnostic, ...]:
        """The diagnostics sorted by ``(source, line, column, code)`` --
        the deterministic order :meth:`render` and :meth:`to_json` emit,
        stable across pass-registration and dict-iteration order (ties
        keep emission order: Python's sort is stable)."""
        return tuple(sorted(self._diagnostics, key=_sort_key))

    def render(self) -> str:
        """One compiler-style line per diagnostic, sorted by
        ``(source, line, column, code)`` (see
        :meth:`sorted_diagnostics`)."""
        return "\n".join(str(d) for d in self.sorted_diagnostics())

    def to_dict(self) -> dict[str, Any]:
        """The report as JSON-ready data: a severity ``summary`` plus one
        entry per diagnostic, in :meth:`sorted_diagnostics` order."""
        return {
            "summary": {
                "errors": len(self.errors),
                "hints": len(self.hints),
                "total": len(self),
            },
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": str(d.severity),
                    "message": d.message,
                    "source": d.source,
                    "span": None
                    if d.span is None
                    else {
                        "line": d.span.line,
                        "column": d.span.column,
                        "end_line": d.span.end_line,
                        "end_column": d.span.end_column,
                    },
                }
                for d in self.sorted_diagnostics()
            ],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """:meth:`to_dict` serialized -- what ``python -m repro.analysis
        --format json`` prints and CI uploads as an artifact."""
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """``"2 errors, 3 hints"`` (zero buckets omitted)."""
        counts = [
            (len(self.errors), "error"),
            (len(self.hints), "hint"),
        ]
        parts = [f"{n} {word}{'s' if n != 1 else ''}" for n, word in counts if n]
        return ", ".join(parts) if parts else "no diagnostics"


def _sort_key(d: Diagnostic) -> tuple[str, int, int, str]:
    return (
        d.source or "",
        d.span.line if d.span is not None else 0,
        d.span.column if d.span is not None else 0,
        d.code,
    )


# -- the shipped codes ----------------------------------------------------

# Section 4's verdict (repro.analysis.queries)
register_code("QRY007", Severity.HINT, "variable can never become bound")
register_code("ACC005", Severity.HINT, "missing access rule would control the query")

# Cost model (repro.analysis.cost) -- CST001/CST002 are errors: either
# means the optimizer and an independent re-derivation disagree.
register_code("CST001", Severity.ERROR, "cost-based selection kept a costlier plan")
register_code("CST002", Severity.ERROR, "plan cost estimate disagrees with re-derivation")
register_code("CST003", Severity.HINT, "cost-based selection chose a view-augmented plan")

# Incremental maintainability (analyze_prepared renders delta_blockers)
register_code("INC001", Severity.HINT, "plan cannot be refreshed incrementally")
register_code("INC002", Severity.HINT, "union disjunct blocks incremental refresh")

# Plan certification (repro.analysis.certify) -- all errors: a CRT
# finding means the planner and an independent re-derivation disagree.
register_code("CRT001", Severity.ERROR, "fetch step inputs not bound")
register_code("CRT002", Severity.ERROR, "probe step atom not fully bound")
register_code("CRT003", Severity.ERROR, "step rule not declared by the access schema")
register_code("CRT004", Severity.ERROR, "plan head terms not bound")
register_code("CRT005", Severity.ERROR, "plan references an unregistered view relation")
register_code("CRT006", Severity.ERROR, "plan cost accounting mismatch")
register_code("CRT007", Severity.ERROR, "plan steps do not witness the query body")

# Syntax (the CLI front end)
register_code("SYN001", Severity.ERROR, "syntax or validation error")
