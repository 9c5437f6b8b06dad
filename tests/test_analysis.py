"""repro.analysis: the diagnostic framework, the API surfaces and the
CLI."""

import json
import pathlib

import pytest

from repro import (
    AccessSchema,
    Atom,
    DatabaseSchema,
    Engine,
    Span,
    parse_query,
)
from repro.analysis import (
    CODES,
    Report,
    Severity,
    diagnostic,
    register_code,
    workload_report,
)
from repro.analysis.__main__ import main
from repro.core.plans import compile_plan
from repro.errors import CertificationError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SCHEMA_TEXT = "person(pid, name, city); friend(pid1, pid2); visits(pid, url)"
ACCESS_TEXT = "person(pid -> 1); friend(pid1 -> 32); visits(pid -> 8)"

SCHEMA = DatabaseSchema.parse(SCHEMA_TEXT)


def access(text=ACCESS_TEXT):
    return AccessSchema.parse(SCHEMA, text)


def cq(text):
    return parse_query(text, schema=SCHEMA)


# -- the framework --------------------------------------------------------


def test_severity_orders_and_parses():
    assert Severity.HINT < Severity.ERROR
    assert str(Severity.HINT) == "hint"
    assert Severity.parse(" Error ") is Severity.ERROR
    with pytest.raises(ValueError, match="unknown severity"):
        Severity.parse("fatal")


def test_register_code_rejects_bad_shapes_and_duplicates():
    for bad in ("QRY1", "qry001", "QRYXXX", "001QRY", "QRY0001"):
        with pytest.raises(ValueError, match="three uppercase letters"):
            register_code(bad, Severity.HINT, "nope")
    with pytest.raises(ValueError, match="already registered"):
        register_code("QRY007", Severity.HINT, "again")


def test_diagnostic_requires_registered_code():
    with pytest.raises(ValueError, match="unregistered"):
        diagnostic("ZZZ999", "no such code")


def test_diagnostic_rendering_variants():
    span = Span(3, 7, 3, 12)
    full = diagnostic("QRY007", "unbound", span=span, source="q.dl")
    assert str(full) == "q.dl:3:7: QRY007 hint: unbound"
    assert str(diagnostic("QRY007", "unbound", source="q.dl")) == (
        "q.dl: QRY007 hint: unbound"
    )
    assert str(diagnostic("QRY007", "unbound", span=span)) == (
        "3:7: QRY007 hint: unbound"
    )
    assert str(diagnostic("QRY007", "unbound")) == "QRY007 hint: unbound"
    # Severity override (the registry only sets the default).
    assert diagnostic("QRY007", "unbound", severity=Severity.ERROR).severity is (
        Severity.ERROR
    )


def test_report_rollups_and_floors():
    report = Report()
    assert not report and len(report) == 0
    assert report.summary() == "no diagnostics"
    assert report.ok() and not report.errors and not report.hints

    report.add(diagnostic("QRY007", "unbound"))
    assert report.ok() and report.hints  # a hint informs
    report.extend(
        [diagnostic("ACC005", "add a rule"), diagnostic("SYN001", "broken")]
    )
    assert len(report) == 3
    assert [d.code for d in report] == ["QRY007", "ACC005", "SYN001"]
    assert report.by_code("ACC005") == (report.diagnostics[1],)
    assert report.hints == report.diagnostics[:2]
    assert report.errors == (report.diagnostics[2],)
    assert not report.ok()  # an error fails
    assert report.summary() == "1 error, 2 hints"
    assert str(report.diagnostics[1]) in report.render()


def test_report_add_rejects_non_diagnostics():
    with pytest.raises(TypeError):
        Report().add("QRY007: not a Diagnostic")


# -- satellite: spans ride from the parser through the AST ----------------


def test_parsed_atoms_and_equalities_carry_spans():
    q = cq("Q(y) :- friend(p, y), person(y, n, 'NYC'), p = 7")
    spans = [atom.span for atom in q.body]
    assert all(isinstance(s, Span) for s in spans)
    assert spans[0].line == 1 and spans[0].column == 9
    assert spans[1].column > spans[0].column
    assert q.equalities[0].span is not None


def test_programmatic_atoms_have_no_span_and_spans_do_not_affect_eq():
    assert Atom("friend", ["?p", "?x"]).span is None
    parsed = cq("Q(y) :- friend(p, y), person(y, n, 'NYC')")
    assert parse_query(str(parsed), schema=SCHEMA) == parsed  # spans differ


# -- plans ----------------------------------------------------------------


def test_step_costs_sum_to_the_fanout_bound():
    plan = compile_plan(
        cq("Q(z) :- friend(p, y), friend(y, z), person(z, n, 'NYC')"),
        access(),
        ["p"],
    )
    costs = plan.step_costs()
    assert sum(c.accesses for c in costs) == plan.fanout_bound
    assert all(c.branches_in >= 1 for c in costs)


# -- the API surfaces -----------------------------------------------------


def engine():
    return Engine(SCHEMA, access())


def test_prepared_diagnostics():
    q = engine().query("Q(y) :- friend(p, y), person(y, n, 'NYC')")
    assert not q.diagnostics(["p"])  # controlled and maintainable: silent
    (finding,) = q.diagnostics([]).by_code("QRY007")  # nothing binds ?p
    assert "?p" in finding.message
    assert (finding.span.line, finding.span.column) == (1, 9)


def test_workload_is_warning_clean_with_exactly_the_known_hints():
    report = workload_report()
    assert report.ok()
    assert {d.code for d in report} == {"QRY007", "ACC005"}
    # The Q4/Q5 base-access uncontrollability traces and their
    # missing-rule proposals (both queries execute via views, hence
    # hints, not errors).
    assert len(report.hints) == len(report) == 4
    assert len(report.by_code("QRY007")) == 2
    assert len(report.by_code("ACC005")) == 2


def test_workload_certifies_clean():
    report = workload_report(certify=True)
    assert report.hints == report.diagnostics


# -- the CLI --------------------------------------------------------------


def test_cli_flags_the_bad_fixture(capsys):
    fixture = str(FIXTURES / "bad_queries.dl")
    exit_code = main([fixture, "--schema", SCHEMA_TEXT, "--access", ACCESS_TEXT,
                      "--params", "p"])
    out = capsys.readouterr().out
    assert exit_code == 1  # the SYN001 on the last line is an error
    # Every query line trips a kept code, at its file coordinates.
    for anchor in ("2:12: QRY007", "2:12: ACC005", "3:9: QRY007", "3:9: ACC005",
                   "4:26: QRY007", "4:26: ACC005", "5:21: SYN001"):
        assert f"bad_queries.dl:{anchor}" in out
    assert "1 error, 6 hints" in out
    # Without access rules a line is only parsed: the SYN001 alone.
    assert main([fixture, "--schema", SCHEMA_TEXT]) == 1
    out = capsys.readouterr().out
    assert "bad_queries.dl:5:21: SYN001" in out and out.endswith("1 error\n")


def test_cli_passes_the_clean_fixture(capsys):
    path = str(FIXTURES / "clean_queries.dl")
    assert main([path, "--schema", SCHEMA_TEXT]) == 0
    assert (
        main([path, "--schema", SCHEMA_TEXT, "--access", ACCESS_TEXT,
              "--params", "p"])
        == 0
    )
    assert capsys.readouterr().out.splitlines()[-1] == "no diagnostics"


def test_cli_workload_gate_is_clean(capsys):
    assert main(["--workload", "--certify"]) == 0
    assert capsys.readouterr().out.endswith("\n4 hints\n")


def test_cli_codes_table_lists_every_code(capsys):
    assert main(["--codes"]) == 0
    out = capsys.readouterr().out
    for code in CODES:
        assert code in out
    assert len(CODES) == 15  # QRY 1, ACC 1, CST 3, INC 2, CRT 7, SYN 1
    # No code warns: a finding informs (hint) or fails the run (error).
    assert {info.severity for info in CODES.values()} == {Severity.HINT, Severity.ERROR}


def test_cli_missing_file_is_a_syntax_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.dl")]) == 1
    assert "SYN001" in capsys.readouterr().out


def test_cli_argument_validation():
    with pytest.raises(SystemExit):
        main(["--access", ACCESS_TEXT])  # --access requires --schema
    with pytest.raises(SystemExit):
        main([])  # nothing to analyze


def test_cli_bad_schema_text_is_reported(capsys):
    assert main(["--workload", "--schema", "person(pid"]) == 1
    out = capsys.readouterr().out
    assert "--schema: SYN001" in out


def test_cli_parses_each_line_alone(monkeypatch, tmp_path, capsys):
    # Each line reaches the parser on its own, so a plain rule takes the
    # plain path on any line; its spans (and INC001's quoted "(at L:C)")
    # still come out in file coordinates.
    import repro.analysis.__main__ as cli
    import repro.logic.parser as parser

    texts, plain = [], []

    def spy_parse(text, schema=None):
        texts.append(text)
        return parse_query(text, schema)

    def spy_plain(text, schema):
        query = plain_rule(text, schema)
        plain.append(query is not None)
        return query

    plain_rule = parser._plain_rule
    monkeypatch.setattr(cli, "parse_query", spy_parse)
    monkeypatch.setattr(parser, "_plain_rule", spy_plain)
    f = tmp_path / "q.dl"
    f.write_text(
        "Q(y) :- friend(p, y) ; Q(y) :- person(p, y, c)\n"
        "# a comment\n"
        "Q(u) :- friend(p, y), visits(y, u)\n"
        "Q(y) :- friend(p, y), person(y, n, 'NYC')\n"
    )
    main([str(f), "--schema", SCHEMA_TEXT, "--params", "p", "--access",
          "person(pid -> 1); friend(pid1 -> pid2, 32); visits(pid -> 8)"])
    out = capsys.readouterr().out
    assert len(texts) == 3 and not any("\n" in text for text in texts)
    assert plain == [False, True, True]  # a union is the token parser's
    assert f"{f}:1:9: INC002" in out
    for line in (3, 4):
        assert f"{f}:{line}:9: INC001" in out
        assert f"(at {line}:9)" in out


# -- the CLI reports what the engine reports ------------------------------

EMBEDDED_ACCESS = "person(pid -> 1); friend(pid1 -> 32); visits(pid -> url, 8)"

ONE_DRIVER_CASES = [
    *(
        (line, ACCESS_TEXT)
        for line in (FIXTURES / "clean_queries.dl").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ),
    # An embedded-rule fetch: INC001 (the linter once missed it).
    ("Q(u) :- friend(p, y), visits(y, u)", EMBEDDED_ACCESS),
    # Uncontrolled: the QRY007 trace and the ACC005 missing rule.
    ("Q(f) :- friend(f, p)", ACCESS_TEXT),
]


@pytest.mark.parametrize("text, access_text", ONE_DRIVER_CASES)
def test_cli_reports_what_engine_analyze_reports(text, access_text, tmp_path, capsys):
    f = tmp_path / "one.dl"
    f.write_text(text + "\n")
    main([str(f), "--schema", SCHEMA_TEXT, "--access", access_text,
          "--params", "p", "--format", "json"])
    cli = json.loads(capsys.readouterr().out)["diagnostics"]
    api = Engine(SCHEMA, access_text).analyze([(text, ("p",))])
    api = api.to_dict()["diagnostics"]

    def findings(entries):  # the source label is the one thing that differs
        return sorted(
            (d["code"], d["message"], json.dumps(d["span"])) for d in entries
        )

    assert findings(cli) == findings(api)


def test_cli_union_the_engine_cannot_prepare_is_a_syntax_error(tmp_path, capsys):
    f = tmp_path / "u.dl"
    f.write_text("Q(y) :- friend(p, y); Q(z) :- visits(p, z)\n")
    assert main([str(f), "--schema", SCHEMA_TEXT, "--access", ACCESS_TEXT,
                 "--params", "p"]) == 1
    out = capsys.readouterr().out
    assert f"{f}:1:1: SYN001 error: union disjuncts disagree" in out


def test_cli_certification_failure_reports_the_certifiers_findings(
    monkeypatch, tmp_path, capsys
):
    import repro.analysis.certify as certify

    def forged(plan, access, views=(), *, source=None):
        finding = diagnostic("CRT001", f"forged finding on {plan.query}")
        raise CertificationError("forged", Report([finding]))

    monkeypatch.setattr(certify, "check_plan", forged)
    f = tmp_path / "q.dl"
    f.write_text("Q(y) :- friend(p, y)\n")
    on_file = [str(f), "--schema", SCHEMA_TEXT, "--access", ACCESS_TEXT,
               "--params", "p", "--certify"]
    for argv in (on_file, ["--workload", "--certify"]):
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "CRT001 error: forged finding" in out
        assert "SYN001" not in out
