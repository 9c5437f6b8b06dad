"""repro.analysis: the diagnostic framework, every pass family (one
triggering and one clean case per code), the API surfaces and the CLI."""

import json
import pathlib

import pytest

from repro import (
    AccessSchema,
    Atom,
    DatabaseSchema,
    Engine,
    Span,
    UnionOfConjunctiveQueries,
    ViewDef,
    parse_query,
)
from repro.analysis import (
    ABSURD_BOUND,
    BLOWUP_THRESHOLD,
    CODES,
    Diagnostic,
    Report,
    Severity,
    analyze_access,
    analyze_plan,
    analyze_query,
    analyze_views,
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
    assert Severity.HINT < Severity.WARNING < Severity.ERROR
    assert str(Severity.WARNING) == "warning"
    assert Severity.parse(" Error ") is Severity.ERROR
    with pytest.raises(ValueError, match="unknown severity"):
        Severity.parse("fatal")


def test_register_code_rejects_bad_shapes_and_duplicates():
    for bad in ("QRY1", "qry001", "QRYXXX", "001QRY", "QRY0001"):
        with pytest.raises(ValueError, match="three uppercase letters"):
            register_code(bad, Severity.HINT, "nope")
    with pytest.raises(ValueError, match="already registered"):
        register_code("QRY001", Severity.HINT, "again")


def test_diagnostic_requires_registered_code():
    with pytest.raises(ValueError, match="unregistered"):
        diagnostic("ZZZ999", "no such code")


def test_diagnostic_rendering_variants():
    span = Span(3, 7, 3, 12)
    full = diagnostic("QRY004", "dup", span=span, source="q.dl")
    assert str(full) == "q.dl:3:7: QRY004 warning: dup"
    assert str(diagnostic("QRY004", "dup", source="q.dl")) == (
        "q.dl: QRY004 warning: dup"
    )
    assert str(diagnostic("QRY004", "dup", span=span)) == (
        "3:7: QRY004 warning: dup"
    )
    assert str(diagnostic("QRY004", "dup")) == "QRY004 warning: dup"
    # Severity override (the registry only sets the default).
    assert diagnostic("QRY004", "dup", severity=Severity.HINT).severity is (
        Severity.HINT
    )


def test_report_rollups_and_floors():
    report = Report()
    assert not report and len(report) == 0
    assert report.max_severity is None
    assert report.summary() == "no diagnostics"
    assert report.ok() and report.ok(Severity.HINT)

    report.add(diagnostic("QRY001", "once"))
    report.extend(
        [diagnostic("QRY004", "dup"), diagnostic("SYN001", "broken")]
    )
    assert len(report) == 3
    assert [d.code for d in report] == ["QRY001", "QRY004", "SYN001"]
    assert report.by_code("QRY004") == (report.diagnostics[1],)
    assert report.hints == (report.diagnostics[0],)
    assert report.warnings == (report.diagnostics[1],)
    assert report.errors == (report.diagnostics[2],)
    assert report.at_least(Severity.WARNING) == report.diagnostics[1:]
    assert report.max_severity is Severity.ERROR
    assert not report.ok()  # an error breaches every floor
    assert report.summary() == "1 error, 1 warning, 1 hint"
    assert str(report.diagnostics[1]) in report.render()


def test_report_add_rejects_non_diagnostics():
    with pytest.raises(TypeError):
        Report().add("QRY001: not a Diagnostic")


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


# -- QRY ------------------------------------------------------------------


def test_qry001_single_use_variable():
    report = analyze_query(
        cq("Q(y) :- friend(p, y), person(y, n, 'NYC')"), parameters=["p"]
    )
    (d,) = report.by_code("QRY001")
    assert "?n" in d.message and d.span is not None
    # Returned, parameter and joined variables never fire.
    clean = analyze_query(
        cq("Q(y, n) :- friend(p, y), person(y, n, 'NYC')"), parameters=["p"]
    )
    assert not clean.by_code("QRY001")


def test_qry002_cartesian_product():
    report = analyze_query(cq("Q(x, y) :- person(x, n, c), person(y, m, d)"))
    (d,) = report.by_code("QRY002")
    assert "2 disconnected join components" in d.message
    assert not analyze_query(
        cq("Q(u) :- friend(p, y), visits(y, u)")
    ).by_code("QRY002")
    # An equality connects components: x = y joins them.
    bridged = cq("Q(x, y) :- friend(x, a), friend(y, b), a = b")
    assert not analyze_query(bridged).by_code("QRY002")


def test_qry003_parameter_equated_away():
    report = analyze_query(
        cq("Q(y) :- friend(p, y), p = 7"), parameters=["p"]
    )
    (d,) = report.by_code("QRY003")
    assert "?p" in d.message and "7" in d.message
    # The same query without declaring p a parameter is fine.
    assert not analyze_query(cq("Q(y) :- friend(p, y), p = 7")).by_code(
        "QRY003"
    )


def test_qry004_duplicate_atom():
    report = analyze_query(
        cq("Q(y) :- friend(p, y), friend(p, y), person(y, n, 'NYC')")
    )
    (d,) = report.by_code("QRY004")
    assert "friend(?p, ?y)" in d.message
    assert not analyze_query(
        cq("Q(z) :- friend(p, y), friend(y, z)")
    ).by_code("QRY004")


def test_qry005_union_selectivity_needs_access():
    cheap = cq("Q(y) :- friend(p, y)")
    costly = cq("Q(z) :- friend(p, x), friend(x, y), friend(y, z)")
    union = UnionOfConjunctiveQueries([cheap, costly])
    report = analyze_query(union, access(), parameters=["p"])
    (d,) = report.by_code("QRY005")
    assert "disjunct 2" in d.message
    # Without the access schema the check is skipped entirely.
    assert not analyze_query(union, parameters=["p"]).by_code("QRY005")
    # Comparable branches stay quiet.
    balanced = UnionOfConjunctiveQueries(
        [cheap, cq("Q(u) :- visits(p, u)")]
    )
    assert not analyze_query(
        balanced, access(), parameters=["p"]
    ).by_code("QRY005")


def test_qry006_unsatisfiable():
    report = analyze_query(cq("Q(y) :- friend(p, y), p = 'NYC', p = 'SF'"))
    (d,) = report.by_code("QRY006")
    assert "unsatisfiable" in d.message
    assert not analyze_query(
        cq("Q(y) :- friend(p, y), p = 'NYC'")
    ).by_code("QRY006")


# -- ACC ------------------------------------------------------------------


def test_acc001_relation_without_rules():
    report = analyze_access(access("person(pid -> 1); friend(pid1 -> 32)"))
    (d,) = report.by_code("ACC001")
    assert "'visits'" in d.message
    assert not analyze_access(access()).by_code("ACC001")


def test_acc002_shadowed_rule():
    report = analyze_access(
        access("person(pid -> 1); friend(pid1 -> 32); "
               "friend(pid1 -> 64); visits(pid -> 8)")
    )
    (d,) = report.by_code("ACC002")
    assert "friend(pid1 -> 64)" in d.message  # the worse rule is flagged
    assert "friend(pid1 -> 32)" in d.message  # ... naming its shadow
    # Different inputs: neither shadows the other.
    assert not analyze_access(
        access("person(pid -> 1); person(name -> 40); "
               "friend(pid1 -> 32); visits(pid -> 8)")
    ).by_code("ACC002")


def test_acc003_absurd_bound():
    report = analyze_access(
        access(f"person(pid -> {ABSURD_BOUND}); friend(pid1 -> 32); "
               "visits(pid -> 8)")
    )
    (d,) = report.by_code("ACC003")
    assert str(ABSURD_BOUND) in d.message
    assert not analyze_access(access()).by_code("ACC003")


def test_acc004_duplicate_rule():
    report = analyze_access(
        access("person(pid -> 1); friend(pid1 -> 32); "
               "visits(pid -> 8); visits(pid -> 8)")
    )
    (d,) = report.by_code("ACC004")
    assert "visits(pid -> 8)" in d.message
    # Exact duplicates are ACC004's business, not ACC002's.
    assert not report.by_code("ACC002")
    assert not analyze_access(access()).by_code("ACC004")


def test_acc_clean_schema_is_clean():
    assert not analyze_access(access())


# -- PLN ------------------------------------------------------------------


def test_pln001_fanout_blowup_with_breakdown():
    wide = access("person(pid -> 1); friend(pid1 -> 1000); visits(pid -> 8)")
    plan = compile_plan(
        cq("Q(z) :- friend(p, y), friend(y, z), person(z, n, 'NYC')"),
        wide,
        ["p"],
    )
    assert plan.fanout_bound > BLOWUP_THRESHOLD
    (d,) = analyze_plan(plan).by_code("PLN001")
    assert "1 x 1000 (friend) x 1000 (friend)" in d.message
    # The workload-sized bound stays quiet.
    small = compile_plan(
        cq("Q(z) :- friend(p, y), friend(y, z), person(z, n, 'NYC')"),
        access(),
        ["p"],
    )
    assert not analyze_plan(small).by_code("PLN001")


def test_pln002_probe_after_embedded_fetch():
    embedded = access(
        "person(pid -> 1); friend(pid1 -> 32); visits(pid -> url, 8)"
    )
    # The embedded fetch binds ?u but does not verify the atom, so the
    # planner emits a probe on the same atom right after it.
    plan = compile_plan(
        cq("Q(u) :- friend(p, y), visits(y, u)"), embedded, ["p"]
    )
    (d,) = analyze_plan(plan).by_code("PLN002")
    assert "visits(pid -> url, 8)" in d.message
    assert "256 probe accesses" in d.message
    plain = compile_plan(
        cq("Q(u) :- friend(p, y), visits(y, u)"), access(), ["p"]
    )
    assert not analyze_plan(plain).by_code("PLN002")


def test_pln003_dominant_step():
    skewed = access(
        "person(pid -> 1); friend(pid1 -> 2); visits(pid -> 1000)"
    )
    plan = compile_plan(
        cq("Q(u) :- friend(p, y), visits(y, u)"), skewed, ["p"]
    )
    (d,) = analyze_plan(plan).by_code("PLN003")
    assert "99%" in d.message and "'visits'" in d.message
    balanced = compile_plan(
        cq("Q(u) :- friend(p, y), visits(y, u)"), access(), ["p"]
    )
    assert not analyze_plan(balanced).by_code("PLN003")


def test_step_costs_sum_to_the_fanout_bound():
    plan = compile_plan(
        cq("Q(z) :- friend(p, y), friend(y, z), person(z, n, 'NYC')"),
        access(),
        ["p"],
    )
    costs = plan.step_costs()
    assert sum(c.accesses for c in costs) == plan.fanout_bound
    assert all(c.branches_in >= 1 for c in costs)


# -- VIW ------------------------------------------------------------------


def test_viw001_view_matching_no_query():
    dead = ViewDef("V_dead", "V_dead(p, u) :- visits(p, u)")
    used = ViewDef("V_used", "V_used(p, y) :- friend(y, p)")
    queries = (cq("Q(y) :- friend(p, y)"),)
    report = analyze_views([dead, used], queries)
    (d,) = report.by_code("VIW001")
    assert "'V_dead'" in d.message
    # Without workload queries the pass cannot judge usefulness.
    assert not analyze_views([dead]).by_code("VIW001")


def test_viw002_equivalent_view_bodies():
    v1 = ViewDef("V1", "V1(p, y) :- friend(y, p)")
    v2 = ViewDef("V2", "V2(a, b) :- friend(b, a)")  # renamed copy
    report = analyze_views([v1, v2])
    (d,) = report.by_code("VIW002")
    assert "'V1'" in d.message and "'V2'" in d.message
    other = ViewDef("V3", "V3(p, u) :- visits(p, u)")
    assert not analyze_views([v1, other]).by_code("VIW002")


# -- the API surfaces -----------------------------------------------------


def engine():
    return Engine(SCHEMA, access())


def test_prepared_diagnostics():
    q = engine().query("Q(y) :- friend(p, y), person(y, n, 'NYC')")
    report = q.diagnostics(["p"])
    assert [d.code for d in report] == ["QRY001"]
    assert report.ok(Severity.WARNING)


def test_engine_analyze_advises_views_for_uncontrolled_queries():
    report = engine().analyze([("Q(f) :- friend(f, p)", ("p",))])
    assert report.by_code("VIW004")


def test_engine_analyze_flags_dead_views():
    eng = engine()
    eng.views.register("V_dead", "V_dead(p, u) :- visits(p, u)", "V_dead(p -> 8)")
    report = eng.analyze(["Q(y) :- friend(p, y)"])
    assert report.by_code("VIW001")


def test_workload_is_warning_clean_with_exactly_the_known_hints():
    report = workload_report()
    assert report.ok(Severity.WARNING)
    assert {d.code for d in report} == {"QRY001", "QRY007", "ACC005"}
    # 3 deliberate ?n placeholders, plus the Q4/Q5 base-access
    # uncontrollability traces and their missing-rule proposals (both
    # queries execute via views, hence hints, not warnings).
    assert len(report.hints) == 7
    assert len(report.by_code("QRY007")) == 2
    assert len(report.by_code("ACC005")) == 2


def test_workload_certifies_clean():
    assert workload_report(certify=True).ok(Severity.WARNING)


# -- the CLI --------------------------------------------------------------


def test_cli_flags_the_bad_fixture(capsys):
    exit_code = main(
        [str(FIXTURES / "bad_queries.dl"), "--schema", SCHEMA_TEXT]
    )
    out = capsys.readouterr().out
    assert exit_code == 1  # SYN001 is an error even without --strict
    for code in ("QRY002", "QRY004", "QRY006", "SYN001"):
        assert code in out
    # Spans are shifted to *file* coordinates.
    assert "bad_queries.dl:3:23: QRY004" in out
    assert "1 error, 3 warnings" in out


def test_cli_passes_the_clean_fixture_even_strict(capsys):
    path = str(FIXTURES / "clean_queries.dl")
    assert main([path, "--schema", SCHEMA_TEXT]) == 0
    assert (
        main([path, "--schema", SCHEMA_TEXT, "--access", ACCESS_TEXT,
              "--params", "p", "--strict"])
        == 0
    )
    out = capsys.readouterr().out
    assert "QRY001" in out  # hints print but stay below the strict floor


def test_cli_workload_gate_is_strict_clean(capsys):
    assert main(["--workload", "--strict", "--certify"]) == 0
    assert "7 hints" in capsys.readouterr().out


def test_cli_strict_fails_on_warnings(tmp_path, capsys):
    f = tmp_path / "warn.dl"
    f.write_text("Q(y) :- friend(p, y), friend(p, y)\n")
    assert main([str(f), "--schema", SCHEMA_TEXT]) == 0
    assert main([str(f), "--schema", SCHEMA_TEXT, "--strict"]) == 1
    capsys.readouterr()


def test_cli_advises_views_for_uncontrolled_file_queries(tmp_path, capsys):
    f = tmp_path / "uncontrolled.dl"
    f.write_text("Q(f) :- friend(f, p)\n")
    main([str(f), "--schema", SCHEMA_TEXT, "--access", ACCESS_TEXT,
          "--params", "p"])
    assert "VIW004" in capsys.readouterr().out


def test_cli_codes_table_lists_every_code(capsys):
    assert main(["--codes"]) == 0
    out = capsys.readouterr().out
    for code in CODES:
        assert code in out
    assert len(CODES) == 32  # QRY 7, ACC 5, PLN 3, VIW 4, CRT 7, CST 3, INC 2, SYN 1


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
    # Uncontrolled: the advisor's VIW004.
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


def test_cli_advise_anchors_one_proposal_at_its_own_line(tmp_path, capsys):
    f = tmp_path / "q3.dl"
    f.write_text("# header\n\nQ(f) :- friend(f, p)\n")
    main([str(f), "--schema", SCHEMA_TEXT, "--access", ACCESS_TEXT,
          "--params", "p", "--advise"])
    out = capsys.readouterr().out
    (proposal,) = [line for line in out.splitlines() if " VIW" in line]
    assert proposal.startswith(f"{f}:3:9: VIW004 hint:")


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
