import argparse
import json

import numpy as np
import pytest

from liebend import serialize
from liebend.cli import main
from liebend.config import DEFAULT
from liebend.report import (PRESETS, cmd_bend, cmd_check, cmd_reproduce_sec53,
                            cmd_reproduce_sec6, compare_to_golden, load_golden)

from conftest import bend_subprocess, matrix_from_json

SEC53_AH = [["2", "-2", "0", "0", "0"], ["4", "2", "0", "-2", "-4"]]


@pytest.fixture(autouse=True)
def written(monkeypatch):
    """Every document this module's reports and CLI calls write goes through
    serialize.dumps, and each must read as its oracle json.dumps(doc,
    indent=2, sort_keys=True).  The fixture's value lists the documents."""
    docs = []
    dumps = serialize.dumps

    def checked(doc):
        text = dumps(doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True)
        docs.append(doc)
        return text

    monkeypatch.setattr(serialize, "dumps", checked)
    return docs


def test_sec53_matches_golden():
    report = cmd_reproduce_sec53(DEFAULT)
    ok, mismatches = compare_to_golden(report, load_golden("golden_sec53.json"))
    assert ok, mismatches


def test_sec53_scans_each_row_once(monkeypatch):
    """A row's orbit scan also gives its properness verdict: the six rows
    make six in_weyl_orbit_of_subspace calls, none of them through
    sl2_action_proper."""
    from liebend import properness, report
    calls = []
    real = properness.in_weyl_orbit_of_subspace

    def counting(torus, v, ah):
        calls.append(v)
        return real(torus, v, ah)

    monkeypatch.setattr(properness, "in_weyl_orbit_of_subspace", counting)
    monkeypatch.setattr(report, "in_weyl_orbit_of_subspace", counting)
    cmd_reproduce_sec53(DEFAULT)
    assert len(calls) == 6


def test_sec6_sample_matches_golden():
    golden = load_golden("golden_sec6.json")
    for p, q in [(2, 1), (2, 2), (3, 2), (6, 6)]:
        report = cmd_reproduce_sec6(p, q, DEFAULT)
        present = {c.check_id for c in report.checks}
        ok, mismatches = compare_to_golden(
            report, {k: v for k, v in golden.items() if k in present})
        assert ok, mismatches


def test_golden_mismatch_detected():
    report = cmd_reproduce_sec53(DEFAULT)
    golden = dict(load_golden("golden_sec53.json"))
    golden["sec53/row[5]"] = dict(golden["sec53/row[5]"], proper=True)
    ok, mismatches = compare_to_golden(report, golden)
    assert not ok and mismatches[0]["check"] == "sec53/row[5]"


def test_cli_prints_golden_mismatches(monkeypatch, capsys, written):
    import liebend.cli
    golden = dict(load_golden("golden_sec53.json"))
    golden["sec53/row[5]"] = dict(golden["sec53/row[5]"], proper=True)
    monkeypatch.setattr(liebend.cli, "load_golden", lambda name: golden)
    assert main(["reproduce", "sec53"]) == 1
    _, mismatches = compare_to_golden(cmd_reproduce_sec53(DEFAULT), golden)
    assert capsys.readouterr().err == (
        "golden mismatches:\n" + json.dumps(mismatches, indent=2, sort_keys=True) + "\n")
    assert written[-1] == mismatches


@pytest.mark.parametrize("argv, command, dropped", [
    (["reproduce", "sec53"], "cmd_reproduce_sec53", "sec53/row[5]"),
    (["reproduce", "sec6", "--p", "3", "--q", "2"], "cmd_reproduce_sec6",
     "sec6/su(3,2)/existence"),
], ids=["sec53", "sec6"])
def test_cli_golden_verdict_sees_a_dropped_row(monkeypatch, capsys, argv, command, dropped):
    """The CLI compares a report with every golden row of its command, so a
    row the report no longer produces fails the command and is named."""
    import liebend.cli
    real = getattr(liebend.cli, command)

    def dropping(*args, **kwargs):
        report = real(*args, **kwargs)
        report.checks = [c for c in report.checks if c.check_id != dropped]
        return report

    monkeypatch.setattr(liebend.cli, command, dropping)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("golden mismatches:\n")
    assert json.loads(err.split("\n", 1)[1]) == [{"check": dropped, "error": "missing"}]


def test_golden_file_is_read_once(monkeypatch):
    """load_golden parses each file once per process and hands out the same
    mapping, whose top level refuses writes."""
    from liebend import report as report_mod
    golden = load_golden("golden_sec6.json")

    class NoFiles:
        def files(self, package):
            raise AssertionError("the golden file was opened again")

    monkeypatch.setattr(report_mod, "resources", NoFiles())
    assert load_golden("golden_sec6.json") is golden
    with pytest.raises(TypeError):
        golden["sec6/extra"] = {}


def test_report_determinism():
    r1 = cmd_reproduce_sec53(DEFAULT)
    r2 = cmd_reproduce_sec53(DEFAULT)
    assert r1.to_json() == r2.to_json()
    assert r1.to_text() == r2.to_text()
    b1 = cmd_bend("su21-rho1-g2", DEFAULT)
    b2 = cmd_bend("su21-rho1-g2", DEFAULT)
    assert b1.to_json() == b2.to_json()


def test_timings_excluded_from_canonical_bytes():
    report = cmd_reproduce_sec53(DEFAULT)
    assert "runtime_ms" not in report.to_json()
    assert "runtime_ms" in report.to_json(include_timings=True)


def test_bend_timings_split_float_and_verify_stages(tmp_path, capsys):
    """--timings splits bend/residuals into the float check and the mp
    verification; without it the report carries no timing at all."""
    assert main(["bend", "--preset", "su21-rho1-g2", "--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert main(["bend", "--preset", "su21-rho1-g2"]) == 0
    plain = capsys.readouterr().out
    resid = next(c for c in timed["checks"] if c["check"] == "bend/residuals")
    assert set(resid["stage_ms"]) == {"float", "verify"}
    assert resid["runtime_ms"] == pytest.approx(sum(resid["stage_ms"].values()))
    assert "stage_ms" not in plain and "runtime_ms" not in plain
    for check in timed["checks"]:
        check.pop("runtime_ms")
        check.pop("stage_ms", None)
    assert json.dumps(timed, indent=2, sort_keys=True) + "\n" == plain
    assert plain == cmd_bend("su21-rho1-g2", DEFAULT).to_json()

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(dict(PRESETS["su21-rho1-g2"], verify_dps=0)))
    assert main(["bend", "--plan", str(plan), "--timings"]) == 0
    resid = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                 if c["check"] == "bend/residuals")
    assert set(resid["stage_ms"]) == {"float"}



def test_text_timings(capsys):
    """--text --timings adds a runtime_ms line to every check, and a stage_ms
    line where the check has stages; plain --text carries no timing."""
    assert main(["reproduce", "sec53", "--text"]) == 0
    plain = capsys.readouterr().out
    assert main(["reproduce", "sec53", "--text", "--timings"]) == 0
    timed = capsys.readouterr().out
    assert "runtime_ms" not in plain and "stage_ms" not in plain
    timing_lines = [ln for ln in timed.splitlines() if ln.lstrip().startswith("runtime_ms: ")]
    assert len(timing_lines) == 6 and "stage_ms" not in timed
    assert "\n".join(ln for ln in timed.splitlines() if ln not in timing_lines) + "\n" == plain
    assert plain == cmd_reproduce_sec53(DEFAULT).to_text()

    assert main(["bend", "--preset", "su21-rho1-g2", "--text", "--timings"]) == 0
    lines = capsys.readouterr().out.splitlines()
    stages = [ln for ln in lines if ln.lstrip().startswith("stage_ms: ")]
    assert len(stages) == 1
    assert set(json.loads(stages[0].split("stage_ms: ", 1)[1])) == {"float", "verify"}
    resid = next(k for k, ln in enumerate(lines) if ln.startswith("bend/residuals"))
    assert lines[resid + 1].lstrip().startswith("runtime_ms: ")
    assert lines[resid + 2] == stages[0]

def test_bend_preset_reports():
    report = cmd_bend("su21-rho1-g2", DEFAULT)
    by_id = {c.check_id: c.verdict for c in report.checks}
    assert by_id["bend/certificate"]["verdict"] == "PASS"
    assert by_id["bend/certificate"]["achieved_dim"] == 4
    assert by_id["bend/residuals"]["bent_residual"] <= 1e-8
    assert by_id["bend/residuals"]["verified"]["bent_residual"] < 1e-20
    assert by_id["bend/inequalities"]["ok"] is True

    report5 = cmd_bend("sl5-even5-g4", DEFAULT)
    by_id5 = {c.check_id: c.verdict for c in report5.checks}
    assert by_id5["bend/certificate"]["verdict"] == "PASS"
    assert by_id5["bend/certificate"]["achieved_dim"] == 24
    assert by_id5["bend/residuals"]["verified"]["bent_residual"] < 1e-15


def test_bend_generators_serialized():
    report = cmd_bend("su21-rho1-g2", DEFAULT)
    gens = next(c for c in report.checks if c.check_id == "bend/generators")
    mats = gens.verdict["matrices"]
    assert len(mats) == 2
    m = matrix_from_json(mats[0]["a"])
    assert m.shape == (3, 3) and np.iscomplexobj(m)


def test_cmd_check_su_examples(su32_torus):
    report = cmd_check({"family": "su", "p": 3, "q": 2}, [["0", "1"]], DEFAULT)
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["check/benoist"].verdict is True
    assert by_id["check/benoist"].witness is not None
    assert by_id["check/calabi-markus"].verdict is False

    full = cmd_check({"family": "su", "p": 3, "q": 2}, [["1", "0"], ["0", "1"]], DEFAULT)
    by_id = {c.check_id: c for c in full.checks}
    assert by_id["check/benoist"].verdict is False
    assert by_id["check/calabi-markus"].verdict is True


def test_check_report_names_its_algebra(tmp_path):
    """su(3,2) and su(4,2) with the same one-row a_h used to write
    byte-identical reports; each now echoes its family, p and q."""
    ah = tmp_path / "ah.json"
    ah.write_text(json.dumps([[1, 0]]))
    written = {}
    for p in (3, 4):
        out = tmp_path / f"su{p}2.json"
        assert main(["check", "--family", "su", "--p", str(p), "--q", "2", "--ah", str(ah),
                     "--out", str(out)]) == 0
        written[p] = out.read_bytes()
        assert json.loads(written[p])["config"]["algebra"] == {"family": "su", "p": p, "q": 2}
    assert written[3] != written[4]


def test_cmd_check_sl5_no_even_witness():
    report = cmd_check({"family": "sl", "n": 5}, SEC53_AH, DEFAULT)
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["check/benoist"].verdict is True
    ew = by_id["check/even-witness"].verdict
    assert ew["even_witness"] is None
    assert "no even witness among partitions of 5" in ew["note"]


def test_cmd_check_sl4_has_even_witness(tmp_path):
    # a_h = span{(1,-1,0,0)}: the even [4]-vector (3,1,-1,-3) avoids its orbit
    report = cmd_check({"family": "sl", "n": 4}, [["1", "-1", "0", "0"]], DEFAULT)
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["check/even-witness"].verdict["even_witness"] is not None


def test_serialize_roundtrips():
    """Matrices read back from their JSON text equal the float64 and
    complex128 originals exactly, bit for bit (signed zeros, subnormals and
    17-digit values included)."""
    x = 0.1234567890123456789
    m = np.array([[1.5, -2.0, x], [0.25, 3.0, -0.0], [5e-324, 1 / 3, 1e308]])
    c = np.array([[1 + 2j, 0, x * 1j], [0.5j, -1, complex(-0.0, 5e-324)]])
    for a in (m, c):
        back = matrix_from_json(json.loads(json.dumps(serialize.matrix_to_json(a))))
        assert back.dtype == a.dtype and back.tobytes() == a.tobytes()
    from fractions import Fraction
    vec = (Fraction(3, 2), Fraction(-4), Fraction(0))
    assert tuple(map(Fraction, serialize.rationals_to_json(vec))) == vec


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["reproduce", "sec53"]) == 0
    capsys.readouterr()
    assert main(["reproduce", "sec6", "--p", "3", "--q", "2"]) == 0
    capsys.readouterr()
    assert main(["bend", "--preset", "su21-rho1-g2"]) == 0
    capsys.readouterr()

    bad_plan = tmp_path / "plan.json"
    bad_plan.write_text(json.dumps(
        {"family": "sl", "n": 5, "triple": {"partition": [5]}, "genus": 3, "t": "auto"}))
    assert main(["bend", "--plan", str(bad_plan)]) == 2  # genus below |Lambda|
    capsys.readouterr()

    ah = tmp_path / "ah.json"
    ah.write_text(json.dumps([["0", "1"]]))
    assert main(["check", "--family", "su", "--p", "3", "--q", "2",
                 "--ah", str(ah)]) == 0
    capsys.readouterr()

    assert main(["reproduce", "sec6", "--p", "1", "--q", "2"]) == 2
    capsys.readouterr()


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    """The parser is built when liebend.cli is imported, outside any timed
    command: no main call builds a parser or a subparser."""
    from liebend import cli
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["reproduce", "sec53"]) == 0
    assert main(["reproduce", "sec53", "--text"]) == 0
    capsys.readouterr()
    assert built == []
    assert cli._PARSER.prog == "liebend"


def test_cli_check_sl_without_n_is_a_usage_error(tmp_path, capsys):
    ah = tmp_path / "ah.json"
    ah.write_text(json.dumps([["2", "-2", "0", "0", "0"]]))
    for _ in range(2):  # the shared parser reports the same error every time
        with pytest.raises(SystemExit) as exc:
            main(["check", "--family", "sl", "--ah", str(ah)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == ("usage: liebend [-h] {reproduce,bend,check} ...\n"
                                           "liebend: error: --family sl needs --n\n")


@pytest.mark.parametrize("argv, message", [
    (["--family", "sl", "--n", "5", "--p", "3", "--q", "9"],
     "--family sl does not take --p or --q"),
    (["--family", "sl", "--n", "5", "--q", "9"], "--family sl does not take --q"),
    (["--family", "su", "--n", "5", "--p", "3", "--q", "2"], "--family su does not take --n"),
], ids=["sl-p-q", "sl-q", "su-n"])
def test_cli_check_refuses_the_other_familys_flags(tmp_path, capsys, argv, message):
    """A family parameter that the chosen family does not take is a usage
    error naming the flag, not a value silently ignored."""
    ah = tmp_path / "ah.json"
    ah.write_text(json.dumps([["2", "-2", "0", "0", "0"]]))
    with pytest.raises(SystemExit) as exc:
        main(["check", *argv, "--ah", str(ah)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage: liebend [-h] {reproduce,bend,check} ...\n"
                            f"liebend: error: {message}\n")


_SU21_PLAN = {"family": "su", "p": 2, "q": 1, "triple": "rho1", "genus": 2, "t": "auto"}


@pytest.mark.parametrize("plan, message", [
    ([], "a plan must be a JSON object, got list"),
    (dict(_SU21_PLAN, verify_dps="40"), "verify_dps must be an integer >= 0, got '40'"),
    (dict(_SU21_PLAN, verify_dps=-3), "verify_dps must be an integer >= 0, got -3"),
    (dict(_SU21_PLAN, verify_dps=True), "verify_dps must be an integer >= 0, got True"),
    (dict(_SU21_PLAN, genus=2.9), "genus must be an integer >= 2, got 2.9"),
    (dict(_SU21_PLAN, genus="3"), "genus must be an integer >= 2, got '3'"),
    (dict(_SU21_PLAN, genus=True), "genus must be an integer >= 2, got True"),
    (dict(_SU21_PLAN, genus=1), "genus must be an integer >= 2, got 1"),
    (dict(_SU21_PLAN, t=0), 't must be "auto" or a finite non-zero number, got 0'),
    (dict(_SU21_PLAN, t=float("nan")), 't must be "auto" or a finite non-zero number, got nan'),
    (dict(_SU21_PLAN, t=float("inf")), 't must be "auto" or a finite non-zero number, got inf'),
    (dict(_SU21_PLAN, t="abc"), 't must be "auto" or a finite non-zero number, got \'abc\''),
    (dict(_SU21_PLAN, t=True), 't must be "auto" or a finite non-zero number, got True'),
    (dict(_SU21_PLAN, family="so"), "unknown family 'so'"),
    ({k: v for k, v in _SU21_PLAN.items() if k != "family"}, "unknown family None"),
    ({k: v for k, v in _SU21_PLAN.items() if k != "p"}, "p must be an integer, got None"),
    (dict(_SU21_PLAN, p=2.5), "p must be an integer, got 2.5"),
    (dict(_SU21_PLAN, q=True), "q must be an integer, got True"),
    (dict(_SU21_PLAN, family="sl", n=3.7), "n must be an integer, got 3.7"),
    ({k: v for k, v in _SU21_PLAN.items() if k != "triple"},
     'triple must be "rho1", "rho2" or {"partition": [...]}, got None'),
    (dict(_SU21_PLAN, triple="rho3"),
     'triple must be "rho1", "rho2" or {"partition": [...]}, got \'rho3\''),
    (dict(_SU21_PLAN, family="sl", n=5, triple={"partition": [2.5, 2.5]}),
     "partition part must be an integer, got 2.5"),
    ({k: v for k, v in _SU21_PLAN.items() if k != "genus"},
     "genus must be an integer >= 2, got None"),
    (dict(_SU21_PLAN, verify_dps=301),
     "verify_dps must be at most 300, got 301: past it the verified residuals underflow float64"),
])
def test_cli_rejects_malformed_plan(tmp_path, capsys, plan, message):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    assert main(["bend", "--plan", str(plan_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("key", ["t", "genus"])
def test_cli_rejects_a_plan_int_past_float64(tmp_path, capsys, key):
    """A 400-digit t or genus, which json reads as an int that float64
    cannot hold, is an input error naming the key, not an OverflowError."""
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(dict(_SU21_PLAN, **{key: 10 ** 400})))
    assert main(["bend", "--plan", str(plan_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and f" {key} " in captured.err


def test_cli_verify_dps_300_keeps_the_residuals_normal(tmp_path, capsys):
    """At verify_dps 300, the bound, the verified residuals are about
    1e-298, still normal float64 numbers; past it they would underflow
    (subnormal at 310, 0.0 at 20000), and 301 is an input error."""
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"family": "sl", "n": 3, "triple": {"partition": [3]},
                                     "genus": 2, "verify_dps": 300}))
    assert main(["bend", "--plan", str(plan_file)]) == 0
    checks = {c["check"]: c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["bend/certificate"]["verdict"] == "PASS"
    verified = checks["bend/residuals"]["verified"]
    assert verified["dps"] == 300
    for key in ("seed_residual", "pushed_residual", "bent_residual"):
        assert np.finfo(float).tiny <= verified[key] < 1e-290


@pytest.mark.parametrize("plan, key", [
    (dict(_SU21_PLAN, verfiy_dps=40, n=7), "n"),
    (dict(_SU21_PLAN, verfiy_dps=40), "verfiy_dps"),
    ({"family": "sl", "n": 3, "p": 2, "triple": {"partition": [3]}, "genus": 2}, "p"),
])
def test_cli_rejects_an_unknown_plan_key(tmp_path, capsys, plan, key):
    """A misspelled verify_dps would skip the mp verification, and a
    parameter of the other family would be ignored: each is an input error
    naming the key."""
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    assert main(["bend", "--plan", str(plan_file)]) == 2
    captured = capsys.readouterr()
    params = ["n"] if plan["family"] == "sl" else ["p", "q"]
    known = sorted(["family", *params, "genus", "t", "triple", "verify_dps"])
    assert captured.out == ""
    assert captured.err == f"input error: unknown plan key {key!r}; known: {known}\n"


def test_cli_rejects_an_unknown_triple_key(tmp_path):
    """A key beside "partition" in the triple spec is an input error naming
    the key, as a plan-level typo is, not a key echoed into the report."""
    plan = {"family": "sl", "n": 5, "triple": {"partition": [4, 1], "label": "x"}, "genus": 4}
    code, out, err = bend_subprocess(plan, tmp_path)
    assert code == 2 and out == ""
    assert err == "input error: unknown triple key 'label'; known: ['partition']\n"


@pytest.mark.parametrize("rows, message", [
    ({"rows": [[0, 1]]}, "the a_h basis must be a list of rows, got {'rows': [[0, 1]]}"),
    ([[0, 1], 1], "the a_h basis must be a list of rows, got [[0, 1], 1]"),
    ([["a", "1"]], 'a_h entries must be exact rationals such as 3 or "-1/2", got \'a\''),
    ([["1/0", "1"]], 'a_h entries must be exact rationals such as 3 or "-1/2", got \'1/0\''),
    ([[True, 1]], 'a_h entries must be exact rationals such as 3 or "-1/2", got True'),
    ([[float("inf"), 1]], 'a_h entries must be exact rationals such as 3 or "-1/2", got inf'),
])
def test_cli_rejects_malformed_ah(tmp_path, capsys, rows, message):
    ah = tmp_path / "ah.json"
    ah.write_text(json.dumps(rows))
    assert main(["check", "--family", "su", "--p", "3", "--q", "2", "--ah", str(ah)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_cli_lets_program_faults_escape(monkeypatch, capsys):
    """A numpy LinAlgError is a ValueError, but it is a fault of the program,
    not an input error: main does not turn it into exit 2."""
    import liebend.cli

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(liebend.cli, "cmd_reproduce_sec53", broken)
    with pytest.raises(np.linalg.LinAlgError):
        main(["reproduce", "sec53"])
    assert "input error" not in capsys.readouterr().err


def test_cli_witness_output(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["reproduce", "sec53", "--witness", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    by_id = {c["check"]: c for c in data["checks"]}
    assert "witness" in by_id["sec53/row[5]"]      # orbit member carries a Weyl witness
    assert "witness" not in by_id["sec53/row[4,1]"]


def test_cli_out_file_and_text(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["reproduce", "sec53", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["tool"]["name"] == "liebend"
    assert len(data["checks"]) == 6

    out_txt = tmp_path / "report.txt"
    assert main(["reproduce", "sec53", "--text", "--out", str(out_txt)]) == 0
    capsys.readouterr()
    assert "sec53/row[5]" in out_txt.read_text()


def test_cli_deterministic_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["bend", "--preset", "sl5-even5-g4", "--out", str(f1)]) == 0
    assert main(["bend", "--preset", "sl5-even5-g4", "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


CLI_REPORTS = {
    "sec53": ["reproduce", "sec53"],
    "sec6": ["reproduce", "sec6", "--p", "3", "--q", "2"],
    "bend-su21": ["bend", "--preset", "su21-rho1-g2"],
    "bend-sl5": ["bend", "--preset", "sl5-even5-g4"],
    "check-su32": ["check", "--family", "su", "--p", "3", "--q", "2", "--ah"],
    "check-sl5": ["check", "--family", "sl", "--n", "5", "--ah"],
}
AH_ROWS = {"su": [["0", "1"]], "sl": SEC53_AH}


@pytest.mark.parametrize("flags", [[], ["--timings"], ["--witness"], ["--timings", "--witness"]],
                         ids=["plain", "timings", "witness", "timings-witness"])
@pytest.mark.parametrize("name", CLI_REPORTS)
def test_cli_report_is_its_document_in_json(name, flags, tmp_path, capsys, written):
    argv = list(CLI_REPORTS[name])
    if argv[0] == "check":
        ah = tmp_path / "ah.json"
        ah.write_text(json.dumps(AH_ROWS[argv[2]]))
        argv.append(str(ah))
    assert main(argv + flags) == 0
    assert len(written) == 1
    assert capsys.readouterr().out == json.dumps(written[0], indent=2, sort_keys=True) + "\n"


def test_presets_cover_spec_names():
    assert set(PRESETS) == {"su21-rho1-g2", "sl5-even5-g4"}
