import json
import os
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import pytest

import cyclocode
from cyclocode import cli
from cyclocode.cli import main, parse_grid
from cyclocode.cosets import DefiningSet
from cyclocode.counting import CodeParams
from cyclocode.defsets import build_T
from cyclocode.galois import Polynomial, field_make
from cyclocode.errors import ConsistencyError, ParameterError, ResourceLimitError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_size_t_worked_example(capsys):
    code, out, _ = run(capsys, "size-t", "--q", "3", "--m", "4", "--t", "1",
                       "--a", "2", "--b", "1", "--no-timestamp")
    assert code == 0
    assert "size_T: 47" in out
    for frag in ("1  0    32", "2  0    2", "0  1    12"):
        assert frag in out


def test_dim_json_and_verify(capsys):
    code, out, _ = run(capsys, "dim", "--q", "3", "--m", "4", "--t", "1",
                       "--a", "2", "--b", "1", "--format", "json",
                       "--no-timestamp", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    row = doc["rows"][0]
    assert row["dim"] == 34 and row["size_T"] == 47
    assert row["delta"] == 18 and row["is_bch"] is True
    assert row["dim_materialized"] == 34
    assert row["dim_generator_degree"] == 34


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reports_carry_a_utc_timestamp_unless_told_not_to(capsys, fmt):
    argv = ["coset", "--q", "3", "--m", "4", "--s", "29", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    _, plain, _ = run(capsys, *argv, "--no-timestamp")
    if fmt == "json":
        doc = json.loads(out)
        stamp = doc.pop("generated_at")
        assert doc == json.loads(plain)
    else:
        lines = out.splitlines()
        stamped = [line for line in lines if line.startswith("generated_at: ")]
        assert len(stamped) == 1
        stamp = stamped[0].removeprefix("generated_at: ")
        lines.remove(stamped[0])
        assert lines == plain.splitlines()
    assert datetime.fromisoformat(stamp).utcoffset() == timedelta(0)


def test_coset_listing(capsys):
    code, out, _ = run(capsys, "coset", "--q", "3", "--m", "4", "--s", "29",
                       "--no-timestamp")
    assert code == 0
    assert "leader: 7" in out and "size: 4" in out


def test_table2_preset_csv(capsys):
    code, out, _ = run(capsys, "table", "--preset", "table2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,b,delta,bound"
    assert len(lines) == 29
    assert lines[1] == "8,1,10,1953126"
    assert "2,1,156250,615" in lines
    # byte-identical on repeat
    code2, out2, _ = run(capsys, "table", "--preset", "table2", "--format", "csv")
    assert out2 == out


def test_bound_with_certificate(capsys):
    code, out, _ = run(capsys, "bound", "--q", "3", "--m", "4", "--t", "1",
                       "--a", "2", "--b", "1", "--certificate",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["stated_bound"] == 9
    assert row["claimed_bound"] == 9
    assert row["v"] == 7 and row["z"] == 9 and row["s_set"] == "1"
    assert row["verified"] is True and row["verification_mode"] == "full"


def test_json_big_ints_become_strings(capsys):
    code, out, _ = run(capsys, "bound", "--q", "5", "--m", "30", "--t", "25",
                       "--a", "4", "--b", "1", "--format", "json",
                       "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert isinstance(row["stated_bound"], str)
    assert int(row["stated_bound"]) == 3 * 4 * 5**2 + 5**26 - 2
    assert doc["stringified_int_fields"]


def test_audit_grid(capsys):
    code, out, _ = run(capsys, "audit", "--grid", "q=2;m=4;t=1,2;a=*;b<=a",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    rows = {(r["t"]): r for r in doc["rows"]}
    assert rows[1]["mismatch"] == 1 and rows[1]["verified_ok"] is True
    assert rows[1]["stated_sound"] is False
    assert rows[2]["mismatch"] == 0 and rows[2]["stated_sound"] is True


def test_audit_findings_do_not_fail(capsys):
    code, _, _ = run(capsys, "audit", "--grid", "q=2;m=4,5;t=*;a=*;b<=a")
    assert code == 0


def test_gen_poly(capsys):
    code, out, _ = run(capsys, "gen-poly", "--q", "2", "--m", "4",
                       "--delta", "8", "--format", "json", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 14 and doc["dim"] == 1
    assert all(r["coefficient"] == 1 for r in doc["rows"])


def test_verify_small(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "100", "--no-timestamp")
    assert code == 0, err
    assert "failures: 0" in out
    assert "defining-set: pattern vs definition" in out
    golden = Path(__file__).parent / "golden" / "verify_max_n_100.txt"
    assert out.encode() == golden.read_bytes()


def test_verify_reports_a_shared_fault_at_every_point_of_its_code(monkeypatch, capsys):
    # brute_T drops 1 from the T of (5,1,0,2,2), the code of the points
    # a = 2, 3, 4: verify checks that code once, and each of its points
    # still gets one failure line per failed check, naming its own tuple
    original = cli.oracle.brute_T

    def faulty(params):
        T = original(params)
        if params.normalized() == CodeParams(5, 1, 0, 2, 2):
            T = DefiningSet.from_members(5, 1, [s for s in T if s != 1])
        return T

    monkeypatch.setattr(cli.oracle, "brute_T", faulty)
    code, out, err = run(capsys, "verify", "--max-n", "16", "--no-timestamp")
    assert code == 4 and "failures: 9" in out
    assert err.splitlines() == [
        line
        for a in (2, 3, 4)
        for line in (
            f"defining-set: pattern vs definition: (5, 1, 0, {a}, 2): "
            "pattern build differs from definitional build",
            f"set size: closed form vs enumeration: (5, 1, 0, {a}, 2): closed 3 != enumerated 2",
            f"affine invariance probe: (5, 1, 0, {a}, 2): "
            "a generator row moved by x -> x + 1 left the code",
        )
    ]
    # a run shares nothing with the one before it
    monkeypatch.undo()
    code, out, err = run(capsys, "verify", "--max-n", "16", "--no-timestamp")
    assert (code, err) == (0, "") and "failures: 0" in out


def test_verify_reports_code_level_lines_before_per_point_lines(monkeypatch, capsys):
    # (4,2,1,a,1) is one code for a = 1, 2, 3 (t = m - 1).  A code-level
    # fault (the generator degree one off) and a per-point fault (the
    # prefix scan one off on that code's dual set) fail at each point, and
    # each point reports its code's line before its prefix line
    key = CodeParams(4, 2, 1, 1, 1)
    T, Tperp = build_T(key), cli.defsets.dual_set_pattern(key)
    dimension, scan = cli.oracle.brute_dimension, cli.oracle.brute_max_prefix
    monkeypatch.setattr(cli.oracle, "brute_dimension",
                        lambda field, D: dimension(field, D) + (D == T))
    monkeypatch.setattr(cli.oracle, "brute_max_prefix", lambda D: scan(D) + (D == Tperp))
    code, out, err = run(capsys, "verify", "--max-n", "16", "--no-timestamp")
    assert code == 4 and "failures: 6" in out
    assert err.splitlines() == [
        line
        for a in (1, 2, 3)
        for line in (
            f"dimension: closed form vs generator degree: (4, 2, 1, {a}, 1): "
            "closed 13 != degree-based 14",
            f"zero prefix: formula vs scan: (4, 2, 1, {a}, 1): formula 11 != scan 12",
        )
    ]


def test_verify_does_not_depend_on_the_seed(capsys):
    # no check draws anything: --seed only reaches the report's meta
    docs = []
    for seed in ("0", "7"):
        code, out, err = run(capsys, "verify", "--max-n", "16", "--seed", seed,
                             "--format", "json", "--no-timestamp")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["seed"] == int(seed)
        docs.append([doc[key] for key in ("rows", "points", "failures")])
    assert docs[0] == docs[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_value_past_the_int_str_limit_exits_3(capsys, fmt):
    # the stated bound of (2, 20000, 15000, 1, 1) has more than 4,300 digits,
    # which str() refuses by default; the report is refused on one line
    code, out, err = run(capsys, "bound", "--q", "2", "--m", "20000", "--t", "15000",
                         "--a", "1", "--b", "1", "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:") and len(err.strip().splitlines()) == 1
    assert f"{sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("argv,code", [
    (("gen-poly", "--q", "2", "--m", "20000", "--delta", "3"), 2),
    (("coset", "--q", "2", "--m", "20000", "--s", "-1"), 2),
])
def test_error_messages_name_q_to_the_m_without_printing_it(capsys, argv, code):
    # 2^20000 has more than 4,300 digits: the field and range messages
    # write it as q^m, so the error is reported on one line
    got, _, err = run(capsys, *argv)
    assert got == code and len(err.strip().splitlines()) == 1
    assert "2^20000" in err


def test_parameter_error_exit_code(capsys):
    code, _, err = run(capsys, "dim", "--q", "6", "--m", "3", "--t", "1",
                       "--a", "2", "--b", "1")
    assert code == 2
    assert "prime power" in err


def test_resource_error_exit_code(capsys):
    code, _, err = run(capsys, "gen-poly", "--q", "2", "--m", "50",
                       "--delta", "4")
    assert code in (2, 3)  # no built-in modulus that large -> parameter error
    code, _, err = run(capsys, "dim", "--q", "2", "--m", "31", "--t", "1",
                       "--a", "1", "--b", "1", "--verify")
    assert code == 3
    assert "resource" in err.lower() or "cap" in err.lower()


@pytest.mark.parametrize("argv", [["dim"], ["dim", "--verify"], ["size-t"]])
def test_counting_past_the_pattern_table_cap_exits_3(monkeypatch, capsys, argv):
    # P = 33,343,334 table entries at (2, 20000, 1): refused before any is built
    monkeypatch.setattr(cli.counting, "_pattern_words", lambda *args: pytest.fail("built a table"))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--q", "2", "--m", "20000", "--t", "1",
                         "--a", "1", "--b", "1")
    assert (code, out) == (3, "")
    assert err == ("resource limit: the counting table of (m, t) = (20000, 1) has "
                   "33343334 entries, past the pattern table cap of 65536\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("m", [10**9, 10**20])
@pytest.mark.parametrize("command", ["dim", "size-t"])
def test_counting_at_a_huge_m_exits_3_at_once(capsys, command, m):
    # the table's entry count is read in closed form, not summed row by row
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--q", "2", "--m", str(m), "--t", "1",
                         "--a", "1", "--b", "1")
    assert (code, out) == (3, "")
    assert err.startswith(f"resource limit: the counting table of (m, t) = ({m}, 1) has ")
    assert err.endswith(f" entries, past the pattern table cap of {cli.counting.PATTERN_TABLE_CAP}\n")
    assert len(err.splitlines()) == 1
    assert time.perf_counter() - start < 1


def test_coset_past_the_int_str_limit_exits_3_before_forming_q_to_the_m(capsys):
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    code, out, err = run(capsys, "coset", "--q", "2", "--m", str(10**20), "--s", "3")
    assert (code, out) == (3, "")
    assert err == (f"resource limit: the elements modulo 2^{10**20} - 1 can have more than"
                   f" {limit} digits (the interpreter's int-to-str limit)\n")
    # a negative s is still a parameter error, found without forming q^m
    code, out, err = run(capsys, "coset", "--q", "2", "--m", str(10**20), "--s", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("parameter error: value -1 out of range")
    assert time.perf_counter() - start < 1


def test_coset_refuses_exactly_where_q_to_the_m_outgrows_the_limit(capsys):
    # under a limit of 640 digits 2^2126 - 1 has 640 and 2^2127 - 1 has 641:
    # the largest element is printed at m = 2126 and refused at m = 2127
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        n = 2**2126 - 1
        code, out, _ = run(capsys, "coset", "--q", "2", "--m", "2126", "--s", str(n))
        assert code == 0 and str(n) in out
        code, out, err = run(capsys, "coset", "--q", "2", "--m", "2127", "--s", "0")
        assert (code, out) == (3, "") and "more than 640 digits" in err
    finally:
        sys.set_int_max_str_digits(limit)


def test_coset_past_the_report_cap_exits_3_at_once(capsys):
    # 2^14284 - 1 has 4,300 digits, inside the int-to-str limit, but a
    # report of 14,284 such elements is past the coset report cap
    start = time.perf_counter()
    code, out, err = run(capsys, "coset", "--q", "2", "--m", "14284", "--s", "3")
    assert (code, out) == (3, "")
    assert err == ("resource limit: the coset modulo 2^14284 - 1 can list 14284 elements of"
                   " as many digits as q^m - 1, past the coset report cap of 16777216 digits\n")
    assert time.perf_counter() - start < 1


def test_coset_refuses_exactly_past_the_report_cap(monkeypatch, capsys):
    # under a cap of 40 digits: 2^10 - 1 has 4 digits, 10 * 4 = 40 is kept,
    # and 11 * 4 = 44 is refused; a negative s is still a parameter error
    monkeypatch.setattr(cli, "COSET_REPORT_DIGITS", 40)
    code, out, _ = run(capsys, "coset", "--q", "2", "--m", "10", "--s", "1023")
    assert code == 0 and "1023" in out
    code, out, err = run(capsys, "coset", "--q", "2", "--m", "11", "--s", "3")
    assert (code, out) == (3, "") and "past the coset report cap of 40 digits" in err
    code, out, err = run(capsys, "coset", "--q", "2", "--m", "11", "--s", "-1")
    assert (code, out) == (2, "") and err.startswith("parameter error: value -1 out of range")


def test_verify_past_the_max_n_cap_exits_3_at_once(monkeypatch, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--max-n", str(10**23))
    assert (code, out) == (3, "")
    assert err == (f"resource limit: --max-n {10**23} is past the verify cap of 65536\n")
    assert time.perf_counter() - start < 1
    # under a cap of 16, --max-n 16 runs and 17 is refused before any
    # point is enumerated
    monkeypatch.setattr(cli, "VERIFY_MAX_N_CAP", 16)
    assert run(capsys, "verify", "--max-n", "16")[0] == 0
    monkeypatch.setattr(cli, "CodeParams", lambda *args: pytest.fail("enumerated a point"))
    code, out, err = run(capsys, "verify", "--max-n", "17")
    assert (code, out) == (3, "") and "past the verify cap of 16" in err


def test_help_states_the_coset_and_verify_caps(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    parsers = {p.prog.split()[-1]: p for p in _parsers(cli.build_parser())}
    coset = " ".join(parsers["coset"].format_help().split())
    verify = " ".join(parsers["verify"].format_help().split())
    assert f"coset report cap of {cli.COSET_REPORT_DIGITS} digits" in coset
    assert (f"verify cap of {cli.VERIFY_MAX_N_CAP}; q^m caps: dimension check "
            f"{cli.VERIFY_DIM_CAP}, affine probe {cli.VERIFY_PROBE_CAP}") in verify


def _parsers(parser):
    """The parser and every subcommand's parser."""
    return [parser, *parser._subparsers._group_actions[0].choices.values()]


@pytest.mark.parametrize("columns", ["44", "100", None])
def test_help_is_what_the_stock_formatters_render(monkeypatch, columns):
    # the help formatter reads the terminal width as argparse's own does,
    # only later; under any COLUMNS the text must be the stock formatter's
    import argparse

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    ours = _parsers(cli.build_parser())
    stock = _parsers(cli.build_parser())
    assert len(ours) == 9
    for parser in stock:
        parser.formatter_class = (argparse.RawDescriptionHelpFormatter if parser.epilog
                                  else argparse.HelpFormatter)
    for mine, theirs in zip(ours, stock):
        assert type(mine._get_formatter()) is cli._HelpFormatter
        assert mine.format_help() == theirs.format_help()
        assert mine.format_usage() == theirs.format_usage()
    if columns == "44":  # the width was read: usage wraps at COLUMNS - 2
        assert len(ours[1].format_usage().splitlines()[0]) <= 42


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "table", "--preset", "table2", "--format", "csv",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("t,b,delta,bound")


def test_unwritable_out_exits_2_without_traceback(tmp_path):
    src = str(Path(cyclocode.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclocode.cli", "dim", "--q", "2", "--m", "4", "--t", "2",
         "--a", "1", "--b", "1", "--out", str(tmp_path / "missing" / "x.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("parameter error: cannot write")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("max_n", ["-1", "0", "1"])
def test_verify_rejects_a_max_n_that_checks_nothing(capsys, max_n):
    code, out, err = run(capsys, "verify", "--max-n", max_n)
    assert code == 2 and out == ""
    assert err.startswith("parameter error:") and "--max-n" in err


def test_parse_grid():
    points = parse_grid("q=2..5;m=2;t=0;a=*;b<=a")
    assert all(p.m == 2 and p.t == 0 for p in points)
    assert {p.q for p in points} == {2, 3, 4, 5}
    for p in points:
        assert p.b <= p.a
    # q and m are mandatory
    with pytest.raises(ParameterError):
        parse_grid("q=2;t=0")
    with pytest.raises(ParameterError):
        parse_grid("q=*;m=2")
    with pytest.raises(ParameterError):
        parse_grid("q=2;m=2;z=1")
    with pytest.raises(ParameterError):
        parse_grid("q=2..y;m=2")
    with pytest.raises(ParameterError):
        parse_grid("q=2;m=2;qm<=a")  # a constraint names one variable a side
    # a single point
    assert parse_grid("q=3;m=4;t=1;a=2;b=1") == [CodeParams(3, 4, 1, 2, 1)]
    # non-prime-power q values are skipped
    assert {p.q for p in parse_grid("q=2..10;m=2")} == {2, 3, 4, 5, 7, 8, 9}
    # points come out in ascending order, whatever the order of the values
    points = parse_grid("q=3,2;m=3,2;t=1,0;a=*;b=1")
    assert points == sorted(points)
    assert len(points) == 2 * 2 * 1 + 2 * 2 * 2  # (m, t, a) per q = 2, 3
    # a repeated value adds no point
    assert parse_grid("q=3,2,3;m=3,2..3;t=1,0,1;a=*;b=1,1") == points
    # an empty range of q or of m gives no point
    assert parse_grid("q=3..2;m=2") == []
    assert parse_grid("q=2;m=5..4") == []


def test_json_round_trip(capsys):
    code, out, _ = run(capsys, "size-t", "--q", "3", "--m", "4", "--t", "1",
                       "--a", "2", "--b", "1", "--format", "json",
                       "--no-timestamp")
    doc = json.loads(out)
    assert doc["size_T"] == sum(r["class_size"] for r in doc["rows"]) + 1


def test_size_t_at_m_200(capsys):
    code, out, _ = run(capsys, "size-t", "--q", "2", "--m", "200", "--t", "0",
                       "--a", "1", "--b", "1", "--format", "json",
                       "--no-timestamp")
    assert code == 0
    doc = json.loads(out)  # integers past 2^53 are written as strings
    assert int(doc["size_T"]) == 1 + sum(int(r["class_size"]) for r in doc["rows"])


def test_bad_grid_value_exits_2_without_traceback():
    src = str(Path(cyclocode.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclocode.cli", "audit", "--grid", "q=x;m=2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parameter error:")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("q,m,s", [(-3, 2, 1), (1, 2, 0), (2, 0, 0), (2, -1, 0),
                                   (6, 2, 1)])
def test_coset_rejects_impossible_q_and_m(q, m, s):
    src = str(Path(cyclocode.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclocode.cli", "coset", "--q", str(q), "--m", str(m),
         "--s", str(s)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parameter error:")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_grid_over_the_point_cap_exits_3_without_traceback():
    # q = 2 with m = 2..1000 has 2 + 3 + ... + 1000 = 500,499 points
    src = str(Path(cyclocode.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclocode.cli", "audit", "--grid", "q=2;m=2..1000"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("resource limit:")
    assert str(cli.GRID_POINT_CAP) in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_grid_value_list_over_the_cap_is_a_resource_error():
    with pytest.raises(ResourceLimitError, match=str(cli.GRID_POINT_CAP)):
        parse_grid(f"q=2;m=2;t=0..{cli.GRID_POINT_CAP}")
    assert len(parse_grid(f"q=2;m=2;t=0..{cli.GRID_POINT_CAP - 1}")) == 2


def test_audit_reports_an_unchecked_certificate_as_a_finding(capsys):
    # (2, 42, 20, 1, 1) is case 8 with |S| = 1,048,574, over DEFAULT_S_CAP,
    # so S is parametric and its certificate is left unchecked.
    code, out, _ = run(capsys, "audit", "--grid", "q=2;m=42;t=20;a=1;b=1",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["findings"] == 1
    row = doc["rows"][0]
    assert row["mode"] == "unchecked" and row["verified_ok"] is False
    assert row["stated"] == 2_097_151
    assert row["certified"] is None and row["mismatch"] is None
    assert row["stated_sound"] is False


def test_bound_has_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--seed", "0", "--q", "3", "--m", "4", "--t", "1",
              "--a", "2", "--b", "1", "--certificate"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_grid_cap_counts_combinations_not_points():
    # 333 prime powers q <= 2000 and 2,000 values of m give 666,000
    # combinations, of which m <= b keeps only the 333 with m = 1.
    spec = "q=2..2000;m=1..2000;t=0;a=1;b=1;m<=b"
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="combinations"):
        parse_grid(spec)
    assert time.perf_counter() - start < 1.0
    src = str(Path(cyclocode.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclocode.cli", "audit", "--grid", spec],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource limit:")
    assert len(proc.stderr.strip().splitlines()) == 1
    # under the cap the same grid keeps one point per prime power q <= 50:
    # 15 primes and 4, 8, 9, 16, 25, 27, 32, 49
    assert len(parse_grid("q=2..50;m=1..100;t=0;a=1;b=1;m<=b")) == 23


def test_grid_drops_out_of_range_values_before_counting():
    big = cli.GRID_POINT_CAP - 1
    # t, a and b outside their ranges cost nothing against the cap
    assert len(parse_grid(f"q=2;m=2..3;t=-{big}..-1,0")) == 2
    assert len(parse_grid(f"q=3;m=2;t=0;a=1..{big};b=1")) == 2
    assert parse_grid(f"q=2;m=1..{big};t={big}") == []
    assert parse_grid(f"q=2..{big};m=1;a={big}") == []


def test_consistency_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise ConsistencyError("dimension must equal q^m - |T|")

    monkeypatch.setattr(cli, "cmd_dim", broken)
    code, _, err = run(capsys, "dim", "--q", "2", "--m", "4", "--t", "1",
                       "--a", "1", "--b", "1")
    assert code == 5
    assert err.startswith("consistency error:")


def _exits_on_one_consistency_line(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == 5
    assert err.startswith("consistency error:") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_axis_enumeration_mismatch_exits_5(monkeypatch, capsys):
    # one tuple short of the certificate's axis product: |S| disagrees
    product = cli.bounds.product
    monkeypatch.setattr(cli.bounds, "product", lambda *ranges: list(product(*ranges))[:-1])
    _exits_on_one_consistency_line(capsys, "bound", "--q", "3", "--m", "4", "--t", "1",
                                   "--a", "2", "--b", "1", "--certificate")


def test_unknown_case_exits_5(monkeypatch, capsys):
    # verify builds a certificate at every point with m >= 2
    monkeypatch.setattr(cli.bounds, "classify_case", lambda params: "case99")
    _exits_on_one_consistency_line(capsys, "verify", "--max-n", "4")


def test_generator_off_x_n_minus_1_exits_5(monkeypatch, capsys):
    # no command takes dual distances, so a stand-in for dim does; x^2 + 1
    # = (x + 1)^2 does not divide the square-free x^15 - 1 over GF(2)
    monkeypatch.setattr(cli.oracle, "_generator", lambda field, D: Polynomial((1, 0, 1)))
    cli.oracle._dual.cache_clear()  # a memoized distance would skip the generator

    def distance(args):
        params = cli._params_from_args(args)
        cli.oracle.dual_min_distance(field_make(params.q, params.m), build_T(params))
        return 0

    monkeypatch.setattr(cli, "cmd_dim", distance)
    _exits_on_one_consistency_line(capsys, "dim", "--q", "2", "--m", "4", "--t", "2",
                                   "--a", "1", "--b", "1")


def test_exit_codes_are_documented():
    epilog = cli.build_parser().epilog
    for code in "2345":
        assert f"  {code}  " in epilog
