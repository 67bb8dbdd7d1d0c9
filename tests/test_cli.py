import csv
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from hopfvar import charvar, ffcount, geom
from hopfvar.cli import MAX_TABLE_DIGITS, MAX_TABLE_ROWS, _parse_range, build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_rep_formula(capsys):
    code, out, _ = run_cli(["rep", "--rank", "2", "--n", "1"], capsys)
    assert code == 0
    assert "formula: q^4 + 4*q^3 - q^2 - 4*q" in out


def test_rep_both_matches(capsys):
    code, out, _ = run_cli(["rep", "--rank", "2", "--n", "1", "--method", "both"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines[-1] == "MATCH"
    formula = lines[0].split(": ", 1)[1].strip()
    strata = lines[1].split(":", 1)[1].strip()
    assert formula == strata
    code, out, _ = run_cli(["rep", "--rank", "3", "--n", "2", "--method", "both"], capsys)
    assert code == 0
    assert "MATCH" in out


def test_rep_latex(capsys):
    code, out, _ = run_cli(["rep", "--rank", "2", "--n", "1", "--latex"], capsys)
    assert code == 0
    assert "q^{4}+4q^{3}-q^{2}-4q" in out


@pytest.mark.parametrize("argv", [
    ["rep", "--rank", "2", "--n", "1"],
    ["char", "--rank", "3", "--n", "2", "--pieces"],
    ["count", "--rank", "2", "--n", "1", "--q", "5", "--assert"],
    ["table", "--rank", "2", "--n", "1..3", "--target", "rep"],
], ids=lambda argv: argv[0])
def test_rep_timing_goes_to_stderr(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert re.fullmatch(r"\[timing\] \d+\.\d\d ms\n", err), err
    assert "[timing]" not in out


def test_char_totals(capsys):
    code, out, _ = run_cli(["char", "--rank", "2", "--n", "1"], capsys)
    assert code == 0 and out.strip() == "q^2 + 1"
    code, out, _ = run_cli(["char", "--rank", "3", "--n", "1"], capsys)
    assert code == 0 and out.strip() == "q^4 + q^2 + 1"


def test_char_pieces(capsys):
    code, out, _ = run_cli(["char", "--rank", "2", "--n", "2", "--pieces"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "red: q^2 + 1" in lines
    assert "irr: q^2 - q + 1" in lines
    assert "total: 2*q^2 - q + 2" in lines
    code, out, _ = run_cli(["char", "--rank", "3", "--n", "3", "--pieces"], capsys)
    assert code == 0
    assert any(l.startswith("red_21: ") for l in out.splitlines())
    assert any(l.startswith("irr_distinct: ") for l in out.splitlines())


def test_char_pieces_computes_each_piece_once(capsys, monkeypatch):
    # the aggregates are sums of the leaves, not recomputations of them
    piece_epoly, calls = charvar.char_piece_epoly, []
    monkeypatch.setattr(charvar, "char_piece_epoly",
                        lambda *args: calls.append(args) or piece_epoly(*args))
    code, out, _ = run_cli(["char", "--rank", "3", "--n", "7", "--pieces"], capsys)
    assert code == 0
    assert calls == [(3, piece, 7) for piece in charvar.PIECES[3]]
    assert [l.split(":")[0] for l in out.splitlines()] == \
        [p.removesuffix("_total") for p in charvar.PIECES[3]]


def test_count_assert_match(capsys):
    code, out, _ = run_cli(
        ["count", "--rank", "2", "--n", "1", "--q", "5", "--assert"], capsys)
    assert code == 0
    assert "count: 1080" in out
    assert "MATCH" in out


def test_count_assert_second_point(capsys):
    code, out, _ = run_cli(
        ["count", "--rank", "2", "--n", "2", "--q", "5", "--assert", "--threads", "2"],
        capsys)
    assert code == 0
    assert "count: 4560" in out


def test_count_inadmissible_reports_no_assertion(capsys):
    code, out, _ = run_cli(["count", "--rank", "2", "--n", "2", "--q", "7"], capsys)
    assert code == 0
    assert "no equality asserted (4 does not divide 6)" in out


def test_count_without_assert_skips_formula(capsys, monkeypatch):
    def refuse(rank, n):
        raise AssertionError("formula built without --assert")

    monkeypatch.setattr(geom, "rep_variety_epoly_formula", refuse)
    code, out, _ = run_cli(["count", "--rank", "2", "--n", "2", "--q", "5"], capsys)
    assert code == 0
    assert out == "count: 4560\n"


def test_count_assert_requires_admissible_prime(capsys):
    code, out, err = run_cli(
        ["count", "--rank", "2", "--n", "2", "--q", "7", "--assert"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --assert requires 4 | q-1 (got q=7)\n"


def test_count_assert_rank3_when_3n_divides(capsys):
    # 3n | q-1 is admissible at rank 3 although 6n does not divide q-1
    code, out, _ = run_cli(
        ["count", "--rank", "3", "--n", "2", "--q", "7", "--assert"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "MATCH"


def test_count_refuses_huge_q_quickly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hopfvar.cli", "count", "--rank", "2", "--n", "1",
         "--q", "1000000000000000003"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=2)
    assert time.perf_counter() - started < 2.0
    assert proc.returncode == 2
    assert "ceiling" in proc.stderr


def test_count_rejects_bad_q(capsys):
    for q in ("4", "9", "2"):
        code, _, _ = run_cli(["count", "--rank", "2", "--n", "1", "--q", q], capsys)
        assert code == 2


def test_count_rank3_beyond_old_ceiling(capsys):
    # q^9 matrices at q = 61 exceed 10^10, but the sweep visits only q^2 classes
    code, out, _ = run_cli(
        ["count", "--rank", "3", "--n", "1", "--q", "61", "--assert"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "MATCH"


def test_count_huge_n_is_quick():
    # the sweep reduces n mod |GL_2(F_q)| before powering, so a 4000-digit n
    # costs about as much as n = 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hopfvar.cli", "count", "--rank", "2",
         "--n", "7" * 4000, "--q", "1009"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=10)
    assert time.perf_counter() - started < 10.0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("count: ")


def test_table_csv_round_trip(capsys):
    code, out, _ = run_cli(
        ["table", "--rank", "2", "--n", "1..3", "--target", "char",
         "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "degree", "coefficients", "eval_q2"]
    assert len(rows) == 4
    assert rows[1][2] == "1,0,1"
    for row in rows[1:]:
        coeffs = [int(c) for c in row[2].split(",")]
        value = 0
        for c in coeffs:
            value = value * 2 + c
        assert value == int(row[3])


def test_table_json_rep_equality(capsys):
    code, out, _ = run_cli(
        ["table", "--rank", "3", "--n", "1..2", "--target", "rep",
         "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    for row in rows:
        assert row["strata"] == row["formula"]
        assert row["coefficients"] == row["formula"]
        value = 0
        for c in row["coefficients"]:
            value = value * 2 + c
        assert value == row["eval_q2"]


def test_table_latex(capsys):
    code, out, _ = run_cli(
        ["table", "--rank", "2", "--n", "1..2", "--target", "char",
         "--format", "latex"], capsys)
    assert code == 0
    assert out.startswith("\\begin{align*}")
    assert "q^{2}+1" in out
    assert out.rstrip().endswith("\\end{align*}")


def test_table_rejects_empty_range(capsys):
    for ns in ("5..4", "0..3", "x..3"):
        code, out, err = run_cli(
            ["table", "--rank", "2", "--n", ns, "--target", "char"], capsys)
        assert code == 2, ns
        assert out == "", ns
        assert err.startswith("error: ") and err.count("\n") == 1, ns


def test_table_refuses_huge_range_quickly():
    # the range is refused before its list or any row is built: too many
    # rows, or rows whose n are too long (1000 rows of 2001 digits would
    # print about 144 MB)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for lo, hi in ((1, 10 ** 9), (10 ** 2000, 10 ** 2000 + 999)):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hopfvar.cli", "table", "--rank", "3",
             "--n", f"{lo}..{hi}", "--target", "rep", "--format", "json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=5)
        assert time.perf_counter() - started < 5.0
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: range ") and proc.stderr.count("\n") == 1
    assert len(_parse_range(f"7..{MAX_TABLE_ROWS + 6}")) == MAX_TABLE_ROWS
    with pytest.raises(ValueError):
        _parse_range(f"7..{MAX_TABLE_ROWS + 7}")
    # rows times the upper bound's digits: at the bound a range is read, one row more is not
    for digits in (21, MAX_TABLE_DIGITS // 100):
        lo, rows = 10 ** (digits - 1), MAX_TABLE_DIGITS // digits
        assert len(_parse_range(f"{lo}..{lo + rows - 1}")) == rows
        with pytest.raises(ValueError, match=f"more than {MAX_TABLE_DIGITS} in all"):
            _parse_range(f"{lo}..{lo + rows}")


def test_usage_errors_exit_2(capsys):
    assert run_cli(["rep", "--rank", "5", "--n", "1"], capsys)[0] == 2
    assert run_cli(["rep", "--rank", "2", "--n", "0"], capsys)[0] == 2
    assert run_cli(["char", "--rank", "2"], capsys)[0] == 2
    assert run_cli(["bogus"], capsys)[0] == 2
    assert run_cli([], capsys)[0] == 2


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("rank", ["2", "3"])
@pytest.mark.parametrize("argv", [
    ["rep", "--method", "formula"], ["rep", "--method", "strata"], ["rep", "--method", "both"],
    ["char"], ["char", "--pieces"], ["count", "--q", "7"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_bad_twist_count_is_refused_alone(argv, rank, n, capsys):
    # every route refuses n < 1 with the one twist-count error on stderr and
    # nothing on stdout
    code, out, err = run_cli(argv + ["--rank", rank, "--n", n], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: twist count must be an integer >= 1, got {n}\n"


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python prints ints of any length")
@pytest.mark.parametrize("argv", [
    ["rep", "--rank", "3"],
    ["char", "--rank", "3", "--pieces"],
    ["table", "--rank", "3", "--target", "rep", "--format", "json"],
    ["table", "--rank", "3", "--target", "char", "--format", "latex"],
], ids=lambda argv: "-".join(argv[::3]))
def test_answer_past_the_digit_limit_is_refused_whole(argv, capsys):
    # rank-3 coefficients grow like n^2: with n of about half the interpreter's
    # int -> str digit limit, the answer crosses it, and is refused with
    # nothing on stdout rather than printed in part
    over, under = 10 ** (DIGIT_LIMIT // 2 + 10) + 1, 10 ** (DIGIT_LIMIT // 2 - 50) + 1
    code, out, err = run_cli(argv + ["--n", str(over)], capsys)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: the answer has an integer longer than")
    assert err.count("\n") == 1 and "set_int_max_str_digits" not in err
    code, out, err = run_cli(argv + ["--n", str(under)], capsys)
    assert code == 0 and len(out) > DIGIT_LIMIT, err


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python reads ints of any length")
@pytest.mark.parametrize("bounds", ["{big}", "1..{big}", "x..3"])
def test_unreadable_table_bound_is_refused_as_a_range(bounds, capsys):
    # a bound past the digit limit is an input the range cannot read, not an
    # answer too long to print; a long text is named by its length
    text = bounds.format(big="9" * (DIGIT_LIMIT + 100))
    code, out, err = run_cli([
        "table", "--rank", "2", "--n", text, "--target", "rep", "--format", "json"], capsys)
    assert (code, out) == (2, ""), err
    named = repr(text) if len(text) < 40 else f"<str of {len(text)} characters>"
    assert err == f"error: invalid range {named}\n" and len(err.encode()) < 200


HUGE = 10 ** 3000 + 1
INVALID_INT = "argument --{}: invalid int value: "


@pytest.mark.parametrize("argv, named", [
    (["count", "--rank", "3", "--n", "1", "--q", str(HUGE)], "q^2 = <integer of 6001 digits>"),
    (["count", "--rank", "2", "--n", "1", "--q", str(HUGE)], "q^1 = <integer of 3001 digits>"),
    (["count", "--rank", "2", "--n", str(HUGE), "--q", "7", "--assert"],
     "--assert requires <integer of 3001 digits>"),
    (["rep", "--rank", "2", "--n", str(-10 ** 4000)], "got <negative integer of 4001 digits>"),
    (["rep", "--rank", str(HUGE), "--n", "1"], "got <integer of 3001 digits>"),
    # argparse's own messages echo their input whole, and are cut (see below)
    pytest.param(["rep", "--rank", "2", "--n", "9" * (DIGIT_LIMIT + 700)],
                 f"... <message of {len(INVALID_INT.format('n')) + DIGIT_LIMIT + 702} characters>",
                 marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit to pass")),
    (["count", "--rank", "2", "--n", "1", "--q", "7", "--threads", "x" * 5000],
     f"... <message of {len(INVALID_INT.format('threads')) + 5002} characters>"),
], ids=["count-rank3-q", "count-rank2-q", "count-assert-n", "rep-n", "rep-rank",
        "rep-n-unreadable", "count-threads"])
def test_refusal_of_a_long_input_is_one_short_line(argv, named, capsys):
    # every refusal names a long input by its digits or characters: exit 2,
    # nothing on stdout, and one stderr line of under 200 bytes (a table
    # range: test_unreadable_table_bound_is_refused_as_a_range)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err and len(err.encode()) < 200, err


@pytest.mark.parametrize("char", ["x", "\U0001d53d"], ids=["ascii", "4-byte"])
@pytest.mark.parametrize("argv, named", [
    (["rep", "--rank", "2", "--n", "1", "{}"], "unrecognized arguments: "),
    (["rep", "--rank", "2", "--n", "1", "--{}"], "unrecognized arguments: --"),
    (["{}"], "argument command: invalid choice: "),
    (["rep", "--rank", "2", "--n", "1", "--method", "{}"], "argument --method: invalid choice: "),
    (["table", "--rank", "2", "--n", "1", "--target", "{}"], "argument --target: invalid choice: "),
    (["table", "--rank", "2", "--n", "1", "--target", "rep", "--format", "{}"],
     "argument --format: invalid choice: "),
    (["rep", "--rank", "{}", "--n", "1"], INVALID_INT.format("rank")),
    (["table", "--rank", "{}", "--n", "1", "--target", "rep"], INVALID_INT.format("rank")),
    (["char", "--rank", "2", "--n", "{}"], INVALID_INT.format("n")),
    (["count", "--rank", "2", "--n", "1", "--q", "{}"], INVALID_INT.format("q")),
    (["count", "--rank", "2", "--n", "1", "--q", "7", "--threads", "{}"],
     INVALID_INT.format("threads")),
], ids=["stray-argument", "stray-option", "command", "method", "target", "format", "rank",
        "table-rank", "n", "q", "threads"])
def test_every_usage_error_is_one_short_line(argv, named, char, capsys):
    # argparse's messages echo their input whole; a line that would reach
    # 200 bytes is cut, in encoded bytes, and names the message's length
    code, out, err = run_cli([a.format(char * 5000) for a in argv], capsys)
    assert (code, out) == (2, ""), err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
    assert re.search(r"\.\.\. <message of \d+ characters>\n$", err), err
    assert len(err.encode()) < 200, err


def test_usage_error_is_cut_in_the_bytes_stderr_writes(monkeypatch):
    # a stderr that cannot encode a character writes it as a 10-byte escape,
    # and the cut counts those bytes
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(raw, encoding="latin-1",
                                                        errors="backslashreplace"))
    with pytest.raises(SystemExit) as exc:
        main(["rep", "--rank", "2", "--n", "1", "--method", "\U0001d53d" * 5000])
    sys.stderr.flush()
    err = raw.getvalue()
    assert exc.value.code == 2
    assert err.startswith(b"error: argument --method: invalid choice: '\\U0001d53d"), err
    assert err.count(b"\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize("option, argv", [
    ("rank", ["rep", "--rank", "{}", "--n", "1"]), ("n", ["rep", "--rank", "2", "--n", "{}"]),
    ("q", ["count", "--rank", "2", "--n", "1", "--q", "{}"]),
    ("threads", ["count", "--rank", "2", "--n", "1", "--q", "7", "--threads", "{}"]),
    ("rank", ["table", "--rank", "{}", "--n", "1", "--target", "rep"]),
], ids=["rank", "n", "q", "threads", "table-rank"])
def test_integer_options_read_what_int_reads(option, argv, capsys):
    # every integer option reads a text as int() does: blanks, a sign and
    # digit underscores are accepted, and a short refusal is echoed whole
    for text, value in ((" 7", 7), ("+3", 3), ("1_000", 1000), ("x", None)):
        try:
            args = build_parser().parse_args([a.format(text) for a in argv])
        except SystemExit as exc:
            assert (exc.code, value) == (2, None), text
            assert capsys.readouterr().err == f"error: {INVALID_INT.format(option)}{text!r}\n"
        else:
            assert getattr(args, option) == value, text


@pytest.mark.parametrize("rank", ["2", "3"])
def test_inadmissible_count_names_a_long_modulus_by_its_size(rank, capsys):
    # the note on an inadmissible q names r*n by its digits, so a count whose
    # modulus is past the interpreter's digit limit still prints
    n = 10 ** (DIGIT_LIMIT or 4300) - 1
    code, out, err = run_cli(["count", "--rank", rank, "--n", str(n), "--q", "7"], capsys)
    assert code == 0, err
    count = ffcount.count_rep_variety_points(int(rank), n, 7)
    assert out == (f"count: {count}\nno equality asserted "
                   f"(<integer of {len(str(n)) + 1} digits> does not divide 6)\n")


# The golden set holds only MATCH cases; each test below makes one route
# disagree and checks the verdict line and exit code.

def test_rep_both_reports_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(geom, "rep_variety_epoly_strata",
                        lambda rank, n: geom.rep_variety_epoly_formula(rank, n) + 1)
    code, out, _ = run_cli(["rep", "--rank", "2", "--n", "3", "--method", "both"], capsys)
    assert code == 1
    assert out.splitlines()[-1] == "MISMATCH"


def test_count_assert_reports_mismatch(capsys, monkeypatch):
    count = ffcount.count_rep_variety_points
    monkeypatch.setattr(ffcount, "count_rep_variety_points",
                        lambda *args, **kwargs: count(*args, **kwargs) + 1)
    code, out, _ = run_cli(
        ["count", "--rank", "2", "--n", "2", "--q", "5", "--assert"], capsys)
    assert code == 1
    assert out.splitlines() == ["count: 4561", "expected: 4560", "MISMATCH"]


def test_char_pieces_reports_mismatch(capsys, monkeypatch):
    piece_epoly = charvar.char_piece_epoly
    monkeypatch.setattr(charvar, "char_piece_epoly",
                        lambda rank, piece, n: piece_epoly(rank, piece, n) + (piece == "total"))
    for rank in ("2", "3"):
        code, out, _ = run_cli(["char", "--rank", rank, "--n", "3", "--pieces"], capsys)
        assert code == 1, rank
        assert out.splitlines()[-1].startswith("MISMATCH"), rank


def test_table_json_reports_mismatch(capsys, monkeypatch):
    strata = geom.rep_variety_epoly_strata
    monkeypatch.setattr(geom, "rep_variety_epoly_strata",
                        lambda rank, n: strata(rank, n) + (n == 3))
    code, out, err = run_cli(
        ["table", "--rank", "3", "--n", "1..5", "--target", "rep", "--format", "json"], capsys)
    assert code == 1
    assert [line for line in err.splitlines() if "MISMATCH" in line] == ["MISMATCH at n=3"]
    # stdout still holds every row, the wrong one as computed
    rows = json.loads(out)
    assert [row["n"] for row in rows if row["strata"] != row["formula"]] == [3]



def test_char_table_json_reports_mismatch(capsys, monkeypatch):
    commands = {rank: ["table", "--rank", rank, "--n", "1..5", "--target", "char",
                       "--format", "json"] for rank in ("2", "3")}
    clean = {rank: run_cli(args, capsys) for rank, args in commands.items()}
    piece = charvar.char_piece_epoly
    monkeypatch.setattr(charvar, "char_piece_epoly",
                        lambda rank, name, n: piece(rank, name, n) + (n in (2, 4)))
    for rank, args in commands.items():
        code, out, err = run_cli(args, capsys)
        assert (clean[rank][0], code) == (0, 1), rank
        assert [line for line in err.splitlines() if "MISMATCH" in line] == \
            ["MISMATCH at n=2", "MISMATCH at n=4"], rank
        # stdout holds the formula rows, as without the fault
        assert out == clean[rank][1], rank
