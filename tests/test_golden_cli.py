"""Golden CLI output: stdout and exit code of a fixed command set.

The expected values in golden_cli.json were recorded from the CLI and must
stay byte-identical across refactors.  To re-record after an intended
output change, run ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import json
import os

from hopfvar.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")


def commands() -> list[list[str]]:
    argvs = []
    for rank in ("2", "3"):
        for target in ("rep", "char"):
            for fmt, ns in (("csv", "1..20"), ("latex", "1..20"), ("json", "1..6")):
                argvs.append(["table", "--rank", rank, "--n", ns,
                              "--target", target, "--format", fmt])
    for rank in ("2", "3"):
        for n in ("1", "2", "7"):
            for head in (["rep", "--method", "both"], ["char", "--pieces"]):
                for latex in ([], ["--latex"]):
                    argvs.append([head[0], "--rank", rank, "--n", n, *head[1:], *latex])
    for rank, n, q in (("2", "2", "5"), ("3", "1", "7"), ("3", "2", "7")):
        argvs.append(["count", "--rank", rank, "--n", n, "--q", q, "--assert"])
    argvs.append(["count", "--rank", "2", "--n", "2", "--q", "7"])  # inadmissible
    argvs.append(["count", "--rank", "3", "--n", "1", "--q", "61", "--assert"])
    argvs.append(["count", "--rank", "2", "--n", "1", "--q", "1009"])
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_golden_cli_output():
    with open(GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert [case["argv"] for case in cases] == commands()
    for case in cases:
        code, out = run(case["argv"])
        assert (code, out) == (case["code"], case["stdout"]), " ".join(case["argv"])


if __name__ == "__main__":
    cases = [dict(zip(("argv", "code", "stdout"), (argv, *run(argv))))
             for argv in commands()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
