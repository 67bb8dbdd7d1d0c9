import json
import re
import shlex
from pathlib import Path

from hopfvar import cli

ROOT = Path(__file__).resolve().parent.parent


def test_readme_cites_committed_benchmark_files():
    # every speed claim in the README points at a measurement file that is
    # in the repository and says which machine it was taken on
    cited = set(re.findall(r"BENCH_\w+\.json", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert cited
    for name in sorted(cited):
        path = ROOT / name
        assert path.is_file(), name
        assert json.loads(path.read_text(encoding="utf-8")).get("machine"), name


def _block(heading, language):
    # the first fenced block of this language after the README heading
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    start = section.index(f"```{language}\n") + len(language) + 4
    return section[start:section.index("```", start)]


def test_readme_library_example_prints_what_it_says(capsys):
    # each print(...)  # X line prints X, the comment's text before its
    # first comma
    code = _block("## Library example", "python")
    expected = [line.split("#", 1)[1].split(",")[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_cli_lines_exit_zero(capsys):
    # each hopfvar line of the CLI block, its comment dropped, run in-process
    lines = [shlex.split(line, comments=True) for line in _block("## CLI", "sh").splitlines()
             if line.startswith("hopfvar ")]
    assert lines
    for argv in lines:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out, argv
