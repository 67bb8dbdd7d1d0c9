import json
import re
from pathlib import Path

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
