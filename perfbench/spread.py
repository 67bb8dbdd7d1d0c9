"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload ff-rank3 --seeds 1-10 [--against FILE]

Runs the command of BENCHMARK.json once per seed, from the root of the
checkout, and prints for each end-to-end metric its median and its quartile
spread (Q3 - Q1) / median next to the metric's bound.  A spread should stay
below a third of the bound (setup_s excepted).  The raw values are written to
perfbench/out/spread-<workload>.json; --against compares the medians with an
earlier such file and flags a median worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import quartile_spread

OUT = Path(__file__).resolve().parent / "out"


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in metrics}
    ok = True
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=900)
        result = json.loads(proc.stdout.splitlines()[-1])
        ok &= proc.returncode == 0 and result["correct"]
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    before = json.loads(args.against.read_text()) if args.against else None
    for name, m in metrics.items():
        spread = quartile_spread(values[name])
        mid = statistics.median(values[name])
        line = (f"{name:<14} median {mid:>12.6g} {m['unit']:<4} "
                f"spread {spread:.4f}  bound {m['bound']}"
                f"  {'ok' if spread < m['bound'] / 3 else 'WIDE'}")
        if before:
            old = statistics.median(before[name])
            worse = (mid - old) / old
            line += f"  vs before {worse:+.4f} {'ok' if worse <= m['bound'] else 'WORSE'}"
        print(line)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}.json").write_text(json.dumps(values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
