"""The four benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
only when the previous one has finished.  Operations are grouped in passes
(a pass is the workload's unit of verification, timed as verify_s), every
operation checks its own result, and every input comes from the workload
seed.  The benchmark calls hopfvar only through public module functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass
from typing import Callable

from hopfvar import charvar, ffcount, geom

#: Largest field size of the rank-2 grid; 31^4 cells stay below one batch
#: of the counter, so its thread pool never engages.
GRID_MAX_Q = 31
#: Distinct twist counts of the symbolic sweep are drawn from blocks of this
#: size: first a permutation of 1..SWEEP_BLOCK, then of the next block.
SWEEP_BLOCK = 10_000
#: A sweep pass is two twist counts: short passes catch the host's brief
#: full-speed phases (see NOTE.md).
SWEEP_PASS = 2
#: rep, char and table run at rank 3, where the CLI does the most work, so
#: every pass does the same work; twist counts are drawn from 1..CLI_MAX_N.
CLI_RANK = 3
CLI_MAX_N = 1000
#: Field size of the CLI count: the largest of the grid, so every count
#: process does the same enumeration and reaches the same peak memory.
CLI_COUNT_Q = GRID_MAX_Q
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One operation: run() returns True when its result checks out."""

    label: str
    run: Callable[[], bool]


def grid_points() -> list[tuple[int, int]]:
    """Every rank-2 point (n, q) with q an odd prime <= GRID_MAX_Q and
    2n | q - 1, so the count must equal the closed formula at q."""
    primes = [q for q in range(3, GRID_MAX_Q + 1, 2)
              if all(q % d for d in range(3, int(q ** 0.5) + 1, 2))]
    return [(n, q) for q in primes for n in range(1, q)
            if ffcount.is_admissible(2, n, q)]


def count_op(rank: int, n: int, q: int, threads: int) -> Op:
    def run() -> bool:
        count = ffcount.count_rep_variety_points(rank, n, q, threads=threads)
        return count == geom.rep_variety_epoly_formula(rank, n).evaluate(q)
    return Op(f"count r{rank} n{n} q{q} t{threads}", run)


def sweep_op(n: int) -> Op:
    def run() -> bool:
        ok = True
        for rank in (2, 3):
            ok &= (geom.rep_variety_epoly_strata(rank, n)
                   == geom.rep_variety_epoly_formula(rank, n))
            ok &= (charvar.char_piece_epoly(rank, "total", n)
                   == charvar.char_variety_epoly_formula(rank, n))
        return ok
    return Op(f"sweep n{n}", run)


class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and NOTE.md."""

    name = ""
    #: True when the operations run in child processes
    in_children = False

    def __init__(self, seed: int, threads: int):
        self.seed = seed
        self.threads = threads

    def rng(self, pass_index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{pass_index}")

    def warm(self) -> None:
        """Lazy set-up before the first timed operation."""

    def pass_ops(self, i: int, in_process: bool = False) -> list[Op]:
        """The operations of pass i.  in_process asks for operations that
        run in this process, where the tracer sees them."""
        raise NotImplementedError

    def probe_ops(self) -> list[Op]:
        """Extra operations of the traced run, at one thread."""
        return []


class FfRank3(Workload):
    name = "ff-rank3"

    def warm(self) -> None:
        count_op(2, 1, 3, self.threads).run()

    def pass_ops(self, i, in_process=False):
        return [count_op(3, 1, 7, self.threads)]

    def probe_ops(self):
        return [count_op(3, 1, 7, 1)]


class FfRank2Grid(Workload):
    name = "ff-rank2-grid"

    def warm(self) -> None:
        # The largest point first: the allocator then settles the same way
        # whatever order the passes take, so peak memory does not depend on
        # the seed.
        count_op(2, GRID_MAX_Q // 2, GRID_MAX_Q, self.threads).run()

    def _grid(self, i, threads):
        points = grid_points()
        self.rng(i).shuffle(points)
        return [count_op(2, n, q, threads) for n, q in points]

    def pass_ops(self, i, in_process=False):
        return self._grid(i, self.threads)

    def probe_ops(self):
        return self._grid(-1, 1)


class SymbolicSweep(Workload):
    name = "symbolic-sweep"

    def __init__(self, seed, threads):
        super().__init__(seed, threads)
        self._blocks: list[array] = []

    def twist(self, k: int) -> int:
        """The k-th twist count of the run; all are distinct."""
        block, pos = divmod(k, SWEEP_BLOCK)
        while len(self._blocks) <= block:
            lo = len(self._blocks) * SWEEP_BLOCK + 1
            ns = list(range(lo, lo + SWEEP_BLOCK))
            self.rng(len(self._blocks)).shuffle(ns)
            self._blocks.append(array("l", ns))
        return self._blocks[block][pos]

    def warm(self) -> None:
        # a twist count no pass draws, so nothing the passes use is cached
        sweep_op(10 ** 9).run()

    def pass_ops(self, i, in_process=False):
        return [sweep_op(self.twist(k))
                for k in range(i * SWEEP_PASS, (i + 1) * SWEEP_PASS)]


class CliOneshot(Workload):
    name = "cli-oneshot"
    in_children = True

    def warm(self) -> None:
        from hopfvar import cli  # noqa: F401  (import is part of set-up)
        _run_cli_in_process(["rep", "--rank", "2", "--n", "1"])

    def commands(self, i) -> list[tuple[list[str], Callable[[int, str], bool]]]:
        rng = self.rng(i)
        rep_n, char_n, table_n = (rng.randint(1, CLI_MAX_N) for _ in range(3))
        # every 4 consecutive passes count at each admissible n once, so
        # the largest count process is in every run
        count_q = CLI_COUNT_Q
        count_ns = [n for n, q in grid_points() if q == count_q]
        self.rng(-1 - i // len(count_ns)).shuffle(count_ns)
        count_n = count_ns[i % len(count_ns)]
        cmds = [
            (["rep", "--rank", str(CLI_RANK), "--n", str(rep_n), "--method", "both"],
             _check_rep(CLI_RANK, rep_n)),
            (["char", "--rank", str(CLI_RANK), "--n", str(char_n), "--pieces"],
             _check_char(CLI_RANK, char_n)),
            (["table", "--rank", str(CLI_RANK), "--n", f"{table_n}..{table_n + 4}",
              "--target", "rep", "--format", "json"],
             _check_table(CLI_RANK, table_n, table_n + 4)),
            (["count", "--rank", "2", "--n", str(count_n), "--q", str(count_q),
              "--assert", "--threads", str(self.threads)],
             _check_count(count_n, count_q)),
        ]
        rng.shuffle(cmds)
        return cmds

    def pass_ops(self, i, in_process=False):
        runner = _run_cli_in_process if in_process else _run_cli_process
        return [Op(argv[0], lambda argv=argv, check=check: check(*runner(argv)))
                for argv, check in self.commands(i)]


WORKLOADS = {w.name: w for w in (FfRank3, FfRank2Grid, SymbolicSweep, CliOneshot)}


def build(name: str, seed: int, threads: int) -> Workload:
    return WORKLOADS[name](seed, threads)


# -- CLI operations ---------------------------------------------------------------

def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def _run_cli_process(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "hopfvar.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=src_env(), text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    from hopfvar import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_rep(rank, n):
    expected = f"formula: {geom.rep_variety_epoly_formula(rank, n).to_ascii()}"

    def check(code, out):
        lines = out.splitlines()
        return code == 0 and lines[-1:] == ["MATCH"] and lines[:1] == [expected]
    return check


def _check_char(rank, n):
    expected = f"total: {charvar.char_variety_epoly_formula(rank, n).to_ascii()}"

    def check(code, out):
        lines = out.splitlines()
        return (code == 0 and expected in lines
                and not any(line.startswith("MISMATCH") for line in lines))
    return check


def _check_table(rank, lo, hi):
    def check(code, out):
        if code != 0:
            return False
        rows = json.loads(out)
        return [row["n"] for row in rows] == list(range(lo, hi + 1)) and all(
            row["strata"] == row["formula"]
            == list(reversed(geom.rep_variety_epoly_formula(rank, row["n"]).coeffs))
            for row in rows)
    return check


def _check_count(n, q):
    expected = geom.rep_variety_epoly_formula(2, n).evaluate(q)

    def check(code, out):
        lines = out.splitlines()
        return (code == 0 and lines[-1:] == ["MATCH"]
                and f"count: {expected}" in lines)
    return check
