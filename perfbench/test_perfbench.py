"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The smoke runs start the benchmark command from the root of the checkout,
as the benchmark expects, with a run length short enough for one pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from run import Loop  # noqa: E402
from summary import fastest_passes, quartile_spread, tail, valid_metric_name  # noqa: E402
from tracer import Tracer, patched  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentile rule ----------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(400, 0, -1))  # 1..400, unsorted
    value, pct, beyond = tail(values)
    assert (value, pct, beyond) == (390, 97.5, 10)
    assert sum(v > value for v in values) == 10


def test_tail_at_eleven_samples_and_below():
    assert tail(range(11)) == (0, 100 * 1 / 11, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_fastest_passes_are_taken_fastest_first():
    passes = [(3.0, [30.0] * 4), (1.0, [10.0] * 4), (2.0, [20.0] * 4)]
    assert fastest_passes(passes, 5) == ([10.0] * 4 + [20.0] * 4, [1.0, 2.0])
    assert fastest_passes(passes, 4) == ([10.0] * 4, [1.0])
    assert fastest_passes(passes, 99) == (
        [10.0] * 4 + [20.0] * 4 + [30.0] * 4, [1.0, 2.0, 3.0])


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)


# -- metric names -------------------------------------------------------------------

def test_metric_name_pattern():
    for good in ("op_p50_ms", "geom.stratum_ms.r3.xi6-xi4", "0x"):
        assert valid_metric_name(good)
    for bad in ("", "a b", "cells/s", "x" * 65, "é"):
        assert not valid_metric_name(bad)


def test_declared_metrics_match_what_the_run_reports():
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    assert per_layer == [name for name, _ in layers.metric_names()]
    names = e2e + per_layer
    assert len(set(names)) == len(names)
    assert all(valid_metric_name(n) for n in names)
    units = dict(layers.metric_names())
    assert all(m["unit"] == units[m["name"]] for m in BENCH["per_layer"])
    declared = [w["name"] for w in BENCH["workloads"]]
    assert set(declared) <= set(workloads.WORKLOADS)
    # 14 admissible strata, one metric each
    assert sum(n.startswith("geom.stratum_ms.") for n in per_layer) == 14


# -- self time -------------------------------------------------------------------------

def _spans(tracer, spans):
    """spans: (name, start, end, parent index)"""
    for name, start, end, parent in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)


def test_self_time_subtracts_union_of_children():
    tracer = Tracer()
    _spans(tracer, [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),      # overlaps b
        ("b", 3.0, 5.0, 0),
        ("c", 8.0, 12.0, 0),     # runs past the parent: clipped to 8..10
        ("leaf", 1.5, 2.0, 1),
    ])
    assert tracer.self_times() == pytest.approx([10 - 4 - 2, 3 - 0.5, 2, 4, 0.5])


def test_wrappers_nest_and_restore():
    tracer = Tracer()

    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    original = Box.inner
    with patched([(Box, "outer", "outer", None),
                  (Box, "inner", lambda x: f"inner.{x}", lambda x: {"x": x})], tracer):
        with tracer.operation("work"):
            assert Box.outer(3) == 7
    assert Box.inner is original
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["op", "outer", "inner.3"]
    assert list(tracer.parent) == [-1, 0, 1]
    assert list(tracer.op) == [0, 0, 0]
    assert tracer.attrs == {2: {"x": 3}}


# -- every failed check counts ---------------------------------------------------------

def test_loop_keeps_passes_apart():
    loop = Loop()
    loop.run_pass([workloads.Op("a", lambda: True)] * 2)
    loop.run_pass([workloads.Op("b", lambda: True)] * 3)
    assert [len(ops) for _, ops in loop.passes()] == [2, 3]
    assert [t for t, _ in loop.passes()] == list(loop.pass_s)


def test_loop_counts_mismatches_and_exceptions():
    def boom():
        raise ValueError("refused")

    loop = Loop()
    loop.run_pass([workloads.Op("ok", lambda: True),
                   workloads.Op("mismatch", lambda: False),
                   workloads.Op("raises", boom)])
    assert loop.attempted == 3 and len(loop.passes()[0][1]) == 3
    assert [f.split(":")[0] for f in loop.failures] == ["mismatch", "raises"]


def test_cli_checks_reject_wrong_output():
    def rejects(check, code, out):
        try:
            return not check(code, out)
        except ValueError:  # unparsable table output; the loop counts it
            return True

    cli = workloads.CliOneshot(seed=1, threads=1)
    for argv, check in cli.commands(0):
        code, out = workloads._run_cli_in_process(argv)
        assert check(code, out), argv
        assert rejects(check, 1, out)
        assert rejects(check, 0, "")
        assert rejects(check, 0, out.replace("1", "2"))


def test_inputs_follow_the_seed():
    assert len(workloads.grid_points()) == 28
    a, b = workloads.SymbolicSweep(7, 1), workloads.SymbolicSweep(7, 1)
    ns = [a.twist(k) for k in range(workloads.SWEEP_BLOCK + 50)]
    assert ns == [b.twist(k) for k in range(len(ns))]
    assert len(set(ns)) == len(ns)
    assert set(ns[:workloads.SWEEP_BLOCK]) == set(range(1, workloads.SWEEP_BLOCK + 1))
    assert ns[:20] != [workloads.SymbolicSweep(8, 1).twist(k) for k in range(20)]
    cli = workloads.CliOneshot(3, 2)
    assert [argv for argv, _ in cli.commands(5)] == [
        argv for argv, _ in workloads.CliOneshot(3, 2).commands(5)]


# -- smoke runs --------------------------------------------------------------------------

def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", "1",
                            "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_untraced(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_ratio" in proc.stdout and '"nproc"' in proc.stdout
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


# ff-rank3 is left out of the traced smoke run: it counts at (3, 1, 7) three
# times, about half a minute on two cores.
@pytest.mark.parametrize("workload", ["ff-rank2-grid", "symbolic-sweep", "cli-oneshot"])
def test_smoke_traced(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    assert metrics["ffcount.memo_hit_ratio"] == 0
    assert all(metrics[f"cli.main_ms.{c}"] > 0 for c in layers.CLI_COMMANDS)
    if workload == "symbolic-sweep":
        assert metrics["poly.mul_calls_per_op"] > 0 and metrics["ffcount.count_s"] == 0
    if workload == "ff-rank2-grid":
        assert metrics["ffcount.classes"] > 0 and metrics["strata.is_prime_calls"] > 0
    if workload == "cli-oneshot":
        assert metrics["cli.interpreter_ms"] > 0 and metrics["ffcount.classes"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("symbolic-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
