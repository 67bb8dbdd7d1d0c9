"""Per-layer metrics of the traced run.

Wrappers go around public functions of each hopfvar module, where the caller
looks the name up, and every per-layer number is computed from the spans they
record.  Times and counts are per operation of the traced passes unless the
name says per call (ms of one call) or the metric is a ratio.  A layer the
workload never calls reads 0.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

from hopfvar import charvar, cli, ffcount, geom
from hopfvar.poly import Poly
from hopfvar.repring import S2Elem, S3Elem

from tracer import Tracer
from workloads import src_env

PROBE_REPEATS = 5
CLI_COMMANDS = ("rep", "char", "table", "count")


def _stratum_name(stratum, n):
    return (f"geom.stratum.r{stratum.rank}"
            f".xi{stratum.src.index}-xi{stratum.tgt.index}")


#: (owner, attribute, span name or namer, attrs function)
TARGETS = [
    (Poly, "__mul__", "poly.mul", None),
    (Poly, "__rmul__", "poly.mul", None),
    (S2Elem, "__mul__", "repring.mul", None),
    (S3Elem, "__mul__", "repring.mul", None),
    (geom, "config_epoly", "strata.config", None),
    (geom, "config_equivariant_s2", "strata.config", None),
    (geom, "config_equivariant_s3", "strata.config", None),
    (ffcount, "is_prime", "strata.is_prime", None),
    (geom, "stratum_epoly", _stratum_name, None),
    (geom, "rep_variety_epoly_strata",
     lambda rank, n: f"geom.strata_sum.r{rank}", None),
    (geom, "rep_variety_epoly_formula",
     lambda rank, n: f"geom.formula.r{rank}", None),
    (charvar, "char_piece_epoly",
     lambda rank, piece, n: f"charvar.pieces.r{rank}", None),
    (charvar, "char_variety_epoly_formula",
     lambda rank, n: f"charvar.formula.r{rank}", None),
    (ffcount, "count_rep_variety_points", "ffcount.count",
     lambda rank, n, q, threads=None, max_cells=None:
         {"cells": q ** (rank * rank), "threads": threads}),
    (ffcount, "count_commuting_det1", "ffcount.commutant",
     lambda M, memo=None: {"scalar": M.is_scalar()}),
    (ffcount, "commutant_basis", "ffcount.commutant_basis", None),
    (cli, "main", lambda argv=None: f"cli.main.{argv[0]}", None),
]


def _stratum_names(rank: int) -> list[str]:
    return [_stratum_name(st, None) for st in geom.admissible_strata(rank)]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [
        ("poly.mul_calls_per_op", "count"), ("poly.mul_self_s", "s"),
        ("repring.mul_calls_per_op", "count"), ("repring.mul_self_s", "s"),
        ("strata.config_self_s", "s"), ("strata.is_prime_calls", "count"),
    ]
    for kind in ("strata_sum", "formula"):
        names += [(f"geom.{kind}_ms.r{r}", "ms") for r in (2, 3)]
    names += [(name.replace("geom.stratum.", "geom.stratum_ms."), "ms")
              for r in (2, 3) for name in _stratum_names(r)]
    for kind in ("pieces", "formula"):
        names += [(f"charvar.{kind}_ms.r{r}", "ms") for r in (2, 3)]
    names += [
        ("ffcount.count_s", "s"), ("ffcount.cells_per_s", "cells/s"),
        ("ffcount.commutant_s", "s"), ("ffcount.enumerate_s", "s"),
        ("ffcount.classes", "count"), ("ffcount.commutant_share", "ratio"),
        ("ffcount.memo_hit_ratio", "ratio"), ("ffcount.thread_scaling", "ratio"),
        ("cli.interpreter_ms", "ms"), ("cli.import_hopfvar_ms", "ms"),
        ("cli.import_numpy_ms", "ms"),
    ]
    names += [(f"cli.main_ms.{cmd}", "ms") for cmd in CLI_COMMANDS]
    names.append(("trace.overhead_s", "s"))
    return names


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def span_metrics(tracer: Tracer, threads: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced run.

    Only spans inside operations of kind "work" (the workload's own passes)
    count, except for thread scaling, which compares the count calls of the
    "probe" operations (one thread) with those of the work operations, and
    cli.main_ms, which takes every cli.main call, the CLI probe pass
    included.
    """
    selfs = tracer.self_times()
    names = tracer.names
    work_ops = sum(1 for k in tracer.op_kinds if k == "work")
    per_name_dur: dict[str, list[float]] = defaultdict(list)
    self_sum: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts_at: dict[str, list[int]] = defaultdict(list)
    cli_dur: dict[str, list[float]] = defaultdict(list)
    commutant_by_count: dict[int, list[int]] = defaultdict(list)
    basis_calls = 0

    for idx in range(len(tracer.name)):
        op = tracer.op[idx]
        if op < 0:
            continue
        kind = tracer.op_kinds[op]
        name = names[tracer.name[idx]]
        par = tracer.parent[idx]
        dur = tracer.end[idx] - tracer.start[idx]
        if name == "ffcount.count":
            counts_at[kind].append(idx)
        elif name.startswith("cli.main."):
            cli_dur[name].append(dur)
        if kind != "work":
            continue
        if (name.startswith("charvar.pieces.") and par >= 0
                and names[tracer.name[par]] == name):
            continue  # recursive piece calls: only the outermost counts
        per_name_dur[name].append(dur)
        self_sum[name] += selfs[idx]
        calls[name] += 1
        if name == "ffcount.commutant" and par >= 0:
            commutant_by_count[par].append(idx)
        elif name == "ffcount.commutant_basis" and par >= 0 \
                and names[tracer.name[par]] == "ffcount.commutant":
            basis_calls += 1

    per_op = (lambda x: x / work_ops) if work_ops else (lambda x: 0.0)
    out: dict[str, float] = {
        "poly.mul_calls_per_op": per_op(calls["poly.mul"]),
        "poly.mul_self_s": per_op(self_sum["poly.mul"]),
        "repring.mul_calls_per_op": per_op(calls["repring.mul"]),
        "repring.mul_self_s": per_op(self_sum["repring.mul"]),
        "strata.config_self_s": per_op(self_sum["strata.config"]),
        "strata.is_prime_calls": per_op(calls["strata.is_prime"]),
    }
    for r in (2, 3):
        out[f"geom.strata_sum_ms.r{r}"] = 1e3 * _mean(per_name_dur[f"geom.strata_sum.r{r}"])
        out[f"geom.formula_ms.r{r}"] = 1e3 * _mean(per_name_dur[f"geom.formula.r{r}"])
        for name in _stratum_names(r):
            out[name.replace("geom.stratum.", "geom.stratum_ms.")] = 1e3 * _mean(
                per_name_dur[name])
        out[f"charvar.pieces_ms.r{r}"] = 1e3 * _mean(per_name_dur[f"charvar.pieces.r{r}"])
        out[f"charvar.formula_ms.r{r}"] = 1e3 * _mean(per_name_dur[f"charvar.formula.r{r}"])

    work_counts = [i for i in counts_at["work"]
                   if tracer.attrs[i]["threads"] == threads]
    count_dur = [tracer.end[i] - tracer.start[i] for i in work_counts]
    commutant_dur = [sum(tracer.end[c] - tracer.start[c] for c in commutant_by_count[i])
                     for i in work_counts]
    classes = [len(commutant_by_count[i]) for i in work_counts]
    nonscalar = sum(1 for i in work_counts for c in commutant_by_count[i]
                    if not tracer.attrs[c]["scalar"])
    probe_dur = [tracer.end[i] - tracer.start[i] for i in counts_at["probe"]
                 if tracer.attrs[i]["threads"] == 1]
    count_s = _mean(count_dur)
    out.update({
        "ffcount.count_s": count_s,
        "ffcount.cells_per_s": (sum(tracer.attrs[i]["cells"] for i in work_counts)
                                / sum(count_dur)) if count_dur else 0.0,
        "ffcount.commutant_s": _mean(commutant_dur),
        "ffcount.enumerate_s": count_s - _mean(commutant_dur),
        "ffcount.classes": _mean(classes),
        "ffcount.commutant_share": (sum(commutant_dur) / sum(count_dur)
                                    if count_dur else 0.0),
        "ffcount.memo_hit_ratio": 1 - basis_calls / nonscalar if nonscalar else 0.0,
        "ffcount.thread_scaling": (_mean(probe_dur) / count_s
                                   if probe_dur and count_s else 0.0),
    })
    for cmd in CLI_COMMANDS:
        out[f"cli.main_ms.{cmd}"] = 1e3 * _mean(cli_dur[f"cli.main.{cmd}"])
    return out


# -- import probes ------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)$")


def import_probes() -> dict[str, float]:
    """Bare interpreter start and the cumulative import time of hopfvar and
    numpy, each the median of PROBE_REPEATS fresh processes."""
    env = src_env()
    bare, hop, npy = [], [], []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append(1e3 * (perf_counter() - t0))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hopfvar"],
                              env=env, stderr=subprocess.PIPE, text=True,
                              check=True, timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) / 1e3)
        hop.append(cumulative["hopfvar"])
        npy.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_ms": statistics.median(bare),
            "cli.import_hopfvar_ms": statistics.median(hop),
            "cli.import_numpy_ms": statistics.median(npy)}
