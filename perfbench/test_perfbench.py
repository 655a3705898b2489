"""Tests of the benchmark itself (not of the simulator).

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import ops
import run

run.import_program()

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_ops_and_digest(workload):
    first = ops.make_ops(workload, 11, 3)
    assert first == ops.make_ops(workload, 11, 3)
    digests = {run.digest([ops.run_op(workload, op) for op in first]) for _ in range(2)}
    assert len(digests) == 1


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_different_seed_different_ops(workload):
    assert ops.make_ops(workload, 1, 6) != ops.make_ops(workload, 2, 6)


def test_sizes_stay_in_range_and_cover_it():
    sizes = ops.make_ops("imb-rndv", 5, 40)
    lo, hi = ops.RNDV_SIZES
    assert all(lo <= s <= hi for s in sizes)
    # stratified: the smallest and largest tenth of the log range are hit
    assert min(sizes) < lo * 2 and max(sizes) > hi / 2


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(ops.WORKLOADS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    res = _bench("--workload", "abinit-scf", "--seed", "3", "--seconds", "0.4",
                 "--trace", trace)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    n = ops.n_ops("abinit-scf", 0.4)
    assert result["attempted"] == (n if trace == "0" else max(1, round(n * run.TRACE_SHARE)))
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == set(expected)


@pytest.mark.parametrize("workload, bypassed", [
    ("abinit-scf", ("engine", "ib", "mpi")),
    ("imb-rndv", ("alloc",)),
])
def test_bypassed_layers_stay_below_one_percent(workload, bypassed):
    res = _bench("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", "1")
    assert res.returncode == 0, res.stderr
    metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
    assert sum(metrics[f"{layer}.share"]["value"] for layer in bypassed) < 0.01


def test_planted_oracle_mismatch_is_a_failed_op(monkeypatch, capsys):
    from repro import fastpath

    real = ops.run_op

    def planted(workload, op, sink=None):
        payload = real(workload, op, sink)
        if not fastpath.enabled():  # only the reference path disagrees
            payload = payload[:-1] + [payload[-1][:-1] + (-1.0,)]
        return payload

    monkeypatch.setattr(ops, "run_op", planted)
    assert run.main(["--workload", "abinit-scf", "--seed", "4", "--seconds", "0.2"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == ops.ORACLE_OPS["abinit-scf"]
    assert result["correct"] is False
    assert result["attempted"] == ops.n_ops("abinit-scf", 0.2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _bench("--workload", "imb-rndv", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert "{" not in res.stdout
