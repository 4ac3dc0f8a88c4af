"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import obgcs  # noqa: E402
import obgcs.cli  # noqa: E402
import obgcs.harness  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    rep = bench.measure(name, seed=1, seconds=0.1, trace=trace, size="tiny")
    res = rep["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, rep["failures"]
    want = _spec()["per_layer" if trace else "end_to_end"]
    assert {n: r["unit"] for n, r in res["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(r["value"], float) for r in res["metrics"].values())
    if trace:
        # the benchmark's own time plus every wrapped call's self time is the traced wall
        total = sum(r["value"] for n, r in res["metrics"].items()
                    if n.endswith(".self_s"))
        assert total == pytest.approx(res["metrics"]["bench.wall_s"]["value"], rel=1e-6)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spans_nest_and_self_times_are_not_negative(name):
    rep = bench.measure(name, seed=2, seconds=0.1, trace=1, size="tiny")
    with gzip.open(os.path.join(ROOT, rep["spans"]), "rt", encoding="utf-8") as fh:
        spans = {s["id"]: s for s in map(json.loads, fh)}
    child_time = dict.fromkeys(spans, 0.0)
    roots = 0
    for s in spans.values():
        assert s["start"] <= s["end"]
        if s["parent"] is None:
            roots += 1
            assert s["name"] == "bench.pass"
            continue
        parent = spans[s["parent"]]
        assert parent["run"] == s["run"]
        assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        child_time[parent["id"]] += s["end"] - s["start"]
    assert roots >= 1 and len(spans) > roots
    for s in spans.values():
        assert (s["end"] - s["start"]) - child_time[s["id"]] >= 0.0


def _negated_ls(orig):
    def ls_decode(*args, **kwargs):
        res = orig(*args, **kwargs)
        res.x_hat = -res.x_hat
        return res
    return ls_decode


def _dense_biht(obs, ens, s, iters=100, step=1.0):
    return np.full(ens.n, 1.0 / np.sqrt(ens.n))


def _one_point_net(k, r, epsilon, method="auto", seed=0):
    return obgcs.EpsNet(points=np.zeros((1, int(k))), epsilon=epsilon, r=r)


@pytest.mark.parametrize("name, owner, attr, bad", [
    ("ls_sweep", obgcs.harness, "ls_decode", _negated_ls(obgcs.harness.ls_decode)),
    ("small_m_cli", obgcs.cli, "biht_decode", _dense_biht),
    ("constructions", obgcs, "build_eps_net", _one_point_net),
])
def test_bad_output_counts_as_failed(monkeypatch, name, owner, attr, bad):
    monkeypatch.setattr(owner, attr, bad)
    rep = bench.measure(name, seed=1, seconds=0.1, trace=0, size="tiny")
    res = rep["result"]
    assert not res["correct"] and res["failed"] >= 1
    assert rep["fail_frac"] == res["failed"] / res["attempted"] > 0


def test_command_prints_contract_line_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "constructions",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = _spec()
    proc = subprocess.run(spec["command"] + ["--workload", "ls_sweep", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
