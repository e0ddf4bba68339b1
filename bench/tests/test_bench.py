"""Smoke test of the benchmark at a small size.

Every metric BENCHMARK.json declares is emitted with its unit, outputs check
clean against the oracles, and a corrupted dot product is caught.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("dpjoin_bench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SMALL = {
    "join-skewed-radix": {
        "data": {"kind": "skewed", "n": 300, "d": 20000, "nnz": 6, "s": 1.0},
        "page_size": 64, "budget": "10%", "upage": 128,
    },
    "train-lmf-sgd": {
        "data": {"kind": "matrix", "rows": 20, "cols": 20, "cells": 80, "rank": 4},
        "page_size": 16, "iterations": 2,
    },
}


@pytest.fixture
def fast(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "MIN_REPEATS", 2)


def small(name):
    return {**bench.WORKLOADS[name], **SMALL[name], "name": name}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_declared_metric_is_emitted_with_its_unit(fast, tmp_path, name, trace):
    line, report = bench.measure(small(name), seed=1, seconds=0, trace=trace, workdir=tmp_path)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {metric: entry["unit"] for metric, entry in line["metrics"].items()}
    assert emitted == {d["name"]: d["unit"] for d in declared}
    assert line["correct"], report["problems"]
    assert line["attempted"] > 0 and line["failed"] == 0 and report["wrong_frac"] == 0
    if trace:
        assert line["metrics"]["model_store.reads"]["value"] == report["counters"]["page_misses"]


def test_a_corrupted_dot_product_makes_wrong_frac_positive(fast, tmp_path, monkeypatch):
    real_run_child = bench.run_child

    def corrupting_run_child(job):
        result = real_run_child(job)
        with np.load(job["outputs"]) as outputs:
            tids, dps = outputs["tids"], outputs["dps"].copy()
        dps[0] = np.nextafter(dps[0], np.inf)
        np.savez(job["outputs"], tids=tids, dps=dps)
        return result

    monkeypatch.setattr(bench, "run_child", corrupting_run_child)
    line, report = bench.measure(small("join-skewed-radix"), seed=1, seconds=0, trace=0, workdir=tmp_path)
    assert not line["correct"]
    assert line["failed"] == 2 and report["wrong_frac"] > 0


def test_checks_count_missing_and_extra_outputs():
    dpjoin = bench.import_library()
    oracle = [dpjoin.DotProductResult(tid, tid / 7.0) for tid in range(10)]
    tids = np.arange(10)
    dps = tids / 7.0
    assert bench.check_join(tids, dps, oracle) == (0, 10)
    assert bench.check_join(tids[1:], dps[1:], oracle) == (1, 10)
    assert bench.check_join(np.append(tids, 3), np.append(dps, dps[3]), oracle) == (1, 11)
    assert bench.check_losses([1.0, 0.5], [1.0, 0.5]) == (0, 2)
    assert bench.check_losses([1.0, 0.5000000001], [1.0, 0.5]) == (1, 2)
