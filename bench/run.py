"""dpjoin benchmark: end-to-end and per-layer metrics for fixed workloads.

    python3 bench/run.py --workload join-skewed-radix --seed 0 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. Each workload is generated from `--seed` (dataset and
model initialisation), written to files under `bench/out/`, and handed to the
library only as those files. Every repeat runs in a fresh child process
(`worker.py`) against a newly created model file, one after another: one
closed-loop caller, single-threaded. Repeats continue until `--seconds` have
passed. Outputs are checked bit for bit against the in-memory oracles after
each repeat has ended, so the checks are neither timed nor counted in the
memory figure.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced repeats and reports the per-layer self times and counts of the
traced repeat with the median wall time, plus the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUP_REPEATS = 3
MIN_REPEATS = 3  # at least two of a kind, for the determinism check; +1 when tracing
CHILD_TIMEOUT_S = 120

# Why each workload is here: see README.md beside this file.
WORKLOADS = {
    "join-skewed-radix": {
        "task": "join", "data": {"kind": "skewed", "n": 32768, "d": 1_000_000, "nnz": 12, "s": 1.0},
        # 32 pages (1.6%): a 1% budget (20 pages) is smaller than the page set
        # of some vectors on some seeds, and the join then refuses to run.
        "page_size": 512, "budget": "32", "reorder": "radix", "upage": 4096, "init": "uniform",
    },
    "join-skewed-lsh-fit": {
        "task": "join", "data": {"kind": "skewed", "n": 32768, "d": 1_000_000, "nnz": 12, "s": 1.0},
        "page_size": 512, "budget": "100%", "reorder": "lsh", "upage": 4096, "init": "uniform",
    },
    "train-lmf-sgd": {
        "task": "lmf", "data": {"kind": "matrix", "rows": 200, "cols": 200, "cells": 4000, "rank": 8},
        "page_size": 64, "budget": "25%", "reorder": "none", "upage": 4096, "init": "uniform",
        "mode": "sgd", "alpha": 0.05, "iterations": 10,
    },
    "train-lr-sgdpage": {
        "task": "lr", "data": {"kind": "skewed", "n": 8192, "d": 10_000_000, "nnz": 12, "s": 1.0},
        "page_size": 512, "budget": "1%", "reorder": "radix", "upage": 4096, "init": "zeros",
        "mode": "sgd-page", "alpha": 0.01, "iterations": 2,
    },
}

# name -> unit, in the order of BENCHMARK.json.
END_TO_END = {
    "vec_per_s": "vectors/s",
    "first_result_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "page_misses": "count",
    "page_requests": "count",
    "page_io": "count",
    "final_loss": "loss",
}

# Span name -> the per-layer metric its self time is added to.
SPAN_LAYER = {
    "bench.workload": "bench.self_s",
    "load_dataset": "sparse_data.load_s",
    "page_request_set": "sparse_data.page_sets_s",
    "reorder": "reorder.s",
    "greedy_batches": "batcher.s",
    "make_batches": "batcher.s",
    "dot_product": "operator.dot_s",
    "run": "operator.self_s",
    "lmf_cell_gradient": "training.gradient_s",
    "lr_scale": "training.gradient_s",
    "train": "training.self_s",
    "BufferManager.request_set": "buffer_manager.request_s",
    "BufferManager.unpin_set": "buffer_manager.unpin_s",
    "BufferManager.flush_all": "buffer_manager.flush_s",
    "ModelStore.read_page": "model_store.read_s",
    "ModelStore.write_page": "model_store.write_s",
}
OTHER_METHOD_LAYER = {"BufferManager": "buffer_manager.other_s", "ModelStore": "model_store.other_s"}
# Span name -> the per-layer metric counting its calls.
SPAN_COUNT = {
    "page_request_set": "sparse_data.page_sets_calls",
    "reorder": "reorder.calls",
    "dot_product": "operator.dot_calls",
    "lmf_cell_gradient": "training.gradient_calls",
    "lr_scale": "training.gradient_calls",
    "BufferManager.request_set": "buffer_manager.request_calls",
    "ModelStore.read_page": "model_store.reads",
    "ModelStore.write_page": "model_store.writes",
}

# name -> unit, in the order of BENCHMARK.json.
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
    "bench.self_s": "s",
    "sparse_data.load_s": "s",
    "sparse_data.page_sets_s": "s",
    "sparse_data.page_sets_calls": "count",
    "reorder.s": "s",
    "reorder.calls": "count",
    "reorder.objective": "pages",
    "batcher.s": "s",
    "batcher.batches": "count",
    "batcher.vectors_per_batch": "vectors/batch",
    "buffer_manager.request_s": "s",
    "buffer_manager.unpin_s": "s",
    "buffer_manager.flush_s": "s",
    "buffer_manager.other_s": "s",
    "buffer_manager.request_calls": "count",
    "buffer_manager.requests": "count",
    "buffer_manager.hit_ratio": "fraction",
    "model_store.read_s": "s",
    "model_store.reads": "count",
    "model_store.read_mib": "MiB",
    "model_store.write_s": "s",
    "model_store.writes": "count",
    "model_store.other_s": "s",
    "operator.dot_s": "s",
    "operator.dot_calls": "count",
    "operator.self_s": "s",
    "training.gradient_s": "s",
    "training.gradient_calls": "count",
    "training.self_s": "s",
}
SELF_TIME_METRICS = sorted(set(SPAN_LAYER.values()) | set(OTHER_METHOD_LAYER.values()))

ENVIRONMENT_NOTE = (
    "Model pages are served from the OS page cache: the benchmark neither drops "
    "caches nor pins CPUs (both need privileges), so model_store.read_s is "
    "page-cache latency, not device latency, and no cold-I/O figure is reported."
)


class BenchError(Exception):
    """The benchmark cannot run here (missing library, failed child)."""


# -- set-up ----------------------------------------------------------------------


def import_library():
    if not (SRC / "dpjoin" / "__init__.py").is_file():
        raise BenchError(f"no dpjoin sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dpjoin
    return dpjoin


def generate(data, seed):
    from dpjoin import datagen

    if data["kind"] == "matrix":
        return datagen.gen_matrix(data["rows"], data["cols"], data["cells"], data["rank"], seed=seed)
    return datagen.gen_skewed(data["n"], data["d"], data["nnz"], s=data["s"], seed=seed)


def create_model(dpjoin, spec, dimension, seed, path):
    init = ("uniform", 0.0, 0.1) if spec["init"] == "uniform" else spec["init"]
    dpjoin.ModelStore.create(path, dimension, spec["page_size"], init=init, seed=seed).close()


def set_up(dpjoin, spec, seed, workdir, times):
    """Generate the dataset, write it, create a model file; `times` setups,
    each timed. Returns the dataset, its file and the per-setup seconds."""
    data_path = workdir / "data.bin"
    seconds = []
    for _ in range(times):
        started = time.perf_counter()
        dataset = generate(spec["data"], seed)
        dpjoin.store_dataset(dataset, data_path)
        create_model(dpjoin, spec, dataset.dimension, seed, workdir / "model.bin")
        seconds.append(time.perf_counter() - started)
    return dataset, data_path, seconds


# -- correctness --------------------------------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def count_wrong(got, expected):
    """(wrong, checked) for two sequences of hashable outputs, compared as
    multisets: an output missing, extra or different in any bit is wrong."""
    matched = sum((Counter(got) & Counter(expected)).values())
    checked = max(len(got), len(expected))
    return checked - matched, checked


def check_join(tids, dps, oracle):
    """(wrong, checked): the dot products by tid against oracle_dot_products."""
    got = list(zip([int(t) for t in tids], _bits(dps)))
    expected = list(zip([r.tid for r in oracle], _bits([r.dp for r in oracle])))
    return count_wrong(got, expected)


def check_losses(losses, oracle_losses):
    """(wrong, checked): per-iteration losses, position by position."""
    return count_wrong(list(enumerate(_bits(losses))), list(enumerate(_bits(oracle_losses))))


class Oracle:
    """In-memory reference outputs for one workload, computed once."""

    def __init__(self, dpjoin, spec, dataset, budget, seed, model_path):
        with dpjoin.ModelStore.open(model_path) as store:
            dense = store.load_dense()
        self.labels = {v.tid: v.label for v in dataset}
        if spec["task"] == "join":
            self.results = dpjoin.oracle_dot_products(dataset, dense)
        else:
            if str(BENCH) not in sys.path:
                sys.path.insert(0, str(BENCH))
            from worker import make_config

            config = make_config(spec, budget, seed)
            self.losses = dpjoin.train_oracle(dataset, dense, config, spec["page_size"]).losses


def join_loss(tids, dps, labels):
    """Logistic loss of the returned dot products against the labels."""
    y = np.array([labels[int(t)] for t in tids], dtype=np.float64)
    return float(np.sum(np.logaddexp(0.0, -y * np.asarray(dps))))


# -- repeats -------------------------------------------------------------------------


def run_child(job):
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker killed after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def analyse_spans(path):
    """Per-layer self times and call counts of one traced repeat."""
    with np.load(path) as spans:
        names = [str(n) for n in spans["names"]]
        name_id, parent = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_time = np.bincount(name_id, weights=duration - child_time, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    metrics = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    metrics.update(dict.fromkeys(set(SPAN_COUNT.values()), 0))
    for i, name in enumerate(names):
        layer = SPAN_LAYER.get(name) or OTHER_METHOD_LAYER[name.split(".")[0]]
        metrics[layer] += float(self_time[i])
        if name in SPAN_COUNT:
            metrics[SPAN_COUNT[name]] += int(calls[i])
    roots = np.flatnonzero(~nested)
    if len(roots) != 1:
        raise BenchError(f"{path}: expected one root span, found {len(roots)}")
    metrics["trace.wall_s"] = float(duration[roots[0]])
    metrics["trace.spans"] = len(duration)
    return metrics


def measure(spec, seed, seconds, trace, workdir):
    """Run one workload; return (result line dict, report dict)."""
    dpjoin = import_library()
    from dpjoin.cli import parse_budget

    dataset, data_path, setup_seconds = set_up(dpjoin, spec, seed, workdir, 1 if trace else SETUP_REPEATS)
    num_pages = -(-dataset.dimension // spec["page_size"])
    budget = parse_budget(spec["budget"], num_pages)
    oracle = Oracle(dpjoin, spec, dataset, budget, seed, workdir / "model.bin")

    repeats = []
    attempted = failed = 0
    started = time.perf_counter()
    longest = 0.0
    index = 0
    # Stop before a repeat that would end past `seconds`, so runs last alike.
    while index < MIN_REPEATS + trace or (
        time.perf_counter() + longest < started + seconds
    ):
        repeat_started = time.perf_counter()
        traced = bool(trace) and index % 2 == 1
        model_path = workdir / f"model-{index}.bin"
        create_model(dpjoin, spec, dataset.dimension, seed, model_path)
        job = {
            "spec": spec, "seed": seed, "budget": budget, "trace": traced,
            "data": str(data_path), "model": str(model_path),
            "outputs": str(workdir / f"outputs-{index}.npz"),
            "spans": str(workdir / f"spans-{index}.npz"),
        }
        result = run_child(job)
        os.remove(model_path)
        result["traced"] = traced
        if spec["task"] == "join":
            with np.load(job["outputs"]) as outputs:
                tids, dps = outputs["tids"], outputs["dps"]
            wrong, checked = check_join(tids, dps, oracle.results)
            result["final_loss"] = join_loss(tids, dps, oracle.labels)
            os.remove(job["outputs"])
        else:
            losses = result.pop("losses")
            wrong, checked = check_losses(losses, oracle.losses)
            result["final_loss"] = losses[-1]
        if traced:
            result["layers"] = analyse_spans(job["spans"])
            result["spans_file"] = job["spans"]
        attempted += checked
        failed += wrong
        repeats.append(result)
        longest = max(longest, time.perf_counter() - repeat_started)
        index += 1

    problems = determinism_problems(repeats)
    if spec["task"] == "join" and repeats[0]["counters"]["write_backs"] != 0:
        problems.append(f"a join wrote back {repeats[0]['counters']['write_backs']} pages")
    plain = [r for r in repeats if not r["traced"]]
    if trace:
        metrics = layer_metrics(spec, repeats, plain, problems)
    else:
        metrics = end_to_end_metrics(plain, setup_seconds)
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if trace else END_TO_END).items()},
    }
    report = {
        "environment": environment(),
        "budget_pages": budget,
        "model_pages": num_pages,
        "wrong_frac": failed / attempted,
        "problems": problems,
        "counters": repeats[0]["counters"],
        "setup_s": setup_seconds,
        "repeats": [{k: v for k, v in r.items() if k not in ("counters", "layers")} for r in repeats],
    }
    if trace:
        report["spans_file"] = median_traced(repeats)["spans_file"]
    return line, report


def determinism_problems(repeats):
    problems = []
    for key in ("counters", "trace_counts"):
        seen = [r[key] for r in repeats if key in r]
        if any(c != seen[0] for c in seen):
            problems.append(f"{key} differ between repeats: {seen}")
    for r in repeats:
        if "layers" in r:
            for name in ("model_store.reads", "model_store.writes"):
                if r["layers"][name] != r["counters"][name]:
                    problems.append(f"traced {name} {r['layers'][name]} != store {r['counters'][name]}")
    return problems


def visits_per_second(repeats):
    """Throughput over all the repeats' timed regions together. The mean
    over the run is steadier than a median: this VM's speed changes in
    phases of tens of seconds, and a median jumps with the phase."""
    return sum(r["visits"] for r in repeats) / sum(r["wall_s"] for r in repeats)


def end_to_end_metrics(plain, setup_seconds):
    first = plain[0]
    counters = first["counters"]
    return {
        "vec_per_s": visits_per_second(plain),
        "first_result_s": statistics.fmean(r["first_result_s"] for r in plain),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "page_misses": counters["page_misses"],
        "page_requests": counters["page_requests"],
        "page_io": counters["page_misses"] + counters["write_backs"],
        "final_loss": first["final_loss"],
    }


def median_traced(repeats):
    traced = sorted((r for r in repeats if r["traced"]), key=lambda r: r["layers"]["trace.wall_s"])
    return traced[len(traced) // 2]


def layer_metrics(spec, repeats, plain, problems):
    chosen = median_traced(repeats)
    traced = [r for r in repeats if r["traced"]]
    metrics = dict(chosen["layers"])
    attributed = sum(metrics[name] for name in SELF_TIME_METRICS)
    if not math.isclose(attributed, metrics["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"self times add up to {attributed}, not the traced wall {metrics['trace.wall_s']}")
    counters = chosen["counters"]
    counts = chosen["trace_counts"]
    batches = counts["batcher.batches"]
    metrics.update({
        "trace.overhead_frac": 1.0 - visits_per_second(traced) / visits_per_second(plain),
        "reorder.objective": counts["reorder.objective"],
        "batcher.batches": batches,
        "batcher.vectors_per_batch": counts["batcher.vectors"] / batches if batches else 0.0,
        "buffer_manager.requests": counters["page_requests"],
        "buffer_manager.hit_ratio": 1.0 - counters["page_misses"] / counters["page_requests"],
        "model_store.read_mib": metrics["model_store.reads"] * spec["page_size"] * 8 / 2**20,
    })
    return metrics


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load": "closed loop: one caller, one workload repeat at a time, each in a fresh process",
        "note": ENVIRONMENT_NOTE,
    }


# -- command line ----------------------------------------------------------------------


def print_report(name, seed, trace, line, report):
    print(f"workload {name}  seed {seed}  trace {trace}")
    for metric, entry in line["metrics"].items():
        print(f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'wrong_frac':32s} {report['wrong_frac']:>16.6g} fraction"
          f"  ({line['failed']} of {line['attempted']} outputs)")
    print(f"  {'write_backs':32s} {report['counters']['write_backs']:>16d} count")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({"report": report}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = dict(WORKLOADS[args.workload], name=args.workload)
    try:
        import_library()
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        try:
            line, report = measure(spec, args.seed, args.seconds, args.trace, workdir)
            if args.trace:
                # The median traced repeat's spans outlive the run.
                kept = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
                os.replace(report["spans_file"], kept)
                report["spans_file"] = str(kept.relative_to(ROOT))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_report(args.workload, args.seed, args.trace, line, report)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
