"""One timed repeat of one benchmark workload, in a process of its own.

    python3 bench/worker.py '<job as JSON>'

The job names the dataset file, a freshly created model file, the workload
spec and whether to trace. The timed region runs from `load_dataset` until
`run`/`train` has returned and the store is closed. The process runs
nothing else, so its peak resident memory is the workload's. The outputs
(dot products or per-iteration losses) are written next to the model file
for the parent to check; one JSON line with the measurements goes to stdout.

With tracing on, the public functions of each layer and the methods of
`BufferManager` and `ModelStore` are wrapped from here, in every module that
looks them up, and each call records a span (name, start, end, parent) in
memory. The spans are saved when the repeat ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dpjoin  # noqa: E402

# The package re-exports functions under some module names (dpjoin.reorder
# is the function), so the modules are taken from the import system.
sparse_data, reorder, batcher, operator, training = (
    importlib.import_module(f"dpjoin.{name}")
    for name in ("sparse_data", "reorder", "batcher", "operator", "training")
)

# (defining module, function name) of every traced module-level function.
TRACED_FUNCTIONS = (
    (sparse_data, "load_dataset"),
    (sparse_data, "page_request_set"),
    (reorder, "reorder"),
    (batcher, "greedy_batches"),
    (operator, "make_batches"),
    (operator, "dot_product"),
    (operator, "run"),
    (training, "lmf_cell_gradient"),
    (training, "lr_scale"),
    (training, "train"),
)
TRACED_CLASSES = (dpjoin.BufferManager, dpjoin.ModelStore)
# Modules whose globals may hold a traced name, through `from .x import y`.
LOOKUP_MODULES = (dpjoin, sparse_data, reorder, batcher, operator, training)
ROOT_SPAN = "bench.workload"


class Tracer:
    """Spans kept in memory as [name_id, start, end, parent_index]."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.kept = {}  # name -> payloads returned by a keep() hook
        self._stack = []

    def wrap(self, name, fn, keep=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.kept.setdefault(name, []) if keep else None

        def traced(*args, **kwargs):
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if kept is not None:
                kept.append(keep(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every traced callable; returns the undo list for uninstall."""
        undo = []
        keeps = {
            "reorder": lambda args, kwargs, perm: (args[1], perm),
            "make_batches": lambda args, kwargs, batches: batches,
        }
        for module, name in TRACED_FUNCTIONS:
            original = getattr(module, name)
            wrapper = self.wrap(name, original, keeps.get(name))
            for lookup in LOOKUP_MODULES:
                if getattr(lookup, name, None) is original:
                    undo.append((lookup, name, original))
                    setattr(lookup, name, wrapper)
        for cls in TRACED_CLASSES:
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                qualified = f"{cls.__name__}.{attr}"
                if isinstance(value, types.FunctionType):
                    wrapper = self.wrap(qualified, value)
                elif isinstance(value, classmethod):
                    wrapper = classmethod(self.wrap(qualified, value.__func__))
                else:
                    continue
                undo.append((cls, attr, value))
                setattr(cls, attr, wrapper)
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    def save(self, path):
        table = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=table[:, 0].astype(np.int32),
            start=table[:, 1],
            end=table[:, 2],
            parent=table[:, 3].astype(np.int64),
        )


class ResultSink:
    """Keeps (tid, dp) pairs in preallocated arrays; notes the first arrival."""

    def __init__(self, n):
        self.tids = np.empty(n, dtype=np.int64)
        self.dps = np.empty(n, dtype=np.float64)
        self.count = 0
        self.first_at = None

    def __call__(self, result):
        if self.first_at is None:
            self.first_at = time.perf_counter()
        self.tids[self.count] = result.tid
        self.dps[self.count] = result.dp
        self.count += 1


class FirstCall:
    """Notes when module.name is first called, then restores it at once."""

    def __init__(self, module, name):
        self.module, self.name = module, name
        self.original = getattr(module, name)
        self.at = None

        def once(*args, **kwargs):
            self.at = time.perf_counter()
            setattr(module, name, self.original)
            return self.original(*args, **kwargs)

        setattr(module, name, once)

    def restore(self):
        setattr(self.module, self.name, self.original)


def peak_rss_kib():
    """This process's resident high-water mark since exec. ru_maxrss would
    also count the parent's pages at the time of the fork."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def make_config(spec, budget, seed):
    """The OperatorConfig of a join workload, the TrainConfig of a training one."""
    config = dpjoin.OperatorConfig(
        budget=budget, reorder=spec["reorder"], upage=spec["upage"], seed=seed,
    )
    if spec["task"] == "join":
        return config
    return dpjoin.TrainConfig(
        config, task=spec["task"], mode=spec["mode"], alpha=spec["alpha"],
        iterations=spec["iterations"],
    )


def run_job(job):
    spec = job["spec"]
    config = make_config(spec, job["budget"], job["seed"])
    tracer = Tracer() if job["trace"] else None
    undo = tracer.install() if tracer else []
    # The first per-iteration loss exists when train() asks for the first
    # iteration's plan: that is a training workload's first result.
    first_loss = FirstCall(training, "iteration_plan") if spec["task"] != "join" else None
    state = {}

    def workload():
        dataset = dpjoin.load_dataset(job["data"])
        store = dpjoin.ModelStore.open(job["model"])
        try:
            if spec["task"] == "join":
                state["sink"] = ResultSink(len(dataset))
                state["report"] = dpjoin.run(dataset, store, config, sink=state["sink"])
            else:
                state["train"] = dpjoin.train(dataset, store, config)
                state["report"] = state["train"].metrics
        finally:
            store.close()
        state["n"] = len(dataset)
        state["store"] = store

    timed = tracer.wrap(ROOT_SPAN, workload) if tracer else workload
    started = time.perf_counter()
    try:
        timed()
    finally:
        ended = time.perf_counter()
        if first_loss is not None:
            first_loss.restore()
        Tracer.uninstall(undo)
    peak_rss_mib = peak_rss_kib() / 1024.0

    report, store = state["report"], state["store"]
    out = {
        "wall_s": ended - started,
        "peak_rss_mib": peak_rss_mib,
        "counters": {
            "page_requests": report.page_requests,
            "page_misses": report.page_misses,
            "write_backs": report.write_backs,
            "element_requests": report.element_requests,
            "distinct_pages": report.distinct_pages,
            "operator.batch_count": report.batch_count,
            "model_store.reads": store.reads,
            "model_store.writes": store.writes,
        },
    }
    n = state["n"]
    if spec["task"] == "join":
        sink = state["sink"]
        out["visits"] = sink.count
        out["first_result_s"] = sink.first_at - started
        np.savez(job["outputs"], tids=sink.tids[: sink.count], dps=sink.dps[: sink.count])
    else:
        result = state["train"]
        # Each completed iteration is one update pass and one loss pass,
        # after the initial loss pass.
        out["visits"] = n * (2 * (len(result.losses) - 1) + 1)
        out["first_result_s"] = first_loss.at - started
        out["losses"] = result.losses
    if tracer:
        tracer.save(job["spans"])
        batches = [b for found in tracer.kept["make_batches"] for b in found]
        out["trace_counts"] = {
            "batcher.batches": len(batches),
            "batcher.vectors": sum(len(b.positions) for b in batches),
            "reorder.objective": sum(
                dpjoin.objective(perm, sets) for sets, perm in tracer.kept["reorder"]
            ),
        }
    return out


def main(argv):
    print(json.dumps(run_job(json.loads(argv[1]))))


if __name__ == "__main__":
    main(sys.argv)
