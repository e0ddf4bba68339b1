"""Command-line interface.

Subcommands: gen, run, train, bench-reorder, sweep-budget, fixture.
Exit codes: 0 success, 2 validation failure, 3 precondition failure,
4 storage/I-O failure. --seed defaults to 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from . import datagen
from .errors import PreconditionError, StoreError, ValidationError
from .metrics import emit_report
from .model_store import ModelStore
from .operator import CollectSink, OperatorConfig, run
from .reorder import HEURISTICS
from .sparse_data import load_dataset, store_dataset
from .training import TrainConfig, train

DEFAULT_PAGE_SIZE = 1024  # model entries per page


def parse_budget(text, num_pages):
    """Absolute page count ("128") or a percentage of the model pages ("20%")."""
    text = str(text).strip()
    if text.endswith("%"):
        try:
            pct = float(text[:-1])
        except ValueError:
            raise ValidationError(f"bad budget {text!r}")
        pages = num_pages * pct / 100.0
        if not math.isfinite(pages) or pct <= 0:
            raise ValidationError(
                f"budget percentage must be > 0 and give a finite page count, got {text!r}"
            )
        return max(1, math.ceil(pages))
    try:
        pages = int(text)
    except ValueError:
        raise ValidationError(f"bad budget {text!r}")
    if pages < 1:
        raise ValidationError(f"budget must be >= 1 page, got {pages}")
    return pages


def _operator_config(args, num_pages):
    return OperatorConfig(
        budget=parse_budget(args.budget, num_pages),
        reorder=args.reorder,
        batching=not args.no_batching,
        upage=args.upage,
        seed=args.seed,
        lsh_m=args.lsh_hashes,
        lsh_b=args.lsh_bands,
        kcenter_k=args.kcenter_k,
    )


def _add_operator_flags(parser):
    parser.add_argument("--budget", default="20%",
                        help="memory budget: pages or %% of model pages (default 20%%)")
    parser.add_argument("--reorder", choices=HEURISTICS, default="none")
    parser.add_argument("--no-batching", action="store_true")
    parser.add_argument("--upage", type=int, default=4096,
                        help="vectors per reorder scope (default 4096)")
    parser.add_argument("--lsh-hashes", type=int, default=16)
    parser.add_argument("--lsh-bands", type=int, default=4)
    parser.add_argument("--kcenter-k", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _load_data(args):
    return load_dataset(args.data, fmt=args.data_format)


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args):
    if args.kind == "uniform":
        dataset = datagen.gen_uniform(args.n, args.d, args.nnz, seed=args.seed)
    elif args.kind == "skewed":
        dataset = datagen.gen_skewed(args.n, args.d, args.nnz, s=args.zipf_s, seed=args.seed)
    elif args.kind == "matrix":
        dataset = datagen.gen_matrix(args.rows, args.cols, args.cells, args.rank,
                                     seed=args.seed)
    else:
        dataset = datagen.gen_demo()
    store_dataset(dataset, args.out, fmt=args.data_format)
    print(f"wrote {len(dataset)} vectors, dimension {dataset.dimension}, to {args.out}")
    return 0


def _open_or_create_model(args, dataset):
    if os.path.exists(args.model):
        return ModelStore.open(args.model)
    init = "zeros" if args.model_init == "zeros" else ("uniform", args.init_low, args.init_high)
    return ModelStore.create(args.model, dataset.dimension, args.page_size,
                             init=init, seed=args.seed)


def cmd_run(args):
    dataset = _load_data(args)
    with _open_or_create_model(args, dataset) as store:
        config = _operator_config(args, store.num_pages)
        sink = CollectSink()
        report = run(dataset, store, config, sink)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("tid,dp\n")
            for result in sink.results:
                fh.write(f"{result.tid},{result.dp!r}\n")
    _emit(report.to_dict(), args)
    return 0


def cmd_train(args):
    dataset = _load_data(args)
    with _open_or_create_model(args, dataset) as store:
        operator_config = _operator_config(args, store.num_pages)
        config = TrainConfig(
            operator=operator_config,
            task=args.task,
            mode=args.mode,
            alpha=args.alpha,
            iterations=args.iterations,
            shuffle_upages=not args.no_shuffle,
        )
        report = train(dataset, store, config)
    if args.loss_out:
        with open(args.loss_out, "w") as fh:
            fh.write("iteration,loss\n")
            for iteration, loss in enumerate(report.losses):
                fh.write(f"{iteration},{loss!r}\n")
    payload = report.metrics.to_dict()
    payload["losses"] = report.losses
    payload["diverged"] = report.diverged
    _emit(payload, args)
    if report.diverged:
        print("warning: training diverged (non-finite loss); stopped early",
              file=sys.stderr)
    return 0


def cmd_bench_reorder(args):
    dataset = _load_data(args)
    rows = []
    with _open_or_create_model(args, dataset) as store:
        for upage in args.upages:
            baseline = None
            for heuristic in args.heuristics:
                config = _operator_config(args, store.num_pages)
                config.reorder = heuristic
                config.upage = upage
                config.batching = False  # isolate the ordering effect
                report = run(dataset, store, config)
                if heuristic == "none":
                    baseline = report.page_misses
                improvement = (
                    100.0 * (baseline - report.page_misses) / baseline
                    if baseline else 0.0
                )
                rows.append({
                    "heuristic": heuristic,
                    "upage": upage,
                    "page_misses": report.page_misses,
                    "page_requests": report.page_requests,
                    "reorder_time": report.reorder_time,
                    "miss_improvement_pct": round(improvement, 3),
                })
    _emit({"bench": rows}, args)
    return 0


def cmd_sweep_budget(args):
    dataset = _load_data(args)
    rows = []
    with _open_or_create_model(args, dataset) as store:
        previous = None
        monotone = True
        for budget_text in args.budgets:
            budget = parse_budget(budget_text, store.num_pages)
            config = _operator_config(args, store.num_pages)
            config.budget = budget
            report = run(dataset, store, config)
            rows.append({
                "budget": budget_text,
                "budget_pages": budget,
                "page_misses": report.page_misses,
                "distinct_pages": report.distinct_pages,
            })
            if previous is not None and report.page_misses > previous:
                monotone = False
            previous = report.page_misses
    _emit({"sweep": rows, "monotone_misses": monotone}, args)
    return 0


def cmd_fixture(args):
    dataset = datagen.gen_demo()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demo.model")
        with ModelStore.create(path, datagen.DEMO_DIMENSION, datagen.DEMO_PAGE_SIZE) as store:
            plain = run(dataset, store, OperatorConfig(
                budget=2, reorder="none", batching=False, upage=len(dataset)))
            radix = run(dataset, store, OperatorConfig(
                budget=2, reorder="radix", batching=False, upage=len(dataset)))
            batched = run(dataset, store, OperatorConfig(
                budget=2, reorder="radix", batching=True, upage=len(dataset)))
    print("demo corpus: 8 vectors, dimension 6, page size 2, 3 model pages")
    print(f"element_requests            {plain.element_requests}")
    print(f"page_requests (grouped)     {plain.page_requests}")
    print(f"misses M=2 file order       {plain.page_misses}")
    print(f"misses M=2 radix order      {radix.page_misses}")
    print(f"batches (radix, M=2)        {batched.batch_count}")
    print(f"page_requests (batched)     {batched.page_requests}")
    if args.out:
        store_dataset(dataset, args.out, fmt=args.data_format)
        print(f"wrote demo corpus to {args.out}")
    return 0


def _emit(payload, args):
    fmt = getattr(args, "format", "json")
    path = getattr(args, "metrics_out", None)
    text = emit_report(payload, path, fmt)
    if path is None:
        print(text)


# -- parser ------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpjoin",
        description="Out-of-core dot-product join over a paged model vector",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--kind", choices=datagen.GENERATORS, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--data-format", choices=("bin", "txt"), default="bin")
    gen.add_argument("--n", type=int, default=1000, help="number of vectors")
    gen.add_argument("--d", type=int, default=10000, help="model dimension")
    gen.add_argument("--nnz", type=int, default=10,
                     help="non-zeros per vector (average for skewed)")
    gen.add_argument("--zipf-s", type=float, default=1.0)
    gen.add_argument("--rows", type=int, default=100)
    gen.add_argument("--cols", type=int, default=100)
    gen.add_argument("--cells", type=int, default=1000)
    gen.add_argument("--rank", type=int, default=8)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    def add_io_flags(p, model_init_default="zeros"):
        p.add_argument("--data", required=True)
        p.add_argument("--data-format", choices=("bin", "txt"), default="bin")
        p.add_argument("--model", required=True)
        p.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE,
                       help=f"entries per model page when creating (default {DEFAULT_PAGE_SIZE})")
        p.add_argument("--model-init", choices=("zeros", "uniform"),
                       default=model_init_default)
        p.add_argument("--init-low", type=float, default=0.0)
        p.add_argument("--init-high", type=float, default=0.1)
        p.add_argument("--metrics-out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    runp = sub.add_parser("run", help="compute all dot products")
    add_io_flags(runp)
    runp.add_argument("--out", default=None, help="results CSV (tid,dp)")
    _add_operator_flags(runp)
    runp.set_defaults(func=cmd_run)

    trainp = sub.add_parser("train", help="gradient descent through the operator")
    add_io_flags(trainp, model_init_default="uniform")
    trainp.add_argument("--task", choices=("lr", "lmf"), default="lr")
    trainp.add_argument("--mode", choices=("sgd", "sgd-page", "bgd"), default="sgd")
    trainp.add_argument("--alpha", type=float, default=0.1)
    trainp.add_argument("--iterations", type=int, default=10)
    trainp.add_argument("--no-shuffle", action="store_true",
                        help="keep the U-page visit order fixed across iterations")
    trainp.add_argument("--loss-out", default=None, help="loss CSV (iteration,loss)")
    _add_operator_flags(trainp)
    trainp.set_defaults(func=cmd_train)

    bench = sub.add_parser("bench-reorder", help="compare reorder heuristics")
    add_io_flags(bench)
    bench.add_argument("--heuristics", nargs="+", default=["none", "radix", "lsh"],
                       choices=HEURISTICS)
    bench.add_argument("--upages", nargs="+", type=int, default=[4096])
    _add_operator_flags(bench)
    bench.set_defaults(func=cmd_bench_reorder)

    sweep = sub.add_parser("sweep-budget", help="page misses across memory budgets")
    add_io_flags(sweep)
    sweep.add_argument("--budgets", nargs="+",
                       default=["10%", "20%", "40%", "60%", "100%"])
    _add_operator_flags(sweep)
    sweep.set_defaults(func=cmd_sweep_budget)

    fixture = sub.add_parser("fixture", help="print the demo corpus and its counters")
    fixture.add_argument("--out", default=None)
    fixture.add_argument("--data-format", choices=("bin", "txt"), default="bin")
    fixture.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
