"""Command-line interface.

Subcommands: gen, run, train, sweep (the join over every combination of
its --plan, --reorder, --budget and --upage values). `run`, `train` and
each `sweep` cell make the library's one input check (`check_inputs`: the
dataset against the model's dimension, every option and every vector's
pages against the budget) before a model file is created or a page read
(an existing model's header gives its dimension and page size), so a
rejected input writes no file.
Exit codes: 0 success, 2 validation failure, 3 precondition failure
(running out of memory too), 4 storage/I-O failure. --seed defaults to 0.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from . import datagen
from .errors import PreconditionError, StoreError, ValidationError
from .metrics import emit_report
from .model_store import ModelStore, page_count
from .operator import PLANS, OperatorConfig, check_inputs, run
from .reorder import HEURISTICS, MAX_LSH_HASHES
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


def _operator_config(args, shape, reorder, budget, upage):
    """The OperatorConfig of `reorder`, `budget` (text, of a model of
    `shape`), `upage` and the other flags."""
    return OperatorConfig(
        budget=parse_budget(budget, page_count(*shape)),
        reorder=reorder,
        upage=upage,
        seed=args.seed,
        lsh_m=args.lsh_hashes,
        lsh_b=args.lsh_bands,
        kcenter_k=args.kcenter_k,
    )


def _add_operator_flags(parser, grid=False, plan=True):
    """The operator's flags, --plan only with `plan` (training gathers every
    U-page); with `grid`, --budget, --plan, --reorder and --upage each take
    one or more values."""
    def values(default):
        return {"nargs": "+", "default": [default]} if grid else {"default": default}

    parser.add_argument("--budget", **values("20%"),
                        help="memory budget: pages or %% of model pages (default 20%%)")
    parser.add_argument("--reorder", choices=HEURISTICS, **values("none"),
                        help="orders the batched and single joins and sgd's updates only")
    if plan:
        # Checked by check_inputs, so an unknown plan exits 2 from main.
        parser.add_argument("--plan", **values("gather"),
                            help=f"one of {', '.join(PLANS)}: the sort-merge gather (default),"
                                 " the paper's batched operator, or one vector per batch")
    parser.add_argument("--upage", type=int, **values(OperatorConfig.upage),
                        help=f"vectors per reorder scope (default {OperatorConfig.upage})")
    parser.add_argument("--lsh-hashes", type=int, default=OperatorConfig.lsh_m,
                        help=f"minwise hashes for lsh, at most {MAX_LSH_HASHES}"
                             f" (default {OperatorConfig.lsh_m})")
    parser.add_argument("--lsh-bands", type=int, default=OperatorConfig.lsh_b)
    parser.add_argument("--kcenter-k", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _load_data(args):
    return load_dataset(args.data, fmt=args.data_format)


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args):
    if args.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {args.seed}")
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


def _model_shape(args, dataset):
    """Dimension and page size of the model at `args.model`: its header's,
    or, for a model still to be created, the dataset's and --page-size."""
    if os.path.exists(args.model):
        with ModelStore.open(args.model) as store:
            return store.dimension, store.page_size
    return dataset.dimension, args.page_size


def _open_or_create_model(args, dataset):
    if os.path.exists(args.model):
        return ModelStore.open(args.model)
    init = "zeros" if args.model_init == "zeros" else ("uniform", args.init_low, args.init_high)
    return ModelStore.create(args.model, dataset.dimension, args.page_size,
                             init=init, seed=args.seed)


def cmd_run(args):
    dataset = _load_data(args)
    shape = _model_shape(args, dataset)
    config = _operator_config(args, shape, args.reorder, args.budget, args.upage)
    check_inputs(dataset, *shape, config, args.plan)
    results = []
    with _open_or_create_model(args, dataset) as store:
        report = run(dataset, store, config, results.append, args.plan)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("tid,dp\n")
            for result in results:
                fh.write(f"{result.tid},{result.dp!r}\n")
    _emit(report.to_dict(), args)
    return 0


def cmd_train(args):
    dataset = _load_data(args)
    shape = _model_shape(args, dataset)
    config = TrainConfig(
        operator=_operator_config(args, shape, args.reorder, args.budget, args.upage),
        task=args.task,
        mode=args.mode,
        alpha=args.alpha,
        iterations=args.iterations,
        shuffle_upages=not args.no_shuffle,
    )
    check_inputs(dataset, *shape, config)
    with _open_or_create_model(args, dataset) as store:
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


def cmd_sweep(args):
    dataset = _load_data(args)
    shape = _model_shape(args, dataset)
    cells = [(plan, budget, _operator_config(args, shape, reorder, budget, upage))
             for plan, reorder, budget, upage in
             itertools.product(args.plan, args.reorder, args.budget, args.upage)]
    for plan, _, config in cells:
        check_inputs(dataset, *shape, config, plan)
    rows = []
    with _open_or_create_model(args, dataset) as store:
        for plan, budget, config in cells:
            report = run(dataset, store, config, plan=plan)
            rows.append({"heuristic": config.reorder, "budget": budget,
                         "budget_pages": config.budget, "upage": config.upage, "plan": plan,
                         **report.counters(), "reorder_time": report.reorder_time})
    _emit(rows, args)
    return 0


def _emit(payload, args):
    text = emit_report(payload, args.metrics_out, args.format)
    if args.metrics_out is None:
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
    _add_operator_flags(trainp, plan=False)
    trainp.set_defaults(func=cmd_train)

    sweep = sub.add_parser("sweep", help="counters of the join over a grid of plans,"
                                         " heuristics, budgets and U-page sizes")
    add_io_flags(sweep)
    _add_operator_flags(sweep, grid=True)
    sweep.set_defaults(func=cmd_sweep)

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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
