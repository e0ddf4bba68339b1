import contextlib
import csv
import io
import json
import re
import shlex
import struct
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dpjoin import ModelStore, datagen, oracle_dot_products
from dpjoin.cli import build_parser, main, parse_budget
from dpjoin.operator import PLANS
from dpjoin.reorder import HEURISTICS
from dpjoin.sparse_data import load_dataset, store_dataset


def test_parse_budget():
    assert parse_budget("16", 100) == 16
    assert parse_budget("20%", 100) == 20
    assert parse_budget("1%", 30) == 1
    assert parse_budget("0.5%", 1000) == 5
    assert parse_budget("100%", 64) == 64


def test_parse_budget_rejects_garbage():
    from dpjoin import ValidationError
    for bad in ("x", "-3", "0", "-10%", "%"):
        with pytest.raises(ValidationError):
            parse_budget(bad, 100)


def test_gen_and_reload(tmp_path, capsys):
    out = str(tmp_path / "u.bin")
    assert main(["gen", "--kind", "uniform", "--out", out,
                 "--n", "40", "--d", "500", "--nnz", "6", "--seed", "3"]) == 0
    assert "wrote 40 vectors" in capsys.readouterr().out
    ds = load_dataset(out)
    assert len(ds) == 40
    assert ds.dimension == 500


def test_gen_matrix_text_format(tmp_path):
    out = str(tmp_path / "m.txt")
    assert main(["gen", "--kind", "matrix", "--out", out,
                 "--data-format", "txt", "--rows", "6", "--cols", "5",
                 "--cells", "20", "--rank", "3", "--seed", "1"]) == 0
    ds = load_dataset(out, fmt="txt")
    assert ds.matrix_shape == (6, 5, 3)


def test_run_results_match_oracle(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "50", "--d", "400", "--nnz", "5", "--seed", "7"])
    ds = load_dataset(data)
    for plan in PLANS:
        model = str(tmp_path / f"{plan}.model")
        results = str(tmp_path / f"{plan}.csv")
        capsys.readouterr()
        assert main(["run", "--data", data, "--model", model,
                     "--page-size", "32", "--model-init", "uniform",
                     "--seed", "7", "--budget", "50%", "--reorder", "radix",
                     "--plan", plan, "--out", results]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["plan"] == plan
        assert report["element_requests"] == 50 * 5
        assert report["page_misses"] <= report["page_requests"]

        with ModelStore.open(model) as store:
            dense = store.load_dense()
        expected = {r.tid: r.dp for r in oracle_dot_products(ds, dense)}
        with open(results) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        for row in rows:
            assert float(row["dp"]) == expected[int(row["tid"])], plan


def test_run_metrics_csv_to_file(tmp_path):
    data = str(tmp_path / "d.bin")
    model = str(tmp_path / "m.model")
    metrics = str(tmp_path / "metrics.csv")
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "20", "--d", "200", "--nnz", "4", "--seed", "2"])
    assert main(["run", "--data", data, "--model", model,
                 "--page-size", "16", "--budget", "50%",
                 "--metrics-out", metrics, "--format", "csv"]) == 0
    with open(metrics) as fh:
        rows = dict((r[0], r[1]) for r in csv.reader(fh) if r)
    assert rows["metric"] == "value"
    assert int(rows["element_requests"]) == 80


def test_exit_codes(tmp_path):
    data = str(tmp_path / "d.bin")
    model = str(tmp_path / "m.model")
    # missing dataset file: storage failure
    assert main(["run", "--data", str(tmp_path / "nope.bin"),
                 "--model", model]) == 4
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "10", "--d", "100", "--nnz", "8", "--seed", "5"])
    # budget above the page count: rejected input
    assert main(["run", "--data", data, "--model", model,
                 "--page-size", "10", "--budget", "99"]) == 2
    # malformed budget string
    assert main(["run", "--data", data, "--model", str(tmp_path / "m2.model"),
                 "--page-size", "10", "--budget", "horses"]) == 2
    # a vector spanning more pages than the budget allows
    assert main(["run", "--data", data, "--model", str(tmp_path / "m3.model"),
                 "--page-size", "2", "--budget", "2",
                 "--plan", "single"]) == 3


def test_run_writes_text_tids_exactly(tmp_path, capsys):
    data, out = tmp_path / "t.txt", tmp_path / "r.csv"
    data.write_text(f"# d=10\n{2**63} 1.0 1:2.0\n5 1.0 2:1.0\n")
    assert main(["run", "--data", str(data), "--data-format", "txt",
                 "--model", str(tmp_path / "m.model"), "--page-size", "2",
                 "--budget", "100%", "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == [
        "tid", str(2**63), "5"]


@pytest.mark.parametrize("tid", [2**64, -1])
def test_a_text_tid_outside_64_bits_exits_2(tmp_path, capsys, tid):
    data, model = tmp_path / "t.txt", tmp_path / "m.model"
    data.write_text(f"# d=10\n{tid} 1.0 1:2.0\n5 1.0 2:1.0\n")
    assert main(["run", "--data", str(data), "--data-format", "txt", "--model", str(model),
                 "--page-size", "2", "--budget", "100%"]) == 2
    err = capsys.readouterr().err
    assert f"{data}:2: tid {tid} out of range [0, 2**64)" in err
    assert "Traceback" not in err
    assert not model.exists()


def test_train_names_the_tid_of_a_vector_over_the_budget(tmp_path, capsys):
    """Tid 103 spans 3 pages of 8 entries; a 2-page budget cannot hold it."""
    data = tmp_path / "d.txt"
    lines = [f"{100 + i} 1.0 {8 * i}:1" for i in range(6)]
    lines[3] = "103 1.0 0:1 8:1 16:1"
    data.write_text("# d=64\n" + "\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--data-format", "txt", "--task", "lr",
                 "--model", str(tmp_path / "m.model"), "--page-size", "8", "--budget", "2",
                 "--reorder", "none", "--iterations", "2"]) == 3
    err = capsys.readouterr().err
    assert "vector tid 103 needs 3 pages, budget is 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "train"])
def test_model_of_another_dimension_exits_2(tmp_path, capsys, command):
    data = str(tmp_path / "d.bin")
    model = str(tmp_path / "m.model")
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "10", "--d", "100", "--nnz", "3", "--seed", "5"])
    ModelStore.create(model, 120, 10).close()
    capsys.readouterr()
    assert main([command, "--data", data, "--model", model, "--budget", "2"]) == 2
    err = capsys.readouterr().err
    assert "dimension 100 != model dimension 120" in err
    assert "Traceback" not in err


def test_train_writes_loss_curve(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    model = str(tmp_path / "m.model")
    losses = str(tmp_path / "loss.csv")
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "60", "--d", "300", "--nnz", "5", "--seed", "6"])
    capsys.readouterr()
    assert main(["train", "--data", data, "--model", model,
                 "--page-size", "32", "--task", "lr", "--alpha", "0.3",
                 "--iterations", "4", "--loss-out", losses,
                 "--budget", "50%", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diverged"] is False
    assert "plan" not in payload["config"]  # training reads every U-page by gather
    assert len(payload["losses"]) == 5
    for name in ("page_requests", "page_misses", "write_backs"):
        assert sum(counts[name] for counts in payload["phases"].values()) == payload[name]
    assert payload["losses"][-1] < payload["losses"][0]
    with open(losses) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert [int(r["iteration"]) for r in rows] == [0, 1, 2, 3, 4]


def test_train_lmf_runs(tmp_path, capsys):
    data = str(tmp_path / "m.bin")
    model = str(tmp_path / "m.model")
    main(["gen", "--kind", "matrix", "--out", data, "--rows", "12",
          "--cols", "10", "--cells", "60", "--rank", "4", "--seed", "8"])
    capsys.readouterr()
    assert main(["train", "--data", data, "--model", model,
                 "--page-size", "8", "--task", "lmf", "--alpha", "0.05",
                 "--iterations", "3", "--budget", "50%", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["losses"][-1] < payload["losses"][0]


def test_a_diverging_train_prints_only_its_warning(tmp_path, capsys):
    """Training that diverges says so in one line on stderr; the overflow
    that makes its loss non-finite raises no numpy warning of its own."""
    data = str(tmp_path / "m.bin")
    assert main(["gen", "--kind", "matrix", "--rows", "8", "--cols", "8", "--cells", "30",
                 "--rank", "3", "--seed", "7", "--out", data]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--data", data, "--model", str(tmp_path / "m.model"),
                     "--task", "lmf", "--mode", "sgd-page", "--alpha", "5", "--budget", "6",
                     "--page-size", "8", "--upage", "10", "--model-init", "uniform",
                     "--init-low", "-0.5", "--init-high", "0.5"]) == 0
    assert [str(warning.message) for warning in caught] == []
    out, err = capsys.readouterr()
    assert json.loads(out)["diverged"] is True
    assert err == "warning: training diverged (non-finite loss); stopped early\n"


def _sweep_rows(capsys, argv):
    capsys.readouterr()
    assert main(["sweep", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_sweep_without_batching_isolates_the_ordering_effect(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    main(["gen", "--kind", "skewed", "--out", data,
          "--n", "300", "--d", "5000", "--nnz", "8", "--seed", "9"])
    rows = _sweep_rows(capsys, [
        "--data", data, "--model", str(tmp_path / "m.model"), "--page-size", "64",
        "--budget", "15%", "--reorder", "none", "radix", "--upage", "128",
        "--seed", "3", "--plan", "single"])
    rows = {r["heuristic"]: r for r in rows}
    assert [(r["page_misses"], r["page_requests"], r["batch_count"])
            for r in rows.values()] == [(618, 1332, 300), (555, 1332, 300)]
    assert rows["radix"]["page_misses"] <= rows["none"]["page_misses"]
    none = rows["none"]["page_misses"]
    assert round(100.0 * (none - rows["radix"]["page_misses"]) / none, 3) == 10.194


@pytest.mark.parametrize("flags, none_misses", [
    (["--plan", "batched"], [281, 133, 62]),
    (["--plan", "single"], [319, 159, 62]),
], ids=["batched", "unbatched"])
def test_sweep_misses_never_rise_with_the_budget(tmp_path, capsys, flags, none_misses):
    data = str(tmp_path / "d.bin")
    main(["gen", "--kind", "skewed", "--out", data,
          "--n", "200", "--d", "2000", "--nnz", "6", "--seed", "10"])
    budgets = ["20%", "50%", "100%"]
    rows = _sweep_rows(capsys, [
        "--data", data, "--model", str(tmp_path / "m.model"), "--page-size", "32",
        "--budget", *budgets, "--reorder", *HEURISTICS, "--seed", "4", *flags])
    assert len(rows) == len(HEURISTICS) * len(budgets)
    for heuristic in HEURISTICS:
        cells = [r for r in rows if r["heuristic"] == heuristic]
        assert [r["budget"] for r in cells] == budgets
        misses = [r["page_misses"] for r in cells]
        assert misses == sorted(misses, reverse=True), heuristic
        assert cells[-1]["page_misses"] == cells[-1]["distinct_pages"] == 62
    assert [r["page_misses"] for r in rows if r["heuristic"] == "none"] == none_misses


def test_sweep_prints_the_demo_counters(tmp_path, capsys):
    data = str(tmp_path / "demo.bin")
    main(["gen", "--kind", "demo", "--out", data])
    flags = ["--data", data, "--model", str(tmp_path / "demo.model"),
             "--page-size", "2", "--budget", "2", "--upage", "8"]
    plain, radix = _sweep_rows(capsys, [*flags, "--reorder", "none", "radix",
                                        "--plan", "single"])
    (batched,) = _sweep_rows(capsys, [*flags, "--reorder", "radix", "--plan", "batched"])
    assert plain["element_requests"] == 19
    assert plain["page_requests"] == 16
    assert plain["page_misses"] == 8
    assert radix["page_misses"] == 4
    assert batched["batch_count"] == 3
    assert batched["page_requests"] == 6


def test_sweep_csv_has_one_line_per_cell(tmp_path, capsys):
    data = str(tmp_path / "demo.bin")
    main(["gen", "--kind", "demo", "--out", data])
    capsys.readouterr()
    assert main(["sweep", "--data", data, "--model", str(tmp_path / "demo.model"),
                 "--page-size", "2", "--budget", "2", "100%", "--format", "csv"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["budget"], int(r["budget_pages"])) for r in rows] == [("2", 2), ("100%", 3)]
    assert list(rows[0])[:4] == ["heuristic", "budget", "budget_pages", "upage"]
    assert list(rows[0])[-1] == "reorder_time"


def test_only_gen_run_train_and_sweep_remain(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{gen,run,train,sweep}" in capsys.readouterr().out
    for removed in ("bench-reorder", "sweep-budget", "fixture"):
        with pytest.raises(SystemExit) as exc:
            main([removed])
        assert exc.value.code == 2


def _readme_commands():
    """Every `dpjoin ...` command in README.md's code blocks, continuation
    lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("dpjoin ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == {"gen", "run", "train", "sweep"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


@pytest.mark.parametrize("budget", ["nan%", "inf%", "1e400%", "1e308%"])
def test_non_finite_budget_percentage_exits_2(tmp_path, capsys, budget):
    data = str(tmp_path / "d.bin")
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "10", "--d", "100", "--nnz", "3", "--seed", "5"])
    capsys.readouterr()
    assert main(["run", "--data", data, "--model", str(tmp_path / "m.model"),
                 "--page-size", "10", "--budget", budget]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _small_dataset(tmp_path):
    data = str(tmp_path / "d.bin")
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "10", "--d", "100", "--nnz", "3", "--seed", "5"])
    (tmp_path / "huge.txt").write_text("# d=18446744073709551616\n1 1.0 0:1.0\n")
    (tmp_path / "latin1.txt").write_bytes(b"1 1.0 0:1.0\n2 -1.0 1:\xe9\n")
    (tmp_path / "unlabeled.txt").write_text("1 nan 0:1.0\n")
    return data


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "skewed", "--d", "0", "--out", "{out}"],
    ["gen", "--kind", "uniform", "--d", "0", "--out", "{out}"],
    ["gen", "--kind", "skewed", "--n", "-1", "--out", "{out}"],
    ["gen", "--kind", "uniform", "--n", "-1", "--out", "{out}"],
    ["train", "--data", "{data}", "--model", "{model}", "--init-low", "1", "--init-high", "0"],
    ["train", "--data", "{data}", "--model", "{model}", "--init-low", "nan"],
    ["train", "--data", "{data}", "--model", "{model}", "--init-high", "inf"],
    ["train", "--data", "{tmp}/huge.txt", "--data-format", "txt", "--model", "{model}"],
    ["run", "--data", "{tmp}/latin1.txt", "--data-format", "txt", "--model", "{model}"],
    ["train", "--data", "{data}", "--model", "{model}", "--task", "lmf"],
    ["gen", "--kind", "uniform", "--seed", "-1", "--out", "{out}"],
    ["gen", "--kind", "demo", "--seed", "-1", "--out", "{out}"],
    ["gen", "--kind", "uniform", "--d", "99999999999999999999", "--out", "{out}"],
    ["gen", "--kind", "skewed", "--d", str(2**63), "--out", "{out}"],
    ["gen", "--kind", "skewed", "--nnz", "99999999999999999999", "--out", "{out}"],
    ["gen", "--kind", "matrix", "--rows", "99999999999999999999",
     "--cells", "99999999999999999999", "--out", "{out}"],
    ["gen", "--kind", "matrix", "--cols", "99999999999999999999",
     "--cells", "99999999999999999999", "--out", "{out}"],
    ["gen", "--kind", "matrix", "--rows", "2", "--cols", "2", "--cells", "2",
     "--rank", "99999999999999999999", "--out", "{out}"],
    ["gen", "--kind", "skewed", "--zipf-s", "nan", "--out", "{out}"],
    ["gen", "--kind", "skewed", "--zipf-s", "inf", "--out", "{out}"],
    ["train", "--data", "{tmp}/unlabeled.txt", "--data-format", "txt", "--model", "{model}"],
    ["train", "--data", "{data}", "--model", "{model}", "--alpha", "nan"],
    ["train", "--data", "{data}", "--model", "{model}", "--alpha", "inf"],
    ["train", "--data", "{data}", "--model", "{model}", "--alpha=-inf"],
], ids=["skewed-d0", "uniform-d0", "skewed-n-1", "uniform-n-1", "init-low-above-high",
        "init-low-nan", "init-high-inf", "dimension-beyond-header", "text-not-utf8",
        "lmf-without-matrix-shape", "gen-seed-negative", "demo-seed-negative",
        "uniform-d-huge", "skewed-d-2**63", "skewed-nnz-huge", "matrix-rows-huge",
        "matrix-cols-huge", "matrix-rank-huge", "skewed-zipf-s-nan", "skewed-zipf-s-inf",
        "train-label-nan", "alpha-nan", "alpha-inf", "alpha-minus-inf"])
def test_rejected_input_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    data = _small_dataset(tmp_path)
    out, model = tmp_path / "out.bin", tmp_path / "new.model"
    capsys.readouterr()
    argv = [a.format(data=data, tmp=tmp_path, out=out, model=model) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()
    assert not model.exists()


@pytest.mark.parametrize("argv", [
    ["--kind", "uniform", "--n", "1", "--nnz", "1", "--d", "1000000000000"],
    ["--kind", "skewed", "--n", "1", "--nnz", "1", "--d", "1000000000000"],
    ["--kind", "matrix", "--rows", "1", "--cols", "1", "--cells", "1", "--rank", "1000000000000"],
], ids=["uniform", "skewed", "matrix"])
def test_gen_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, argv):
    """A dimension that passes the size check can still be too large to
    allocate. The draws are made to raise MemoryError here, since on a host
    that overcommits memory such an allocation need not fail at once."""
    class Exhausted:
        def __init__(self, seed=None):
            pass

        def __getattr__(self, name):
            def draw(*args, **kwargs):
                raise MemoryError(f"cannot allocate the {name} draw")
            return draw

    monkeypatch.setattr(datagen.np.random, "default_rng", Exhausted)
    out = tmp_path / "out.bin"
    capsys.readouterr()
    assert main(["gen", *argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--upage", "0"],
    ["train", "--iterations", "-1"],
    ["run", "--reorder", "lsh", "--lsh-hashes", "0"],
    ["run", "--reorder", "lsh", "--lsh-bands", "0"],
    ["run", "--reorder", "lsh", "--lsh-hashes", "2", "--lsh-bands", "4"],
    ["run", "--reorder", "kcenter", "--kcenter-k", "1"],
    ["run", "--page-size", "0"],
    ["run", "--page-size", "10", "--budget", "11"],
    ["train", "--page-size", "10", "--budget", "11"],
    ["sweep", "--page-size", "10", "--budget", "100%", "11"],
    ["sweep", "--upage", "8", "0"],
    ["sweep", "--reorder", "none", "kcenter", "--kcenter-k", "1"],
    ["run", "--seed", "-1"],
    ["run", "--reorder", "radix", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["sweep", "--reorder", "shuffle", "--seed", "-1"],
    ["run", "--lsh-hashes", "99999999999999999999"],
    ["run", "--reorder", "lsh", "--lsh-hashes", "5000000"],
    ["sweep", "--reorder", "lsh", "--lsh-hashes", "1025"],
    ["run", "--plan", "hash"],
    ["sweep", "--plan", "gather", "hash"],
], ids=["upage-0", "iterations-negative", "lsh-hashes-0", "lsh-bands-0",
        "fewer-hashes-than-bands", "kcenter-k-1", "page-size-0", "budget-above-pages",
        "train-budget-above-pages", "sweep-budget-above-pages", "sweep-upage-0",
        "sweep-kcenter-k-1", "run-seed-negative", "radix-seed-negative",
        "train-seed-negative", "sweep-seed-negative", "lsh-hashes-huge",
        "lsh-hashes-5000000", "lsh-hashes-above-ceiling", "run-plan-unknown",
        "sweep-plan-unknown"])
def test_rejected_option_exits_2(tmp_path, capsys, argv):
    data = _small_dataset(tmp_path)
    model = tmp_path / "m.model"
    capsys.readouterr()
    command, *flags = argv
    assert main([command, "--data", data, "--model", str(model),
                 "--budget", "100%", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not model.exists()


def test_train_takes_no_plan(tmp_path, capsys):
    """Training gathers every U-page, so `train` has no --plan: argparse
    rejects it (exit 2) before any file is read or written."""
    data = _small_dataset(tmp_path)
    model = tmp_path / "m.model"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", data, "--model", str(model), "--plan", "gather"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --plan gather" in capsys.readouterr().err
    assert not model.exists()


def test_model_with_bad_magic_exits_4(tmp_path, capsys):
    data = _small_dataset(tmp_path)
    model = tmp_path / "m.model"
    ModelStore.create(str(model), 100, 10).close()
    raw = bytearray(model.read_bytes())
    raw[:8] = b"NOTMODEL"
    model.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["run", "--data", data, "--model", str(model)]) == 4
    err = capsys.readouterr().err
    assert "bad magic" in err
    assert "Traceback" not in err
    assert model.read_bytes() == bytes(raw)


@pytest.mark.parametrize("command,plan", [(command, plan) for command in ("run", "sweep")
                                          for plan in PLANS] + [("train", "gather")],
                         ids=lambda value: value)
def test_a_vector_over_the_budget_exits_3_and_writes_no_model(tmp_path, capsys, command,
                                                              plan):
    """Every vector of the small dataset spans 3 of the 10 pages; a 2-page
    budget cannot hold one, so the command exits 3 before it creates the
    model file. `train` takes no --plan: it gathers every U-page."""
    data = _small_dataset(tmp_path)
    model = tmp_path / "new.model"
    plan_flags = ["--plan", plan] if command != "train" else []
    capsys.readouterr()
    assert main([command, "--data", data, "--model", str(model), "--page-size", "10",
                 "--budget", "2", *plan_flags]) == 3
    err = capsys.readouterr().err
    assert "needs 3 pages, budget is 2" in err
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("command", ["run", "train", "sweep"])
def test_a_model_the_disk_cannot_hold_exits_4_and_writes_nothing(tmp_path, capsys,
                                                                monkeypatch, command):
    import shutil

    data = _small_dataset(tmp_path)
    model = tmp_path / "m.model"
    monkeypatch.setattr(shutil, "disk_usage", lambda path: shutil._ntuple_diskusage(
        total=10**6, used=10**6 - 100, free=100))
    capsys.readouterr()
    assert main([command, "--data", data, "--model", str(model), "--page-size", "10",
                 "--budget", "100%"]) == 4
    err = capsys.readouterr().err
    assert "needs 828 bytes, 100 are free" in err
    assert "Traceback" not in err
    assert not model.exists()


HUGE = 99999999999999999999
EXTREMES = (-HUGE, -1, 0, HUGE)
UNKNOWN_PLAN = "hash"


@st.composite
def _cli_argv(draw):
    """A gen, run, train or sweep command line on small data: every option
    in range but at most one, which takes an extreme value (negative, zero,
    huge), in about half of them."""
    command = draw(st.sampled_from(["gen", "run", "train", "sweep"]))
    if command == "gen":
        d = draw(st.integers(1, 300))
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        values = {
            "--kind": draw(st.sampled_from(datagen.GENERATORS)), "--seed": draw(st.integers(0, 5)),
            "--n": draw(st.integers(0, 12)), "--d": d, "--nnz": draw(st.integers(1, min(d, 6))),
            "--rows": rows, "--cols": cols,
            "--cells": draw(st.integers(max(rows, cols), rows * cols)),
            "--rank": draw(st.integers(1, 3)),
        }
        # A huge --n is a valid request for a huge dataset, so --n keeps its value.
        extreme = ["--seed", "--d", "--nnz", "--rows", "--cols", "--cells", "--rank"]
        fixed = ["gen", "--out", "{out}"]
    else:
        bands = draw(st.integers(1, 8))
        values = {
            "--reorder": draw(st.sampled_from(HEURISTICS)), "--seed": draw(st.integers(0, 5)),
            "--budget": draw(st.sampled_from(["100%", "50%", "20%", "3"])),
            "--upage": draw(st.integers(1, 12)), "--lsh-bands": bands,
            "--lsh-hashes": draw(st.integers(bands, 20)),
            "--kcenter-k": draw(st.integers(2, 6)), "--page-size": draw(st.integers(1, 40)),
        }
        extreme = ["--seed", "--budget", "--upage", "--lsh-bands", "--lsh-hashes",
                   "--kcenter-k", "--page-size"]
        if command == "train":
            values["--iterations"] = draw(st.integers(0, 2))
            values["--mode"] = draw(st.sampled_from(["sgd", "sgd-page", "bgd"]))
            extreme.append("--iterations")
        fixed = [command, "--data", "{data}", "--model", "{model}"]
        if command != "train":  # training gathers every U-page: it takes no --plan
            fixed += ["--plan", draw(st.sampled_from((*PLANS, UNKNOWN_PLAN)))]
    flag = draw(st.sampled_from([None] * len(extreme) + extreme))
    if flag is not None:
        choices = EXTREMES
        if flag == "--lsh-hashes":
            choices += (5_000_000,)  # past the hash ceiling, not huge
        elif flag == "--page-size":
            # Valid but far above the dimension: a new model is still one page of 100 entries.
            choices += (draw(st.integers(10**6, 2**40)),)
        elif flag == "--iterations":
            # A huge count is a valid request for a run without end: only negatives.
            choices = (-HUGE, -1)
        values[flag] = draw(st.sampled_from(choices))
    return fixed + [text for item in values.items() for text in map(str, item)]


DATA_FAULTS = ("magic", "version", "truncated", "trailing", "count", "entries", "offsets",
               "dimension")
MODEL_FAULTS = ("magic", "version", "page-size-0", "length")


def _other_than(value, keep, end=2**64):
    """`value` mapped into [0, end) without `keep`."""
    value %= end - 1
    return value + (value >= keep)


def _corrupt_data(raw, fault, value, existing_model):
    """`raw`, a binary dataset of 10 vectors of 3 entries each (header:
    magic, version u32 = 3, dimension u64, count u64, entries u64, matrix
    shape 3 x u64, 60 bytes; then indptr i64 at byte 60, tids, labels,
    indices and values), with `fault`, its figure taken from `value`, any
    integer in [0, 2**64). The dimension is at most 10**4 unless a model
    exists, so no header sizes a new model file beyond that."""
    if fault == "magic":
        return b"NOTADATA" + raw[8:]
    if fault == "version":   # any but 3, the record formats 1 and 2 included
        return raw[:8] + struct.pack("<I", _other_than(value, 3, 2**32)) + raw[12:]
    if fault == "truncated":
        return raw[: value % len(raw)]
    if fault == "trailing":
        return raw + bytes([value % 256]) * (1 + value % 24)
    if fault == "count":     # any vector count but 10
        return raw[:20] + struct.pack("<Q", _other_than(value, 10)) + raw[28:]
    if fault == "entries":   # any entry count but 30
        return raw[:28] + struct.pack("<Q", _other_than(value, 30)) + raw[36:]
    if fault == "offsets":   # indptr[value % 11], which is 3 * (value % 11), set outside [0, 30]
        at = 60 + 8 * (value % 11)
        return raw[:at] + struct.pack("<Q", 31 + value % (2**64 - 31)) + raw[at + 8:]
    dimension = value if existing_model else value % (10**4 + 1)
    return raw[:12] + struct.pack("<Q", dimension) + raw[20:]


def _corrupt_model(raw, fault, value):
    """`raw`, a model file (header: magic, version u32, dimension u64, page
    size u64; then the pages), with `fault`, its figure taken from `value`."""
    if fault == "magic":
        return b"NOTMODEL" + raw[8:]
    if fault == "version":
        return raw[:8] + struct.pack("<I", 2 + value % (2**32 - 2)) + raw[12:]
    if fault == "page-size-0":
        return raw[:20] + struct.pack("<Q", 0) + raw[28:]
    length = value % (len(raw) + 64)   # any length but the file's own
    return (raw + bytes(64))[: length + (length >= len(raw))]


def _faulty(data_fault=None, model_fault=None, value=0):
    """An example of `run` on a malformed dataset or model."""
    return example(argv=["run", "--data", "{data}", "--model", "{model}", "--budget", "100%"],
                   existing_model=True, data_fault=data_fault, model_fault=model_fault,
                   value=value)


@settings(max_examples=200, deadline=None)
@given(argv=_cli_argv(), existing_model=st.booleans(),
       data_fault=st.none() | st.sampled_from(DATA_FAULTS),
       model_fault=st.none() | st.sampled_from(MODEL_FAULTS),
       value=st.integers(0, 2**64 - 1))
@_faulty("magic")
@_faulty("version", value=1)
@_faulty("version", value=2)
@_faulty("version", value=4)
@_faulty("truncated", value=200)
@_faulty("trailing", value=5)
@_faulty("count", value=2**63 - 1)
@_faulty("entries", value=2**64 - 2)
@_faulty("offsets", value=5)
@_faulty("dimension", value=0)
@_faulty(model_fault="magic")
@_faulty(model_fault="version", value=5)
@_faulty(model_fault="page-size-0")
@_faulty(model_fault="length", value=100)
def test_every_command_line_exits_with_a_contract_code(tmp_path_factory, argv, existing_model,
                                                      data_fault, model_fault, value):
    """The exit-code contract: 0 success, 2 rejected input, 3 precondition,
    4 storage; no input escapes `main` as an exception (a traceback). The
    dataset file may be malformed and, when it exists, the model header.
    Both are read before any option is checked, so a malformed one exits 4,
    except a dataset header dimension, which is rejected (2) only when it
    does not hold every index or is not the model's. A run, train or sweep
    that exits 2 or 3 leaves no new model file."""
    tmp = tmp_path_factory.mktemp("cli")
    data, model = tmp / "d.bin", tmp / "m.model"
    store_dataset(datagen.gen_uniform(10, 100, 3, seed=5), str(data))
    if data_fault is not None:
        data.write_bytes(_corrupt_data(data.read_bytes(), data_fault, value, existing_model))
    if existing_model:
        ModelStore.create(str(model), 100, 10).close()
        if model_fault is not None:
            model.write_bytes(_corrupt_model(model.read_bytes(), model_fault, value))
    else:
        model_fault = None
    argv = [a.format(data=data, model=model, out=tmp / "out.bin") for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if argv[0] != "gen" and data_fault not in (None, "dimension"):
        assert code == 4
    elif argv[0] != "gen" and model_fault is not None:
        assert code in ((2, 4) if data_fault else (4,))
    elif UNKNOWN_PLAN in argv:
        assert code == 2
    if argv[0] != "gen" and not existing_model and code in (2, 3):
        assert not model.exists()
