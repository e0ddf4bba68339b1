import csv
import json

import pytest

from dpjoin import ModelStore, oracle_dot_products
from dpjoin.cli import main, parse_budget
from dpjoin.sparse_data import load_dataset


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
    model = str(tmp_path / "m.model")
    results = str(tmp_path / "results.csv")
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "50", "--d", "400", "--nnz", "5", "--seed", "7"])
    capsys.readouterr()
    assert main(["run", "--data", data, "--model", model,
                 "--page-size", "32", "--model-init", "uniform",
                 "--seed", "7", "--budget", "50%", "--reorder", "radix",
                 "--out", results]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["element_requests"] == 50 * 5
    assert report["page_misses"] <= report["page_requests"]

    with ModelStore.open(model) as store:
        dense = store.load_dense()
    ds = load_dataset(data)
    expected = {r.tid: r.dp for r in oracle_dot_products(ds, dense)}
    with open(results) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    for row in rows:
        assert float(row["dp"]) == expected[int(row["tid"])]


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
                 "--no-batching"]) == 3


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
    assert len(payload["losses"]) == 5
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


def test_bench_reorder_reports_improvement(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    model = str(tmp_path / "m.model")
    main(["gen", "--kind", "skewed", "--out", data,
          "--n", "300", "--d", "5000", "--nnz", "8", "--seed", "9"])
    capsys.readouterr()
    assert main(["bench-reorder", "--data", data, "--model", model,
                 "--page-size", "64", "--budget", "15%",
                 "--heuristics", "none", "radix", "--upages", "128",
                 "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {r["heuristic"]: r for r in payload["bench"]}
    assert rows["none"]["miss_improvement_pct"] == 0.0
    assert rows["radix"]["page_misses"] <= rows["none"]["page_misses"]


def test_sweep_budget_monotone(tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    model = str(tmp_path / "m.model")
    main(["gen", "--kind", "skewed", "--out", data,
          "--n", "200", "--d", "2000", "--nnz", "6", "--seed", "10"])
    capsys.readouterr()
    assert main(["sweep-budget", "--data", data, "--model", model,
                 "--page-size", "32", "--budgets", "20%", "50%", "100%",
                 "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["monotone_misses"] is True
    last = payload["sweep"][-1]
    assert last["page_misses"] == last["distinct_pages"]


def test_fixture_prints_frozen_counters(capsys):
    assert main(["fixture"]) == 0
    out = capsys.readouterr().out
    assert "element_requests            19" in out
    assert "page_requests (grouped)     16" in out
    assert "misses M=2 file order       8" in out
    assert "misses M=2 radix order      4" in out
    assert "batches (radix, M=2)        3" in out
    assert "page_requests (batched)     6" in out


@pytest.mark.parametrize("budget", ["nan%", "inf%", "1e400%", "1e308%"])
def test_non_finite_budget_percentage_exits_2(tmp_path, capsys, budget):
    data = str(tmp_path / "d.bin")
    main(["gen", "--kind", "uniform", "--out", data,
          "--n", "10", "--d", "100", "--nnz", "3", "--seed", "5"])
    capsys.readouterr()
    assert main(["run", "--data", data, "--model", str(tmp_path / "m.model"),
                 "--page-size", "10", "--budget", budget]) == 2
    assert "Traceback" not in capsys.readouterr().err
