import argparse
import csv
import json
import math
import re
import shutil
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from margsyn import cli, learn
from margsyn.cli import build_parser, main
from margsyn.dataset import Schema, load_csv, split, write_csv
from margsyn.demo import make_demo_dataset
from margsyn.evaluate import empirical_risk
from margsyn.experiment import ExperimentConfig, run_experiment
from margsyn.learn import LinearModel, LossSpec, save_model, train_projected
from margsyn.marginals import MarginalOperator, compute_marginal, enumerate_queries, order_operator
from margsyn.synth import generate_synthetic

from conftest import assert_refused


@pytest.fixture
def demo_files(tmp_path):
    ds = make_demo_dataset(m=3, n=120, seed=2)
    data = tmp_path / "demo.csv"
    schema = tmp_path / "schema.json"
    write_csv(ds, data)
    ds.schema.to_file(schema)
    return ds, str(data), str(schema), tmp_path


def test_prep_command(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("age,color,label\n31,red,yes\n45,blue,no\n,green,yes\n52,red,no\n")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"preprocess": {
        "age": {"kind": "continuous", "buckets": 2},
        "color": {"kind": "categorical"},
        "label": {"kind": "categorical"}}}))
    out = tmp_path / "coded.csv"
    schema_out = tmp_path / "schema.json"
    rc = main(["prep", "--raw", str(raw), "--rules", str(rules),
               "--out", str(out), "--schema-out", str(schema_out)])
    assert rc == 0
    schema = Schema.from_file(schema_out)
    ds = load_csv(out, schema)
    assert ds.n == 3  # row with the missing age was dropped
    assert schema.sizes == (2, 2, 2)  # green vanished with the dropped row


@pytest.mark.parametrize("ages, bounds", [
    ("31,inf,52", {}),
    ("-1e308,1e308,52", {}),
    ("31,inf,52", {"lo": 0, "hi": 100}),
    ("31,-inf,52", {"lo": 0, "hi": 100}),
], ids=["inf", "width overflows", "inf within bounds", "-inf within bounds"])
def test_prep_refuses_a_value_without_a_bucket_naming_its_column(tmp_path, capsys, ages, bounds):
    raw = tmp_path / "raw.csv"
    raw.write_text("age,label\n" + "".join(f"{a},{y}\n" for a, y in zip(ages.split(","), "yny")))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"age": {"kind": "continuous", "buckets": 2, **bounds},
                                 "label": {"kind": "categorical"}}))
    out = tmp_path / "coded.csv"
    assert_refused(capsys, ["prep", "--raw", str(raw), "--rules", str(rules), "--out", str(out)],
                   r"column 'age': (value '-?inf' is not a finite number|range .* has no finite, positive width)")
    assert not out.exists()


@pytest.mark.parametrize("kind, ages", [
    ("integer", "100000000000000000000000,0,1"),
    ("integer", "-9000000000000000000,9000000000000000000,1"),
    ("identity", "5,100000000000000000000,1"),
], ids=["integer past int64", "integer range past int64", "identity past int64"])
def test_prep_refuses_a_code_past_int64_naming_its_column(tmp_path, capsys, kind, ages):
    raw = tmp_path / "raw.csv"
    raw.write_text("age,label\n" + "".join(f"{a},{y}\n" for a, y in zip(ages.split(","), "yny")))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"age": {"kind": kind}, "label": {"kind": "categorical"}}))
    out = tmp_path / "coded.csv"
    assert_refused(capsys, ["prep", "--raw", str(raw), "--rules", str(rules), "--out", str(out)],
                   r"column 'age': domain size \d+ passes the int64 codes' limit")
    assert not out.exists()


def test_demo_command(tmp_path):
    out = tmp_path / "demo"
    rc = main(["demo", "--out-dir", str(out), "-m", "3", "-n", "50", "--seed", "5"])
    assert rc == 0
    want = make_demo_dataset(m=3, n=50, seed=5)
    schema = Schema.from_file(out / "schema.json")
    assert schema == want.schema
    assert np.array_equal(load_csv(out / "demo.csv", schema).codes, want.codes)


def test_synth_command(demo_files):
    ds, data, schema, tmp = demo_files
    out = tmp / "syn.csv"
    report = tmp / "report.json"
    rc = main(["synth", "--data", data, "--schema", schema, "--out", str(out),
               "--epsilon", "1.0", "--delta", "1e-6", "--order", "2",
               "--mode", "fitted", "--seed", "3", "--report", str(report),
               "--marginals-out", str(tmp / "margs")])
    assert rc == 0
    ds_syn = load_csv(out, ds.schema)
    assert ds_syn.n == ds.n
    doc = json.loads(report.read_text())
    assert doc["mode"] == "fitted" and doc["epsilon"] == 1.0
    assert (tmp / "margs.csv").exists() and (tmp / "margs.json").exists()


@pytest.mark.parametrize("mode, order", [("fitted", 1), ("fitted", 2), ("brute", 1)])
def test_synth_marginals_out_holds_the_synthetic_marginals(demo_files, mode, order):
    ds, data, schema, tmp = demo_files
    out, margs = tmp / "syn.csv", tmp / "margs"
    assert main(["synth", "--data", data, "--schema", schema, "--out", str(out), "--epsilon", "1.0",
                 "--delta", "1e-6", "--order", str(order), "--mode", mode, "--seed", "3",
                 "--marginals-out", str(margs)]) == 0
    ds_syn = load_csv(out, ds.schema)
    queries = enumerate_queries(ds.schema.num_features, order)
    manifest = json.loads((tmp / "margs.json").read_text())["queries"]
    assert [tuple(e["attrs"]) for e in manifest] == [q.attrs for q in queries]
    assert all(e.keys() == {"id", "attrs", "shape"} for e in manifest)
    with open(tmp / "margs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for qid, q in enumerate(queries):
        counts = [float(r["count"]) for r in rows if int(r["query_id"]) == qid]
        assert counts == compute_marginal(ds_syn, q).tolist()
        assert sum(counts) == ds.n


def test_synth_marginals_out_builds_no_bin_table(demo_files, monkeypatch):
    """The dump maps the synthetic data's joint counts by the release's operator:
    the fitted path builds no bin table, with or without it."""
    ds, data, schema, tmp = demo_files
    built = []

    def counted(op, build=MarginalOperator.bin_maps.func):
        built.append(op)
        return build(op)

    table = cached_property(counted)
    table.__set_name__(MarginalOperator, "bin_maps")
    monkeypatch.setattr(MarginalOperator, "bin_maps", table)
    out, margs = tmp / "syn.csv", tmp / "margs"
    for dump in ([], ["--marginals-out", str(margs)]):
        order_operator.cache_clear()
        built.clear()
        assert main(["synth", "--data", data, "--schema", schema, "--out", str(out), "--epsilon", "1.0",
                     "--delta", "1e-6", "--order", "3", "--mode", "fitted", "--seed", "3", *dump]) == 0
        assert len(built) == 0
    ds_syn = load_csv(out, ds.schema)
    with open(tmp / "margs.csv", newline="") as fh:
        got = [float(r["count"]) for r in csv.DictReader(fh)]
    queries = enumerate_queries(ds.schema.num_features, 3)
    assert got == np.concatenate([compute_marginal(ds_syn, q) for q in queries]).tolist()


def test_synth_command_rejects_nan_epsilon(demo_files, capsys):
    # a refusal exits the command with status 2, before any output
    ds, data, schema, tmp = demo_files
    out, report = tmp / "syn.csv", tmp / "report.json"
    assert_refused(capsys, ["synth", "--data", data, "--schema", schema, "--out", str(out),
                            "--epsilon", "nan", "--report", str(report)], "epsilon")
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("epsilon", ["5e-324", "1e-320"])
def test_synth_command_refuses_an_epsilon_whose_sigma_overflows(demo_files, capsys, epsilon):
    ds, data, schema, tmp = demo_files
    out, report = tmp / "syn.csv", tmp / "report.json"
    assert_refused(capsys, ["synth", "--data", data, "--schema", schema, "--out", str(out),
                            "--epsilon", epsilon, "--report", str(report)],
                   rf"overflows a float at eps={float(epsilon)}, delta=1e-06")
    assert not out.exists() and not report.exists()


def test_train_eval_commands(demo_files):
    ds, data, schema, tmp = demo_files
    model = tmp / "model.json"
    rc = main(["train", "--data", data, "--schema", schema, "--out", str(model),
               "--loss", "logistic", "--tau", "1.0", "--max-iters", "200"])
    assert rc == 0
    metrics = tmp / "metrics.json"
    rc = main(["eval", "--model", str(model), "--data", data, "--schema", schema,
               "--out", str(metrics), "--baseline-model", str(model)])
    assert rc == 0
    doc = json.loads(metrics.read_text())
    assert 0.0 <= doc["accuracy"] <= 1.0
    assert 0.0 <= doc["roc_auc"] <= 1.0
    assert doc["excess_empirical_risk"] == 0.0


def test_eval_excess_risk_is_signed_gap(demo_files, monkeypatch):
    # moved from the deleted evaluate.excess_empirical_risk onto the command's output
    ds, data, schema, tmp = demo_files
    m1 = LinearModel(np.array([0.4, 0.0, 0.0]), math.inf, LossSpec.logistic())
    m2 = LinearModel(np.array([0.0, 0.3, 0.0]), math.inf, LossSpec.logistic())
    save_model(m1, ds.schema, tmp / "m1.json")
    save_model(m2, ds.schema, tmp / "m2.json")
    scored = []
    monkeypatch.setattr(cli, "empirical_risk", lambda model, d: scored.append(model) or empirical_risk(model, d))
    rc = main(["eval", "--model", str(tmp / "m1.json"), "--data", data, "--schema", schema,
               "--out", str(tmp / "metrics.json"), "--baseline-model", str(tmp / "m2.json")])
    assert rc == 0
    doc = json.loads((tmp / "metrics.json").read_text())
    assert doc["empirical_risk"] == empirical_risk(m1, ds)
    assert doc["excess_empirical_risk"] == empirical_risk(m1, ds) - empirical_risk(m2, ds)
    assert doc["excess_empirical_risk"] != 0.0
    assert [m.w.tolist() for m in scored] == [m1.w.tolist(), m2.w.tolist()]  # each risk once


def test_eval_warns_of_a_baseline_trained_on_another_schema(demo_files, capsys):
    ds, data, schema, tmp = demo_files
    other = Schema(("u", "v", "w", "label"), ds.schema.sizes)  # same feature count, other names
    model = LinearModel(np.array([0.4, 0.0, 0.0]), math.inf, LossSpec.logistic())
    save_model(model, ds.schema, tmp / "m.json")
    save_model(model, other, tmp / "other.json")
    argv = ["eval", "--model", str(tmp / "m.json"), "--data", data, "--schema", schema]
    assert main([*argv, "--baseline-model", str(tmp / "m.json")]) == 0
    assert capsys.readouterr().err == ""
    assert main([*argv, "--baseline-model", str(tmp / "other.json")]) == 0
    assert capsys.readouterr().err == "warning: baseline model schema hash does not match the evaluation schema\n"


def test_train_command_rejects_nan_tau(demo_files, capsys):
    ds, data, schema, tmp = demo_files
    model = tmp / "model.json"
    assert_refused(capsys, ["train", "--data", data, "--schema", schema, "--out", str(model),
                            "--tau", "nan"], "tau")
    assert not model.exists()


def test_gamma_is_refused_with_a_loss_that_ignores_it(demo_files, capsys):
    ds, data, schema, tmp = demo_files
    model = tmp / "model.json"
    assert_refused(capsys, ["train", "--data", data, "--schema", schema, "--out", str(model),
                            "--loss", "logistic", "--gamma", "0.3"],
                   "--gamma is read only by --loss gamma_margin, not logistic")
    assert not model.exists()


def test_gamma_is_refused_before_any_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert_refused(capsys, ["train", "--data", missing, "--schema", missing, "--out", str(tmp_path / "m.json"),
                            "--loss", "logistic", "--gamma", "0.3"],
                   "--gamma is read only by --loss gamma_margin, not logistic")


def test_gamma_margin_reads_gamma_and_defaults_to_one_half(demo_files):
    ds, data, schema, tmp = demo_files
    argv = ["train", "--data", data, "--schema", schema, "--loss", "gamma_margin", "--tau", "0.5"]
    for name, extra in (("absent", []), ("half", ["--gamma", "0.5"]), ("other", ["--gamma", "0.3"])):
        assert main(argv + ["--out", str(tmp / f"{name}.json")] + extra) == 0
    assert (tmp / "absent.json").read_bytes() == (tmp / "half.json").read_bytes()
    assert json.loads((tmp / "other.json").read_text())["loss"]["gamma"] == 0.3


def test_bound_command(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "family": "lipschitz", "mode": "explicit",
        "n": 10_000, "m": 4, "d": 3, "tau": 0.5, "K": 1.0,
        "phi0": math.log(2.0), "nu": 10.0}))
    out = tmp_path / "bound.json"
    rc = main(["bound", "--params", str(params), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == pytest.approx(3.752256745044411, rel=1e-12)
    assert doc["terms"]["poly_hops"] == 4.0

    params.write_text(json.dumps({"family": "schedule", "m": 8}))
    rc = main(["bound", "--params", str(params), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["gamma"] == pytest.approx(0.4352752816480621)


@pytest.mark.parametrize("params, match", [
    ({"family": "lipschitz", "n": 10_000, "m": 4, "d": 3, "tau": 0.5, "nu": -50}, "nu >= 0"),
    ({"family": "lipschitz", "n": 10_000, "m": 4, "d": 3, "tau": 0.5},
     r"missing bound inputs: \['nu'\]"),
    ({"family": "private-logistic", "n": 10_000, "m": 4, "d": 3, "tau": 0.5, "l": 2, "lam": 3.0,
      "epsilon": math.inf, "delta": 1e-6}, "epsilon must be finite"),
    ({"family": "private-logistic", "n": 10_000, "m": 4, "d": 3, "tau": 0.5, "l": 2, "lam": 3.0,
      "epsilon": 5e-324, "delta": 1e-6}, r"overflows a float at eps=5e-324, delta=1e-06"),
    ({"family": "hinge", "n": 10_000, "m": 4, "d": 3, "tau": 0.5, "nu": 1.0},
     "unknown bound family 'hinge'"),
], ids=["negative nu", "missing nu", "infinite epsilon", "epsilon whose sigma overflows", "unknown family"])
def test_bound_command_refuses_a_bad_parameter_file(tmp_path, capsys, params, match):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))  # an infinite epsilon is written as the bare token Infinity
    out = tmp_path / "bound.json"
    assert_refused(capsys, ["bound", "--params", str(path), "--out", str(out)], match)
    assert not out.exists()


def test_approx_command_offers_only_its_functions(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["approx", "--function", "sin"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'sin'" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [["--b=inf"], ["--a=-inf"], ["--a=-1e308", "--b=1e308"]],
                         ids=["b inf", "a -inf", "width overflows"])
def test_approx_command_refuses_an_interval_a_float_cannot_hold(tmp_path, capsys, bounds):
    out = tmp_path / "table.csv"
    assert_refused(capsys, ["approx", *bounds, "--out", str(out)], r"need finite a, b and b - a, got \[")
    assert not out.exists()


def test_dpsgd_is_an_unknown_command(demo_files, capsys):
    ds, data, schema, tmp = demo_files
    with pytest.raises(SystemExit) as exit_info:
        main(["dpsgd", "--data", data, "--schema", schema, "--out", str(tmp / "m.json")])
    assert exit_info.value.code == 2
    assert "invalid choice: 'dpsgd'" in capsys.readouterr().err
    assert not (tmp / "m.json").exists()
    assert not any(hasattr(learn, name) for name in ("dp_sgd", "DpSgdConfig", "dp_sgd_sigma_sq", "clip_rows"))


def test_approx_command(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["approx", "--function", "logistic-loss", "--degree", "4",
               "--a", "-5", "--b", "5", "--iters", "1,9", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    methods = [r["method"] for r in rows]
    assert methods == ["bernstein", "iterated:1", "iterated:9", "minimax"]
    by_method = {r["method"]: r for r in rows}
    assert float(by_method["iterated:1"]["max_abs_error"]) == pytest.approx(0.545, abs=0.01)
    assert float(by_method["iterated:9"]["c1"]) == pytest.approx(-0.5, abs=1e-9)


def _pipeline_config(tmp_path, data, schema, out_name):
    return {
        "data_path": data, "schema_path": schema,
        "out_dir": str(tmp_path / out_name),
        "epsilons": [0.5, 1.0], "repeats": 2, "d": 2,
        "tau": "inf", "loss": {"kind": "logistic"}, "mode": "fitted",
        "base_seed": 7,
    }


def test_pipeline_command_and_determinism(demo_files, tmp_path):
    ds, data, schema, tmp = demo_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_pipeline_config(tmp_path, data, schema, "out_a")))
    rc = main(["pipeline", "--config", str(cfg_path)])
    assert rc == 0
    runs_a = (tmp_path / "out_a" / "runs.csv").read_text()
    with open(tmp_path / "out_a" / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 epsilons x 2 repeats
    assert all(r["status"] == "ok" for r in rows)
    assert (tmp_path / "out_a" / "aggregates.csv").exists()
    report = json.loads((tmp_path / "out_a" / "reports" / "run_eps0_rep0.json").read_text())
    assert 0 < report["fit_iterations"] <= 2000 and isinstance(report["fit_converged"], bool)

    cfg_path.write_text(json.dumps(_pipeline_config(tmp_path, data, schema, "out_b")))
    rc = main(["pipeline", "--config", str(cfg_path)])
    assert rc == 0
    runs_b = (tmp_path / "out_b" / "runs.csv").read_text()
    assert runs_a == runs_b


def test_pipeline_out_dir_overrides_config(demo_files, tmp_path):
    ds, data, schema, tmp = demo_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_pipeline_config(tmp_path, data, schema, "unused")))
    rc = main(["pipeline", "--config", str(cfg_path), "--out-dir", str(tmp_path / "elsewhere")])
    assert rc == 0
    assert (tmp_path / "elsewhere" / "runs.csv").exists()
    assert not (tmp_path / "unused").exists()


def test_pipeline_flushes_failures(tmp_path, demo_files):
    ds, data, schema, tmp = demo_files
    # epsilon = -1 is rejected by the privacy parameters, failing each cell of that column
    cfg = ExperimentConfig(
        data_path=data, schema_path=schema, out_dir=str(tmp_path / "out_f"),
        epsilons=(0.5, -1.0), repeats=1, d=2, tau=math.inf, base_seed=1)
    result = run_experiment(cfg)
    assert not result.all_ok
    statuses = {r["epsilon"]: r["status"] for r in result.runs}
    assert statuses[0.5] == "ok" and statuses[-1.0] == "failed"
    failed = [r for r in result.runs if r["status"] == "failed"]
    assert all(r["error"] for r in failed)
    cfg_doc = {
        "data_path": data, "schema_path": schema, "out_dir": str(tmp_path / "out_g"),
        "epsilons": [0.5, -1.0], "repeats": 1, "d": 2, "tau": "inf", "base_seed": 1}
    cfg_path = tmp_path / "cfg_fail.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    assert main(["pipeline", "--config", str(cfg_path)]) == 1  # nonzero on partial failure


def test_pipeline_fails_a_nan_epsilon_column(tmp_path, demo_files):
    ds, data, schema, tmp = demo_files
    cfg = ExperimentConfig(
        data_path=data, schema_path=schema, out_dir=str(tmp_path / "out_nan"),
        epsilons=(0.5, math.nan), repeats=2, d=2, tau=math.inf, base_seed=1)
    result = run_experiment(cfg)
    nan_rows = [r for r in result.runs if math.isnan(r["epsilon"])]
    assert len(nan_rows) == 2 and all(r["status"] == "failed" and r["error"] for r in nan_rows)
    assert all(r["status"] == "ok" for r in result.runs if not math.isnan(r["epsilon"]))


def test_pipeline_trains_real_model_once_per_repeat(demo_files, tmp_path, monkeypatch):
    from margsyn import experiment
    trained = []

    def counting(ds, *args, **kwargs):
        trained.append(ds.n)
        return train_projected(ds, *args, **kwargs)

    monkeypatch.setattr(experiment, "train_projected", counting)
    ds, data, schema, tmp = demo_files
    repeats, epsilons = 3, (0.5, 1.0, 2.0, 4.0)
    cfg = ExperimentConfig(
        data_path=data, schema_path=schema, out_dir=str(tmp_path / "out_t"),
        epsilons=epsilons, repeats=repeats, d=2, tau=math.inf, base_seed=2)
    assert run_experiment(cfg).all_ok
    assert len(trained) == repeats * (1 + len(epsilons))


def test_pipeline_scores_real_model_once_per_repeat(demo_files, tmp_path, monkeypatch):
    from margsyn import experiment
    train_parts, real_models, scored = [], [], []

    def splitting(*args, **kwargs):
        parts = split(*args, **kwargs)
        train_parts.append(parts[0])
        return parts

    def training(ds, *args, **kwargs):
        model = train_projected(ds, *args, **kwargs)
        if any(ds is part for part in train_parts):
            real_models.append(model)
        return model

    def counting(name, fn):
        def wrapper(model, ds):
            if any(model is real for real in real_models):
                scored.append((name, id(model), id(ds)))
            return fn(model, ds)
        return wrapper

    monkeypatch.setattr(experiment, "split", splitting)
    monkeypatch.setattr(experiment, "train_projected", training)
    for name in ("accuracy", "roc_auc_model", "empirical_risk"):
        monkeypatch.setattr(experiment, name, counting(name, getattr(experiment, name)))
    ds, data, schema, tmp = demo_files
    cfg = ExperimentConfig(
        data_path=data, schema_path=schema, out_dir=str(tmp_path / "out_s"),
        epsilons=(0.5, 1.0), repeats=2, d=2, tau=math.inf, base_seed=4)
    assert run_experiment(cfg).all_ok
    assert len(real_models) == 2
    assert len(set(scored)) == len(scored)  # no model is scored twice on the same data
    assert Counter(name for name, _, _ in scored) == {"accuracy": 2, "roc_auc_model": 2,
                                                       "empirical_risk": 4}


def test_pipeline_builds_no_rows_of_its_splits_or_synthetic_data(demo_files, tmp_path, monkeypatch):
    from margsyn import experiment
    made = []

    def splitting(*args, **kwargs):
        parts = split(*args, **kwargs)
        made.extend(parts)
        return parts

    def generating(*args, **kwargs):
        ds_syn, report = generate_synthetic(*args, **kwargs)
        made.append(ds_syn)
        return ds_syn, report

    monkeypatch.setattr(experiment, "split", splitting)
    monkeypatch.setattr(experiment, "generate_synthetic", generating)
    ds, data, schema, tmp = demo_files
    cfg = ExperimentConfig(
        data_path=data, schema_path=schema, out_dir=str(tmp_path / "out_r"),
        epsilons=(0.5, 1.0), repeats=2, d=2, tau=0.5, base_seed=4)
    assert run_experiment(cfg).all_ok
    assert len(made) == 2 * 2 + 2 * 2
    assert not any("codes" in vars(part) for part in made)


def test_failed_split_fails_every_cell_of_its_repeat(tmp_path):
    ds = make_demo_dataset(m=2, n=3, seed=1)
    data, schema = tmp_path / "tiny.csv", tmp_path / "schema.json"
    write_csv(ds, data)
    ds.schema.to_file(schema)
    cfg_doc = {"data_path": str(data), "schema_path": str(schema), "out_dir": str(tmp_path / "out"),
               "epsilons": [0.5, 1.0, 2.0], "repeats": 2, "d": 2, "tau": "inf",
               "train_fraction": 0.9}  # round(0.9 * 3) = 3 leaves the test part empty
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    assert main(["pipeline", "--config", str(cfg_path)]) == 1
    with open(tmp_path / "out" / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["epsilon"], r["repeat"]) for r in rows] == [
        (e, r) for e in ("0.5", "1.0", "2.0") for r in ("0", "1")]
    want = repr(ValueError("split of n=3 at fraction 0.9 leaves an empty part"))
    assert all(r["status"] == "failed" and r["error"] == want for r in rows)
    assert not list((tmp_path / "out" / "reports").iterdir())
    # the repeat's one exception gives every cell one traceback; re-raising it
    # once per cell would add a frame each time
    for repeat in (0, 1):
        texts = {(tmp_path / "out" / "failures" / f"run_eps{e}_rep{repeat}.txt").read_text() for e in range(3)}
        assert len(texts) == 1 and "leaves an empty part" in texts.pop()


@pytest.mark.parametrize("delta", [None, 1e-7])
def test_pipeline_cells_run_at_the_config_delta_and_tau(demo_files, tmp_path, monkeypatch, delta):
    from margsyn import experiment
    norms = []

    def training(*args, **kwargs):
        model = train_projected(*args, **kwargs)
        norms.append(float(np.linalg.norm(model.w)))
        return model

    monkeypatch.setattr(experiment, "train_projected", training)
    ds, data, schema, tmp = demo_files
    epsilons = (0.5, 1.0)
    cfg = ExperimentConfig(
        data_path=data, schema_path=schema, out_dir=str(tmp_path / "out"),
        epsilons=epsilons, repeats=2, d=2, tau=0.5, base_seed=5, delta=delta)
    result = run_experiment(cfg)
    assert result.all_ok
    for row in result.runs:
        name = f"run_eps{epsilons.index(row['epsilon'])}_rep{row['repeat']}.json"
        report = json.loads((tmp_path / "out" / "reports" / name).read_text())
        assert report["delta"] == (1.0 / row["n_train"] ** 2 if delta is None else delta)
    # a real and a synthetic model per cell of each repeat, all on the tau-ball
    assert len(norms) == 2 * (1 + len(epsilons))
    assert max(norms) <= 0.5 * (1 + 1e-12)
    assert max(norms) == pytest.approx(0.5)  # the budget binds


def test_aggregates_match_run_means(demo_files, tmp_path):
    ds, data, schema, tmp = demo_files
    cfg = ExperimentConfig(
        data_path=data, schema_path=schema, out_dir=str(tmp_path / "out_m"),
        epsilons=(1.0,), repeats=3, d=2, tau=math.inf, base_seed=3)
    result = run_experiment(cfg)
    accs = [r["accuracy_syn"] for r in result.runs]
    assert result.aggregates[0]["accuracy_syn_mean"] == pytest.approx(np.mean(accs), abs=1e-12)
    assert result.aggregates[0]["excess_risk_train_mean"] == pytest.approx(
        np.mean([r["excess_risk_train"] for r in result.runs]), abs=1e-12)


@pytest.mark.parametrize("tau", [math.nan, -1.0])
def test_config_with_bad_tau_fails(tmp_path, capsys, tau):
    doc = {"data_path": "d.csv", "schema_path": "s.json", "out_dir": str(tmp_path),
           "epsilons": [1.0], "repeats": 1, "d": 2, "tau": tau}
    with pytest.raises(ValueError, match="tau"):
        ExperimentConfig.from_dict(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))  # NaN is written as the bare token NaN
    assert_refused(capsys, ["pipeline", "--config", str(cfg_path)], "tau")
    assert not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("tau", [1.0, "inf"])
def test_config_with_a_margin_loss_out_of_range_fails_when_read(demo_files, tmp_path, capsys, tau):
    # the demo data has m = 3 features: tau * sqrt(3) > 1 puts margins outside
    # [-1, 1], where the gamma-margin loss is undefined, so no cell could run
    ds, data, schema, tmp = demo_files
    doc = {**_pipeline_config(tmp_path, data, schema, "out"), "tau": tau,
           "loss": {"kind": "gamma_margin", "gamma": 0.5}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert_refused(capsys, ["pipeline", "--config", str(cfg_path)],
                       r"gamma_margin loss needs tau \* sqrt\(m\) <= 1")
    assert not (tmp_path / "out").exists()
    doc["tau"] = 0.5  # 0.5 * sqrt(3) <= 1: every cell runs
    cfg_path.write_text(json.dumps(doc))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "runs.csv").exists()


def test_config_with_unknown_key_fails(tmp_path):
    doc = {"data_path": "d.csv", "schema_path": "s.json", "out_dir": str(tmp_path),
           "epsilons": [1.0], "repeats": 1, "d": 2, "tau": 0.5, "sensitivity_mode": "exact"}
    with pytest.raises(ValueError, match=r"unknown config keys: \['sensitivity_mode'\]"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("key, value", [("fit_iters", 300), ("train_max_iters", 60),
                                        ("allow_large_epsilon", False)])
def test_config_with_removed_key_fails_naming_it(tmp_path, key, value):
    doc = {"data_path": "d.csv", "schema_path": "s.json", "out_dir": str(tmp_path),
           "epsilons": [1.0], "repeats": 1, "d": 2, "tau": 0.5, key: value}
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(doc)


def test_pipeline_refuses_an_unknown_config_key(demo_files, tmp_path, capsys):
    ds, data, schema, tmp = demo_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_pipeline_config(tmp_path, data, schema, "out"), "bogus": 1}))
    assert_refused(capsys, ["pipeline", "--config", str(cfg_path)], r"unknown config keys: \['bogus'\]")
    assert not (tmp_path / "out").exists()


def test_bound_refuses_an_unknown_input(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"family": "lipschitz", "n": 10_000, "m": 4, "d": 3, "tau": 0.5,
                                "nu": 1.0, "bogus": 1}))
    assert_refused(capsys, ["bound", "--params", str(path)], r"unknown bound inputs: \['bogus'\]")


# (command, the document it reads, an edit that turns a valid document into a refused one,
# the refusal's message).  Each command reads one document; the rest of its input is valid.
_REFUSED_DOCUMENTS = [
    pytest.param("pipeline", "config", lambda doc: {"data_path": doc["data_path"]},
                 r"missing config keys: \['schema_path', 'out_dir', 'epsilons', 'repeats', 'd', 'tau'\]",
                 id="config of data_path alone"),
    pytest.param("pipeline", "config", lambda doc: [1, 2],
                 r"expected a JSON object of config keys, got \[1, 2\]", id="config a list"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "repeats": 1.5},
                 r"config key 'repeats' must be an integer, got 1\.5", id="repeats 1.5"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "tau": "0.5"},
                 r"config key 'tau' must be a number, got \"0\.5\"", id="tau a string"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "epsilons": "12"},
                 r"config key 'epsilons' must be an array with each entry a number, got \"12\"",
                 id="epsilons a string"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "loss": {"knd": "logistic"}},
                 r"unknown loss keys: \['knd'\]", id="loss key typo"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "loss": {"kind": "gamma_margin"}},
                 r"missing loss keys: \['gamma'\]", id="gamma missing"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "loss": {"kind": "logistic", "gama": 0.3}},
                 r"unknown loss keys: \['gama'\]", id="logistic loss with a typo"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "loss": {"kind": "hinge"}},
                 r"unknown loss kind 'hinge'", id="unknown loss kind"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "mode": "bogus"},
                 r"unknown mode 'bogus'", id="unknown mode"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "d": 9},
                 r"marginal order d=9 out of range", id="d above m + 1"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "train_fraction": 1.5},
                 r"train_fraction must lie", id="train_fraction 1.5"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "base_seed": -1},
                 r"expected non-negative integer", id="base_seed -1"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "delta": 2.0},
                 r"delta must lie in \(0, 1\)", id="delta 2"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "delta": 1e-320},
                 r"delta=1e-320 is too small: 1\.25/delta overflows a float", id="delta 1e-320"),
    pytest.param("pipeline", "config", lambda doc: {**doc, "lam": -1},
                 r"lambda must be finite and positive", id="lam -1"),
    pytest.param("bound", "params", lambda doc: {"family": "lipschitz", "n": 10},
                 r"missing bound inputs: \['m', 'd', 'tau', 'nu'\]", id="bound inputs missing"),
    pytest.param("bound", "params", lambda doc: {**doc, "family": "logistic", "K": 50, "phi0": 9},
                 r"unknown bound inputs: \['K', 'phi0'\]", id="logistic bound with K and phi0"),
    pytest.param("bound", "params", lambda doc: {**doc, "family": "private-logistic", "l": 2, "lam": 3.0,
                                                 "epsilon": 1.0, "delta": 1e-6, "nu": 0.001},
                 r"unknown bound inputs: \['nu'\]", id="private bound with nu"),
    pytest.param("bound", "params", lambda doc: {k: v for k, v in doc.items() if k != "nu"}
                 | {"family": "private-lipschitz", "l": 2, "lam": 3.0, "sigma": 1.0, "epsilon": 0.01,
                    "delta": 1e-6},
                 r"give sigma, or epsilon and delta, not both", id="sigma with epsilon"),
    pytest.param("bound", "params", lambda doc: {k: v for k, v in doc.items() if k != "nu"}
                 | {"family": "private-lipschitz", "l": 2, "lam": 3.0, "epsilon": 1.0, "delta": 1e-320},
                 r"delta=1e-320 is too small: 1\.25/delta overflows a float", id="private bound at delta 1e-320"),
    pytest.param("bound", "params", lambda doc: {"family": "schedule", "m": 8, "mode": "shape"},
                 r"unknown bound inputs: \['mode'\]", id="schedule with mode"),
    pytest.param("bound", "params", lambda doc: {**doc, "n": "10"},
                 r"bound input 'n' must be an integer, got \"10\"", id="n a string"),
    pytest.param("bound", "params", lambda doc: [1],
                 r"expected a JSON object of bound inputs, got \[1\]", id="bound params a list"),
    pytest.param("bound", "params", lambda doc: {"family": "schedule"},
                 r"missing bound inputs: \['m'\]", id="schedule without m"),
    pytest.param("prep", "rules", lambda doc: {**doc, "label": {"kidn": "categorical"}},
                 r"unknown rule keys: \['kidn'\]", id="rule key typo"),
    pytest.param("prep", "rules", lambda doc: {**doc, "age": {"kind": "continuous", "buckets": "3"}},
                 r"rule key 'buckets' must be an integer or null, got \"3\"", id="buckets a string"),
    pytest.param("prep", "rules", lambda doc: [1],
                 r"expected a JSON object of column rules, got \[1\]", id="rules a list"),
    pytest.param("prep", "rules", lambda doc: {**doc, "label": {"kind": "categorical", "oder": ["y", "x"]}},
                 r"unknown rule keys: \['oder'\]", id="order typo"),
    pytest.param("prep", "rules", lambda doc: {**doc, "label": {"kind": "categorical", "buckets": 3, "lo": 0,
                                                                 "size": 9}},
                 r"unknown rule keys: \['buckets', 'lo', 'size'\]", id="categorical rule with bucket keys"),
    pytest.param("prep", "rules", lambda doc: {**doc, "age": {"kind": "continuous", "buckets": 2, "order": []}},
                 r"unknown rule keys: \['order'\]", id="continuous rule with an order"),
    pytest.param("prep", "rules", lambda doc: {**doc, "age": {"kind": "integer", "size": 60}},
                 r"unknown rule keys: \['size'\]", id="integer rule with a size"),
    pytest.param("prep", "rules", lambda doc: {**doc, "age": {"kind": "identity", "size": 60, "hi": 60}},
                 r"unknown rule keys: \['hi'\]", id="identity rule with a bound"),
    pytest.param("prep", "rules", lambda doc: {"preprocess": doc, "atributes": []},
                 r"unknown schema keys: \['atributes'\]", id="schema key typo in rules"),
    pytest.param("synth", "schema", lambda doc: {"atributes": doc["attributes"]},
                 r"unknown schema keys: \['atributes'\]", id="schema key typo"),
    pytest.param("synth", "schema", lambda doc: {"attributes": {"a": 2}},
                 r"schema key 'attributes' must be an array, got \{\"a\": 2\}", id="attributes an object"),
    pytest.param("synth", "schema",
                 lambda doc: {"attributes": [{"name": "x0", "size": 2.7}, *doc["attributes"][1:]]},
                 r"attribute key 'size' must be an integer, got 2\.7", id="size 2.7"),
    pytest.param("eval", "model", lambda doc: {k: v for k, v in doc.items() if k != "schema_hash"},
                 r"missing model keys: \['schema_hash'\]", id="model key missing"),
    pytest.param("eval", "model", lambda doc: {**doc, "tau": None},
                 r"model key 'tau' must be a number, got null", id="model tau null"),
    pytest.param("eval", "model", lambda doc: {**doc, "weights": [math.nan, *doc["weights"][1:]]},
                 r"model weight 0 is nan; weights must be finite", id="NaN weight"),
    pytest.param("eval", "model", lambda doc: {**doc, "weights": [math.inf, *doc["weights"][1:]]},
                 r"model weight 0 is inf; weights must be finite", id="Infinity weight"),
    pytest.param("prep", "rules", lambda doc: {**doc, "age": {**doc["age"], "hi": math.inf}},
                 r"rule bounds must be finite, got lo=None, hi=inf", id="hi Infinity"),
    pytest.param("prep", "rules", lambda doc: {**doc, "age": {**doc["age"], "lo": -math.inf}},
                 r"rule bounds must be finite, got lo=-inf, hi=None", id="lo -Infinity"),
]


def _document_argv(command, demo_files, tmp_path, out):
    """A valid document `command` reads, and its argv up to that document's path."""
    ds, data, schema, tmp = demo_files
    if command == "pipeline":
        valid = _pipeline_config(tmp_path, data, schema, "out")
        argv = ["pipeline", "--config"]
    elif command == "bound":
        valid = {"family": "lipschitz", "n": 10_000, "m": 4, "d": 3, "tau": 0.5, "nu": 1.0}
        argv = ["bound", "--out", str(out), "--params"]
    elif command == "prep":
        (tmp_path / "raw.csv").write_text("age,label\n31,yes\n45,no\n52,no\n")
        valid = {"age": {"kind": "continuous", "buckets": 2}, "label": {"kind": "categorical"}}
        argv = ["prep", "--raw", str(tmp_path / "raw.csv"), "--out", str(out), "--schema-out",
                str(tmp_path / "schema_out.json"), "--rules"]
    elif command == "synth":
        valid = ds.schema.to_dict()
        argv = ["synth", "--data", data, "--out", str(out), "--report", str(tmp_path / "report.json"),
                "--schema"]
    else:
        save_model(train_projected(ds, LossSpec.logistic(), 0.5), ds.schema, tmp_path / "model.json")
        valid = json.loads((tmp_path / "model.json").read_text())
        argv = ["eval", "--data", data, "--schema", schema, "--out", str(out), "--model"]
    return valid, argv


@pytest.mark.parametrize("command, kind, edit, match", _REFUSED_DOCUMENTS)
def test_a_refused_document_writes_nothing(demo_files, tmp_path, capsys, command, kind, edit, match):
    out = tmp_path / "out"
    valid, argv = _document_argv(command, demo_files, tmp_path, out)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(valid))
    given = set(tmp_path.iterdir())
    assert main([*argv, str(path)]) == 0 and out.exists()  # the unedited document is taken
    for made in set(tmp_path.iterdir()) - given:
        shutil.rmtree(made) if made.is_dir() else made.unlink()
    capsys.readouterr()
    path.write_text(json.dumps(edit(valid)))
    assert_refused(capsys, [*argv, str(path)], match)
    assert set(tmp_path.iterdir()) == given


@pytest.mark.parametrize("command, match", [("synth", r"1\.25/delta overflows")])
def test_a_delta_whose_inverse_overflows_writes_nothing(demo_files, tmp_path, capsys, command, match):
    # sigma would be infinite: synth used to crash
    ds, data, schema, tmp = demo_files
    given = set(tmp_path.iterdir())
    assert_refused(capsys, [command, "--data", data, "--schema", schema, "--out", str(tmp_path / "out"),
                            "--delta", "1e-320"], rf"delta=1e-320 is too small: {match} a float")
    assert set(tmp_path.iterdir()) == given


@pytest.mark.parametrize("command, kind", [("pipeline", "config"), ("bound", "params"), ("prep", "rules"),
                                           ("synth", "schema"), ("eval", "model")])
def test_a_truncated_document_is_refused_naming_its_file(demo_files, tmp_path, capsys, command, kind):
    out = tmp_path / "out"
    valid, argv = _document_argv(command, demo_files, tmp_path, out)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(valid)[:16])
    given = set(tmp_path.iterdir())
    assert_refused(capsys, [*argv, str(path)], rf"error: {re.escape(str(path))}: .* line 1 column ")
    assert set(tmp_path.iterdir()) == given


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_a_missing_input_file_is_refused(demo_files, tmp_path, capsys, command):
    ds, data, schema, tmp = demo_files
    missing = str(tmp_path / "absent")
    argv = (["train", "--data", missing, "--schema", schema, "--out", str(tmp_path / "m.json")]
            if command == "train" else ["pipeline", "--config", missing])
    assert_refused(capsys, argv, "No such file or directory: '.*absent'")


def _readme_cli_rows() -> dict[str, str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return dict(re.findall(r"^\| `(\w+)` *\| (.*) \|$", readme, flags=re.M))


def test_readme_cli_table_matches_parser():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    rows = _readme_cli_rows()
    assert sorted(rows) == sorted(subparsers)
    for command, purpose in rows.items():
        options = {flag: action for action in subparsers[command]._actions
                   for flag in action.option_strings}
        for span in re.findall(r"`([^`]*)`", purpose):
            flag = None
            for token in span.split():
                if re.fullmatch(r"--?[A-Za-z][\w-]*", token):
                    flag = token
                    assert flag in options, f"README lists {command} {flag}, the parser has no such flag"
                elif token.startswith("{"):
                    listed = token.strip("{}").split(",")
                    assert flag is not None and list(options[flag].choices) == listed, \
                        f"README lists {command} {flag} {token}"



@pytest.mark.parametrize("command", sorted(_readme_cli_rows()))
def test_readme_cli_flags_parse(command):
    """Each flag the README lists for a subcommand parses, with a value, after that subcommand."""
    parser = build_parser()
    subparser = next(a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)).choices[command]
    required = [arg for a in subparser._actions if a.required for arg in (a.option_strings[0], "x")]
    spans = " ".join(re.findall(r"`([^`]*)`", _readme_cli_rows()[command]))
    for flag in re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", spans):
        action = subparser._option_string_actions.get(flag)
        assert action is not None, f"README lists {command} {flag}, the parser has no such flag"
        value = [] if action.nargs == 0 else [action.choices[0] if action.choices else "1"]
        assert parser.parse_args([command, *required, flag, *value]).command == command
