"""Experiment orchestration: privacy-budget sweeps with repeated trials.

For every (epsilon, repeat) cell: split the real data, synthesize from the
training split, train one model per dataset, evaluate both on the held-out
split, and measure the excess empirical risk on the training split (the
quantity the upper bounds speak about).  Cells are independent and own
derived seeds, so results do not depend on execution order; failures are
recorded per cell rather than aborting the sweep.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, Schema, SplitSpec, load_csv, split, write_csv
from .evaluate import accuracy, empirical_risk, roc_auc_model
from .learn import LinearModel, LossSpec, TrainConfig, train_projected
from .privacy import PrivacyParams
from .synth import generate_synthetic

RUN_COLUMNS = [
    "epsilon", "repeat", "split_seed", "gen_seed", "sigma",
    "n_train", "n_test",
    "accuracy_syn", "accuracy_real", "roc_auc_syn", "roc_auc_real",
    "risk_syn_test", "risk_real_test", "excess_risk_train",
    "normalized_l1_mean", "normalized_l1_max",
    "status", "error",
]


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str
    schema_path: str
    out_dir: str
    epsilons: tuple[float, ...]
    repeats: int
    d: int
    tau: float  # math.inf for unconstrained training
    loss: dict = field(default_factory=lambda: {"kind": "logistic"})
    mode: str = "fitted"
    sensitivity_mode: str = "exact"
    base_seed: int = 0
    train_fraction: float = 0.8
    delta: float | None = None  # defaults to 1/n_train^2
    lam: float = 3.0
    allow_large_epsilon: bool = True
    train_max_iters: int = 400
    train_step_size: float = 1.0
    fit_iters: int = 2000
    fit_tol: float = 1e-10

    def __post_init__(self):
        if not self.epsilons:
            raise ValueError("epsilon grid must be non-empty")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        if doc.get("tau") == "inf":
            doc["tau"] = math.inf
        doc["epsilons"] = tuple(doc["epsilons"])
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ExperimentResult:
    runs: list[dict]
    aggregates: list[dict]
    runs_path: str
    aggregates_path: str

    @property
    def all_ok(self) -> bool:
        return all(r["status"] == "ok" for r in self.runs)


def _cell_seeds(base_seed: int, eps_index: int, repeat: int) -> tuple[int, int]:
    # split seed depends only on the repeat so every epsilon sees the same
    # partitions; the generation seed is unique per cell
    split_seed = int(np.random.SeedSequence([base_seed, repeat]).generate_state(1)[0])
    gen_seed = int(np.random.SeedSequence([base_seed, eps_index, repeat]).generate_state(1)[0])
    return split_seed, gen_seed


def _base_row(cfg: ExperimentConfig, eps: float, eps_index: int, repeat: int) -> dict:
    """A runs.csv row with the cell's identity filled in and every metric blank."""
    split_seed, gen_seed = _cell_seeds(cfg.base_seed, eps_index, repeat)
    row = {c: "" for c in RUN_COLUMNS}
    row.update({"epsilon": eps, "repeat": repeat, "split_seed": split_seed,
                "gen_seed": gen_seed, "status": "ok", "error": ""})
    return row


def _run_cell(ds: Dataset, cfg: ExperimentConfig, eps: float, split_seed: int,
              gen_seed: int) -> tuple[dict, dict]:
    """The cell's metric columns and its generation report."""
    train, test = split(ds, SplitSpec(cfg.train_fraction, split_seed))
    delta = cfg.delta if cfg.delta is not None else 1.0 / train.n**2
    privacy = PrivacyParams(eps, delta, lam=cfg.lam,
                            allow_large_epsilon=cfg.allow_large_epsilon)
    ds_syn, report = generate_synthetic(train, cfg.d, privacy, mode=cfg.mode,
                                        seed=gen_seed, sensitivity_mode=cfg.sensitivity_mode,
                                        fit_iters=cfg.fit_iters, fit_tol=cfg.fit_tol)
    loss = LossSpec.from_dict(cfg.loss)
    tcfg = TrainConfig(max_iters=cfg.train_max_iters, step_size=cfg.train_step_size)
    model_syn = train_projected(ds_syn, loss, cfg.tau, tcfg)
    model_real = train_projected(train, loss, cfg.tau, tcfg)
    metrics = {
        "sigma": report.sigma,
        "n_train": train.n,
        "n_test": test.n,
        "accuracy_syn": accuracy(model_syn, test),
        "accuracy_real": accuracy(model_real, test),
        "roc_auc_syn": roc_auc_model(model_syn, test),
        "roc_auc_real": roc_auc_model(model_real, test),
        "risk_syn_test": empirical_risk(model_syn, test),
        "risk_real_test": empirical_risk(model_real, test),
        "excess_risk_train": empirical_risk(model_syn, train) - empirical_risk(model_real, train),
        "normalized_l1_mean": report.nonprivate_normalized_l1_mean,
        "normalized_l1_max": report.nonprivate_normalized_l1_max,
    }
    return metrics, report.to_dict()


AGG_METRICS = ["accuracy_syn", "accuracy_real", "roc_auc_syn", "roc_auc_real",
               "risk_syn_test", "risk_real_test", "excess_risk_train",
               "normalized_l1_mean", "normalized_l1_max"]


def _aggregate(rows: list[dict], eps: float) -> dict:
    ok = [r for r in rows if r["status"] == "ok"]
    agg = {"epsilon": eps, "completed": len(ok), "attempted": len(rows)}
    for metric in AGG_METRICS:
        vals = np.asarray([r[metric] for r in ok], dtype=np.float64)
        agg[f"{metric}_mean"] = float(vals.mean()) if vals.size else ""
        agg[f"{metric}_std"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0 if vals.size else ""
    return agg


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the sweep and write runs.csv, aggregates.csv and per-run reports."""
    out = Path(cfg.out_dir)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    schema = Schema.from_file(cfg.schema_path)
    ds = load_csv(cfg.data_path, schema)

    runs: list[dict] = []
    aggregates: list[dict] = []
    for eps_index, eps in enumerate(cfg.epsilons):
        eps_rows = []
        for repeat in range(cfg.repeats):
            row = _base_row(cfg, eps, eps_index, repeat)
            try:
                metrics, report = _run_cell(ds, cfg, eps, row["split_seed"], row["gen_seed"])
                row.update(metrics)
            except Exception as exc:  # cell failure must not sink the sweep
                row.update({"status": "failed", "error": repr(exc)})
                report = None
            if report is not None:
                with open(out / "reports" / f"run_eps{eps_index}_rep{repeat}.json", "w") as fh:
                    json.dump(report, fh, indent=2)
                    fh.write("\n")
            eps_rows.append(row)
        aggregates.append(_aggregate(eps_rows, eps))
        runs.extend(eps_rows)

    runs_path = out / "runs.csv"
    with open(runs_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_COLUMNS)
        writer.writeheader()
        writer.writerows(runs)
    agg_path = out / "aggregates.csv"
    with open(agg_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(aggregates[0].keys()))
        writer.writeheader()
        writer.writerows(aggregates)
    return ExperimentResult(runs, aggregates, str(runs_path), str(agg_path))
