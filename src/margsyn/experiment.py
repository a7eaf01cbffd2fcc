"""Experiment orchestration: privacy-budget sweeps with repeated trials.

Each repeat splits the real data, trains the real-data model and scores it
once.  Each (epsilon, repeat) cell then synthesizes from the training split,
trains a model on the synthetic data, scores it on the held-out split, and
measures its excess empirical risk on the training split (the quantity the
upper bounds speak about).  Seeds are derived per repeat and per cell, so
results do not depend on execution order; failures are recorded per cell
rather than aborting the sweep.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import (Dataset, Schema, SplitSpec, _check_document, _read_json, _write_csv, _write_json,
                      load_csv, split)
from .evaluate import accuracy, empirical_risk, roc_auc_model
from .learn import LossError, LossSpec, TrainConfig, train_projected
from .marginals import order_operator
from .privacy import PrivacyParams
from .synth import DEFAULT_CANDIDATE_CAP, _path, generate_synthetic

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
    base_seed: int = 0
    train_fraction: float = 0.8
    delta: float | None = None  # defaults to 1/n_train^2
    lam: float = 3.0

    def __post_init__(self):
        if not self.epsilons:
            raise ValueError("epsilon grid must be non-empty")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.tau >= 0:  # NaN fails too
            raise ValueError(f"tau must be >= 0 ('inf' for unconstrained), got {self.tau}")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        """The config of a JSON document whose keys are the fields (`_check_document`);
        a `tau` of "inf" is math.inf."""
        if isinstance(doc, dict) and doc.get("tau") == "inf":
            doc = {**doc, "tau": math.inf}
        return cls(**_check_document(doc, "config key", cls))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path))


@dataclass
class ExperimentResult:
    runs: list[dict]
    aggregates: list[dict]
    runs_path: str
    aggregates_path: str

    @property
    def all_ok(self) -> bool:
        return all(r["status"] == "ok" for r in self.runs)


def _seed(base_seed: int, *key: int) -> int:
    # the split seed is keyed by the repeat alone, so every epsilon sees the
    # same partitions; the generation seed by (epsilon index, repeat)
    return int(np.random.SeedSequence([base_seed, *key]).generate_state(1)[0])


def _fit_and_score(ds: Dataset, train: Dataset, test: Dataset, loss: LossSpec,
                   cfg: ExperimentConfig, side: str) -> tuple[dict, float]:
    """Train on ds as the sweep trains both of its models: accuracy, ROC-AUC and
    risk on the test split as `side`'s columns, and the risk on the training split."""
    model = train_projected(ds, loss, cfg.tau, TrainConfig(max_iters=400))
    columns = {f"accuracy_{side}": accuracy(model, test),
               f"roc_auc_{side}": roc_auc_model(model, test),
               f"risk_{side}_test": empirical_risk(model, test)}
    return columns, empirical_risk(model, train)


def _run_cell(train: Dataset, test: Dataset, loss: LossSpec, real_risk: float,
              cfg: ExperimentConfig, eps: float, gen_seed: int) -> tuple[dict, dict]:
    """The cell's synthetic-side columns and its generation report (cfg.delta is set)."""
    # a pair whose sigma is not (epsilon, delta)-DP fails the cell (privacy.gaussian_sigma)
    privacy = PrivacyParams(eps, cfg.delta, lam=cfg.lam)
    ds_syn, report = generate_synthetic(train, cfg.d, privacy, mode=cfg.mode, seed=gen_seed)
    syn, syn_risk = _fit_and_score(ds_syn, train, test, loss, cfg, "syn")
    metrics = {
        "sigma": report.sigma,
        **syn,
        "excess_risk_train": syn_risk - real_risk,
        "normalized_l1_mean": report.nonprivate_normalized_l1_mean,
        "normalized_l1_max": report.nonprivate_normalized_l1_max,
    }
    return metrics, asdict(report)


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
    """Run the sweep: runs.csv, aggregates.csv, reports/ and each failed cell's traceback in failures/.

    A config that no cell could run is refused before any output: a marginal
    order, mode or joint domain that synthesis refuses, a train_fraction,
    base_seed, delta or lam out of range, and a gamma_margin loss, defined on
    margins in [-1, 1], with tau * sqrt(m) > 1.  An epsilon out of range
    fails its cells."""
    schema = Schema.from_file(cfg.schema_path)
    loss = LossSpec.from_dict(cfg.loss)
    # a request refused at 1 row is refused at every size, so at every cell's n_train
    _path(1, order_operator(schema, cfg.d), cfg.mode, DEFAULT_CANDIDATE_CAP)
    SplitSpec(cfg.train_fraction, _seed(cfg.base_seed))  # numpy refuses a negative base_seed
    # each epsilon is checked by its own cells, and so is the default delta, 1/n_train^2
    PrivacyParams(1.0, 0.5 if cfg.delta is None else cfg.delta, lam=cfg.lam)
    if loss.kind == "gamma_margin" and not cfg.tau * math.sqrt(schema.num_features) <= 1.0:
        raise LossError(f"gamma_margin loss needs tau * sqrt(m) <= 1, got tau = {cfg.tau} "
                        f"at m = {schema.num_features}")
    ds = load_csv(cfg.data_path, schema)
    out = Path(cfg.out_dir)
    (out / "reports").mkdir(parents=True, exist_ok=True)

    # repeat-major, so one repeat's split is alive at a time; rows are
    # collected per epsilon and written epsilon-major
    grid: list[list[dict]] = [[] for _ in cfg.epsilons]
    for repeat in range(cfg.repeats):
        split_seed = _seed(cfg.base_seed, repeat)
        try:
            train, test = split(ds, SplitSpec(cfg.train_fraction, split_seed))
            cell_cfg = cfg if cfg.delta is not None else replace(cfg, delta=1.0 / train.n**2)
            real, real_risk = _fit_and_score(train, train, test, loss, cfg, "real")
            real.update(n_train=train.n, n_test=test.n)
            real_error = None
        except Exception as exc:  # fails every cell of this repeat
            real_error = exc
        for eps_index, eps in enumerate(cfg.epsilons):
            row = dict.fromkeys(RUN_COLUMNS, "")
            grid[eps_index].append(row)
            row.update({"epsilon": eps, "repeat": repeat, "split_seed": split_seed,
                        "gen_seed": _seed(cfg.base_seed, eps_index, repeat), "status": "ok"})
            error = real_error
            if error is None:
                try:
                    metrics, report = _run_cell(train, test, loss, real_risk, cell_cfg, eps, row["gen_seed"])
                except Exception as exc:  # cell failure must not sink the sweep
                    error = exc
            if error is not None:
                row.update({"status": "failed", "error": repr(error)})
                (out / "failures").mkdir(exist_ok=True)
                (out / "failures" / f"run_eps{eps_index}_rep{repeat}.txt").write_text(
                    "".join(traceback.format_exception(error)))
                continue
            row.update({**real, **metrics})
            _write_json(report, out / "reports" / f"run_eps{eps_index}_rep{repeat}.json")
    runs = [row for eps_rows in grid for row in eps_rows]
    aggregates = [_aggregate(eps_rows, eps) for eps_rows, eps in zip(grid, cfg.epsilons)]

    runs_path = out / "runs.csv"
    _write_csv(runs_path, RUN_COLUMNS, ([row[c] for c in RUN_COLUMNS] for row in runs))
    agg_path = out / "aggregates.csv"
    _write_csv(agg_path, aggregates[0].keys(), (agg.values() for agg in aggregates))
    return ExperimentResult(runs, aggregates, str(runs_path), str(agg_path))
