"""Command-line interface.

Subcommands: prep, demo, synth, train, dpsgd, eval, bound, approx, pipeline.
All file formats are CSV (data, result tables) or JSON (schemas, configs,
models, reports).  A refused input (a `ValueError`) or a file that cannot be
read or written (an `OSError`) prints one line,
`margsyn <command>: error: <message>`, on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .dataset import (Dataset, Schema, _write_json, load_csv, load_raw_csv, preprocess,
                      rules_from_dict, write_csv)
from .demo import make_demo_dataset
from .evaluate import accuracy, empirical_risk, roc_auc_model
from .experiment import ExperimentConfig, run_experiment
from .learn import (DpSgdConfig, LossSpec, TrainConfig, dp_sgd, load_model,
                    save_model, train_projected)
from .marginals import MarginalOperator, compute_marginal, enumerate_queries, save_marginals
from .polyapprox import Interval, approx_report, bernstein, iterated_bernstein, remez_minimax
from .privacy import PrivacyParams
from .synth import generate_synthetic


def _cmd_prep(args) -> int:
    raw = load_raw_csv(args.raw)
    with open(args.rules) as fh:
        doc = json.load(fh)
    rules = rules_from_dict(doc.get("preprocess", doc))
    ds = preprocess(raw, rules)
    write_csv(ds, args.out)
    if args.schema_out:
        ds.schema.to_file(args.schema_out)
    print(f"coded {ds.n} rows ({len(raw.cells) - ds.n} dropped) into {args.out}")
    return 0


def _cmd_demo(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = make_demo_dataset(m=args.m, n=args.n, seed=args.seed)
    write_csv(ds, out / "demo.csv")
    ds.schema.to_file(out / "schema.json")
    print(f"wrote {ds.n} rows to {out / 'demo.csv'} and the schema to {out / 'schema.json'}")
    return 0


def _load(args) -> tuple[Schema, Dataset]:
    """The schema and the coded CSV named by --schema and --data."""
    schema = Schema.from_file(args.schema)
    return schema, load_csv(args.data, schema)


def _cmd_synth(args) -> int:
    schema, ds = _load(args)
    privacy = PrivacyParams(args.epsilon, args.delta, lam=args.lam)
    ds_syn, report = generate_synthetic(ds, args.order, privacy, mode=args.mode, seed=args.seed)
    write_csv(ds_syn, args.out)
    if args.report:
        _write_json(dataclasses.asdict(report), args.report)
    if args.marginals_out:
        # counted one query at a time: forward would build the queries x cells bin table
        op = MarginalOperator(schema, enumerate_queries(schema.num_features, args.order))
        vector = np.concatenate([compute_marginal(ds_syn, q) for q in op.queries])
        save_marginals(op, vector, args.marginals_out + ".csv", args.marginals_out + ".json")
    print(f"wrote {ds_syn.n} synthetic rows to {args.out} (sigma={report.sigma:.6g})")
    return 0


def _cmd_train(args) -> int:
    schema, ds = _load(args)
    loss = LossSpec.from_dict({"kind": args.loss, "gamma": args.gamma})
    cfg = TrainConfig(max_iters=args.max_iters, tolerance=args.tolerance)
    model = train_projected(ds, loss, args.tau, cfg)
    save_model(model, schema, args.out)
    print(f"trained on {ds.n} rows; ||w||={np.linalg.norm(model.w):.6g}, "
          f"risk={empirical_risk(model, ds):.6g}")
    return 0


def _cmd_dpsgd(args) -> int:
    schema, ds = _load(args)
    loss = LossSpec.from_dict({"kind": args.loss, "gamma": args.gamma})
    cfg = DpSgdConfig(iterations=args.iterations, batch_size=args.batch_size,
                      learning_rate=args.learning_rate, clip_norm=args.clip_norm,
                      lipschitz_L=args.lipschitz, epsilon=args.epsilon, delta=args.delta)
    model = dp_sgd(ds, loss, cfg, np.random.default_rng(args.seed))
    save_model(model, schema, args.out)
    print(f"noisy-gradient training done; risk={empirical_risk(model, ds):.6g}")
    return 0


def _cmd_eval(args) -> int:
    schema, ds = _load(args)
    model, schema_hash = load_model(args.model)
    if schema_hash != schema.digest():
        print("warning: model schema hash does not match the evaluation schema", file=sys.stderr)
    doc = {
        "accuracy": accuracy(model, ds),
        "roc_auc": roc_auc_model(model, ds),
        "empirical_risk": empirical_risk(model, ds),
    }
    if args.baseline_model:
        baseline, _ = load_model(args.baseline_model)
        doc["excess_empirical_risk"] = doc["empirical_risk"] - empirical_risk(baseline, ds)
    if args.out:
        _write_json(doc, args.out)
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_bound(args) -> int:
    with open(args.params) as fh:
        params = json.load(fh)
    family = params.pop("family", "lipschitz")
    mode = params.pop("mode", "explicit")
    if family == "schedule":
        doc = dataclasses.asdict(bounds_mod.hard_instance_schedule(int(params["m"])))
    else:
        unknown = sorted(set(params) - {f.name for f in dataclasses.fields(bounds_mod.BoundInputs)})
        if unknown:
            raise bounds_mod.BoundError(f"unknown bound inputs: {unknown}")
        inputs = bounds_mod.BoundInputs(**params)
        if family in ("lipschitz", "logistic"):
            report = bounds_mod.excess_risk_bound(inputs, family, mode)
        elif family in ("private-lipschitz", "private-logistic"):
            report = bounds_mod.private_excess_risk_bound(inputs, family.split("-")[1], mode)
        else:
            raise bounds_mod.BoundError(f"unknown bound family {family!r}")
        doc = dataclasses.asdict(report)
    if args.out:
        _write_json(doc, args.out)
    print(json.dumps(doc, indent=2))
    return 0


_APPROX_FUNCTIONS = {
    "logistic-loss": LossSpec.logistic().value,
    "abs": np.abs,
    "exp": np.exp,
}


def _cmd_approx(args) -> int:
    f = _APPROX_FUNCTIONS[args.function]
    iv = Interval(args.a, args.b)
    rows = []
    polys = [("bernstein", bernstein(f, args.degree, iv))]
    for k in args.iters:
        polys.append((f"iterated:{k}", iterated_bernstein(f, args.degree, k, iv)))
    polys.append(("minimax", remez_minimax(f, args.degree, iv)))
    for method, poly in polys:
        rep = approx_report(poly, f)
        rows.append([method, args.degree, iv.a, iv.b, rep.max_abs_error, rep.coeff_abs_sum,
                     *[repr(c) for c in poly.coeffs]])
    header = ["method", "degree", "a", "b", "max_abs_error", "coeff_abs_sum",
              *[f"c{k}" for k in range(args.degree + 1)]]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_pipeline(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.out_dir:
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
    result = run_experiment(cfg)
    print(f"wrote {result.runs_path} and {result.aggregates_path}; "
          f"{sum(r['status'] == 'ok' for r in result.runs)}/{len(result.runs)} cells completed")
    return 0 if result.all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="margsyn",
                                     description="DP synthetic data toolkit that preserves marginals")
    sub = parser.add_subparsers(dest="command", required=True)
    coded = argparse.ArgumentParser(add_help=False)
    coded.add_argument("--data", required=True)
    coded.add_argument("--schema", required=True)
    losses = argparse.ArgumentParser(add_help=False)
    losses.add_argument("--loss", choices=["logistic", "gamma_margin"], default="logistic")
    losses.add_argument("--gamma", type=float, default=0.5)

    p = sub.add_parser("prep", help="clean and integer-code a raw CSV")
    p.add_argument("--raw", required=True)
    p.add_argument("--rules", required=True,
                   help="JSON with a `preprocess` section (or a bare {column: rule} map)")
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out", default=None, help="write the derived schema here")
    p.set_defaults(func=_cmd_prep)

    p = sub.add_parser("demo", help="write a binary-feature demo dataset with a planted linear signal")
    p.add_argument("--out-dir", default="demo_data",
                   help="directory for demo.csv and schema.json")
    p.add_argument("-m", type=int, default=4, help="number of binary features")
    p.add_argument("-n", type=int, default=2000, help="number of rows")
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("synth", parents=[coded], help="generate a DP synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--lambda", dest="lam", type=float, default=3.0)
    p.add_argument("--order", "-d", type=int, default=2, help="max marginal order d")
    p.add_argument("--mode", choices=["brute", "fitted"], default="fitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write the provenance report JSON here")
    p.add_argument("--marginals-out", default=None,
                   help="prefix for dumping the synthetic marginals (.csv/.json)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", parents=[coded, losses], help="norm-constrained training")
    p.add_argument("--out", required=True)
    p.add_argument("--tau", type=float, default=math.inf, help="norm budget; 'inf' for unconstrained")
    p.add_argument("--max-iters", type=int, default=TrainConfig.max_iters)
    p.add_argument("--tolerance", type=float, default=TrainConfig.tolerance)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("dpsgd", parents=[coded, losses], help="noisy-gradient baseline training")
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", "-T", type=int, default=300)
    p.add_argument("--batch-size", "-B", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=1.0)
    p.add_argument("--clip-norm", type=float, default=1.0, help="'inf' disables clipping")
    p.add_argument("--lipschitz", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_dpsgd)

    p = sub.add_parser("eval", parents=[coded], help="evaluate a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--baseline-model", default=None,
                   help="also report the risk gap against this model")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bound", help="evaluate an excess-risk bound from a parameter file")
    p.add_argument("--params", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("approx", help="polynomial approximation table (CSV)")
    p.add_argument("--function", choices=sorted(_APPROX_FUNCTIONS), default="logistic-loss")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--a", type=float, default=-5.0)
    p.add_argument("--b", type=float, default=5.0)
    p.add_argument("--iters", type=lambda s: [int(v) for v in s.split(",")], default=[1, 4, 9])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("pipeline", help="run a privacy-budget sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ValueError is the base of every refusal the package raises; OSError is a
    # file that cannot be read or written, such as a missing --data or --config
    except (ValueError, OSError) as exc:
        print(f"margsyn {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
