"""One measured run of one workload, in a fresh single-threaded interpreter.

run.py starts this file once per set-up sample and once for the measured
run, from the root of the checkout, with BLAS pinned to one thread:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --work-dir DIR --result FILE [--spans FILE] [--setup-only]

The loop is closed: one caller, one operation at a time.  Every run first
runs each dataset of the workload's fixed panel once (the quality figures
come from this pass), then repeats the panel in order while the next
operation still fits in --seconds.  A traced run times dataset 0 once
without tracing, then installs the tracer and runs the panel traced; the
per-layer figures come from that traced pass.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import csv  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import margsyn  # noqa: E402
from margsyn import cli, dataset, demo, evaluate, learn, synth  # noqa: E402
from margsyn.learn import LossSpec, TrainConfig  # noqa: E402
from margsyn.privacy import PrivacyParams  # noqa: E402

import tracer as tracing  # noqa: E402

# Training settings shared by every workload; they match the sweep's
# ExperimentConfig defaults (logistic loss, 400 iterations) at tau = 0.5.
TAU = 0.5
TRAIN_ITERS = 400
# Panel instances not started by this many seconds into the run count as
# failed, so that one run stays under three minutes even when the program
# has become much slower.
PANEL_LIMIT_S = 120.0


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def _row_failures(ds, n: int, label: str) -> list[str]:
    sizes = np.asarray(ds.schema.sizes)
    if ds.codes.shape != (n, sizes.shape[0]):
        return [f"{label}: shape {ds.codes.shape}, expected ({n}, {sizes.shape[0]})"]
    if (ds.codes < 0).any() or (ds.codes >= sizes).any():
        return [f"{label}: codes outside the domain"]
    return []


def _tstr(ds_syn, test) -> tuple[float, float]:
    """Train on the synthetic data, score on held-out real data."""
    model = learn.train_projected(ds_syn, LossSpec.logistic(), TAU, TrainConfig(max_iters=TRAIN_ITERS))
    return evaluate.accuracy(model, test), evaluate.empirical_risk(model, test)


@dataclass
class Instance:
    key: str
    data: dict


@dataclass
class Outcome:
    digest: str
    quality: dict
    failures: list[str] = field(default_factory=list)


class Workload:
    """A fixed panel of instances; `call` is the timed operation, `inspect` checks it."""

    instances: list[Instance]
    trace: tracing.Tracer | None = None  # set while the traced pass runs

    def prepare(self, inst: Instance) -> None:
        """Untimed work before each operation."""

    def request(self, rid: str) -> None:
        """Stamp spans that start from now on with request id `rid`."""
        if self.trace is not None:
            self.trace.request = rid


class FittedD3(Workload):
    """Dense fit at d=3: 10 binary features + label, n=5000, eps=1, delta=1/n^2."""

    M, N, D, EPS = 10, 5000, 3, 1.0
    PANEL = 3

    def __init__(self, seed: int, work_dir: Path):
        self.instances = [
            Instance(f"fit-{k}", {
                "real": demo.make_demo_dataset(m=self.M, n=self.N, seed=_seed(seed, 1, k)),
                "test": demo.make_demo_dataset(m=self.M, n=self.N, seed=_seed(seed, 2, k)),
                "gen_seed": _seed(seed, 3, k),
            })
            for k in range(self.PANEL)
        ]

    def call(self, inst: Instance):
        privacy = PrivacyParams(self.EPS, 1.0 / self.N**2)
        ds_syn, rep = synth.generate_synthetic(inst.data["real"], self.D, privacy, mode="fitted",
                                               seed=inst.data["gen_seed"])
        return ds_syn, rep, _tstr(ds_syn, inst.data["test"])

    def inspect(self, inst: Instance, raw) -> Outcome:
        ds_syn, rep, (acc, risk) = raw
        failures = _row_failures(ds_syn, self.N, inst.key)
        return Outcome(_digest(ds_syn.codes.tobytes()), {
            "l1_noisy_mean": rep.l1_to_noisy_mean,
            "l1_real_norm_mean": rep.nonprivate_normalized_l1_mean,
            "tstr_accuracy": acc,
            "tstr_risk": risk,
        }, failures)


class Brute(Workload):
    """Min-max search: one greedy descent and one exhaustive scan per operation.

    Greedy: 6 binary features + label, n=2000, d=2, eps=2 (128 cells, 28 queries).
    Exhaustive: 4 binary features + label, n=3, d=2 (5,984 candidate multisets).
    """

    GREEDY_M, GREEDY_N, GREEDY_EPS = 6, 2000, 2.0
    EXH_M, EXH_N, EXH_EPS = 4, 3, 1.0
    D = 2
    PANEL = 20

    def __init__(self, seed: int, work_dir: Path):
        for m, n, exhaustive in ((self.GREEDY_M, self.GREEDY_N, False), (self.EXH_M, self.EXH_N, True)):
            fits = math.comb(2 ** (m + 1) + n - 1, n) <= synth.DEFAULT_CANDIDATE_CAP
            if fits != exhaustive:
                raise SystemExit(f"brute workload misconfigured: m={m}, n={n}")
        self.instances = [
            Instance(f"brute-{k}", {
                "real": demo.make_demo_dataset(m=self.GREEDY_M, n=self.GREEDY_N, seed=_seed(seed, 1, k)),
                "test": demo.make_demo_dataset(m=self.GREEDY_M, n=5000, seed=_seed(seed, 2, k)),
                "gen_seed": _seed(seed, 3, k),
                "exh_real": demo.make_demo_dataset(m=self.EXH_M, n=self.EXH_N, seed=_seed(seed, 4, k)),
                "exh_seed": _seed(seed, 5, k),
            })
            for k in range(self.PANEL)
        ]

    def call(self, inst: Instance):
        d = inst.data
        self.request(f"{inst.key}/greedy")
        greedy = PrivacyParams(self.GREEDY_EPS, 1.0 / self.GREEDY_N**2, allow_large_epsilon=True)
        ds_g, rep_g = synth.generate_synthetic(d["real"], self.D, greedy, mode="brute", seed=d["gen_seed"])
        tstr = _tstr(ds_g, d["test"])
        self.request(f"{inst.key}/exhaustive")
        exh = PrivacyParams(self.EXH_EPS, 1.0 / self.EXH_N**2)
        ds_e, rep_e = synth.generate_synthetic(d["exh_real"], self.D, exh, mode="brute", seed=d["exh_seed"])
        self.request(f"{inst.key}/forced-greedy")
        ds_f, rep_f = synth.generate_synthetic(d["exh_real"], self.D, exh, mode="brute",
                                               seed=d["exh_seed"], cap=0)
        return ds_g, rep_g, tstr, ds_e, rep_e, ds_f, rep_f

    def inspect(self, inst: Instance, raw) -> Outcome:
        ds_g, rep_g, (acc, risk), ds_e, rep_e, ds_f, rep_f = raw
        failures = (_row_failures(ds_g, self.GREEDY_N, f"{inst.key} greedy")
                    + _row_failures(ds_e, self.EXH_N, f"{inst.key} exhaustive")
                    + _row_failures(ds_f, self.EXH_N, f"{inst.key} forced greedy"))
        if not rep_e.l1_to_noisy_max <= rep_f.l1_to_noisy_max + 1e-9:
            failures.append(f"{inst.key}: exhaustive max-l1 {rep_e.l1_to_noisy_max} exceeds "
                            f"greedy {rep_f.l1_to_noisy_max} on the same instance")
        return Outcome(_digest(ds_g.codes.tobytes(), ds_e.codes.tobytes(), ds_f.codes.tobytes()), {
            "l1_noisy_mean": rep_g.l1_to_noisy_mean,
            "l1_real_norm_mean": rep_g.nonprivate_normalized_l1_mean,
            "tstr_accuracy": acc,
            "tstr_risk": risk,
        }, failures)


class Sweep(Workload):
    """`margsyn pipeline` in process: 4 binary + label, n=40000, 8 budgets x 3 repeats."""

    M, N, D, REPEATS = 4, 40000, 2, 3
    EPSILONS = [0.25 * k for k in range(1, 9)]
    PANEL = 1

    def __init__(self, seed: int, work_dir: Path):
        real = demo.make_demo_dataset(m=self.M, n=self.N, seed=_seed(seed, 1, 0))
        data_path, schema_path = work_dir / "demo.csv", work_dir / "schema.json"
        dataset.write_csv(real, data_path)
        real.schema.to_file(schema_path)
        self.out_dir = work_dir / "sweep"
        self.base_seed = _seed(seed, 3, 0)
        self.config_path = work_dir / "config.json"
        with open(self.config_path, "w") as fh:
            json.dump({"data_path": str(data_path), "schema_path": str(schema_path),
                       "out_dir": str(self.out_dir), "epsilons": self.EPSILONS,
                       "repeats": self.REPEATS, "d": self.D, "tau": TAU,
                       "loss": {"kind": "logistic"}, "mode": "fitted",
                       "base_seed": self.base_seed}, fh)
        self.instances = [Instance("sweep-0", {})]
        self.cells = len(self.EPSILONS) * self.REPEATS
        self._splits = 0

    def prepare(self, inst: Instance) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self._splits = 0

    def on_enter(self, layer: str, args, kwargs) -> None:
        """Advance the request id to the next sweep cell at each cell's split."""
        if layer != "dataset.split":
            return
        eps_index, repeat = divmod(self._splits, self.REPEATS)
        self._splits += 1
        expected = _seed(self.base_seed, repeat)
        self.request(f"cell-{eps_index}-{repeat}" if args[1].seed == expected
                     else f"cell-unknown-{self._splits - 1}")

    def call(self, inst: Instance):
        return cli.main(["pipeline", "--config", str(self.config_path)])

    def inspect(self, inst: Instance, raw) -> Outcome:
        failures = [] if raw == 0 else [f"{inst.key}: pipeline exit code {raw}"]
        runs_path = self.out_dir / "runs.csv"
        if not runs_path.is_file():
            return Outcome("", {}, failures + [f"{inst.key}: no runs.csv"])
        blob = runs_path.read_bytes()
        with open(runs_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok = [r for r in rows if r["status"] == "ok"]
        if len(rows) != self.cells or len(ok) != self.cells:
            failures.append(f"{inst.key}: {len(ok)} ok rows of {len(rows)}, expected {self.cells}")
        accs = [float(r[c]) for r in ok for c in ("accuracy_syn", "accuracy_real")]
        if any(not 0.0 <= a <= 1.0 for a in accs):
            failures.append(f"{inst.key}: accuracy outside [0, 1]")
        reports = []
        for path in sorted(glob.glob(str(self.out_dir / "reports" / "*.json"))):
            with open(path) as fh:
                reports.append(json.load(fh))
        if not ok or len(reports) != len(ok):
            return Outcome(_digest(blob), {}, failures + [f"{inst.key}: {len(reports)} reports"])
        return Outcome(_digest(blob), {
            "l1_noisy_mean": statistics.fmean(r["l1_to_noisy_mean"] for r in reports),
            "l1_real_norm_mean": statistics.fmean(float(r["normalized_l1_mean"]) for r in ok),
            "tstr_accuracy": statistics.fmean(float(r["accuracy_syn"]) for r in ok),
            "tstr_risk": statistics.fmean(float(r["risk_syn_test"]) for r in ok),
        }, failures)


WORKLOADS = {"fitted-d3": FittedD3, "brute": Brute, "sweep": Sweep}
QUALITY = ("l1_noisy_mean", "l1_real_norm_mean", "tstr_accuracy", "tstr_risk")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Closed loop over a workload's panel: one operation at a time, each checked."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.start = time.perf_counter()
        self.times: dict[str, list[float]] = {i.key: [] for i in workload.instances}
        self.first: dict[str, Outcome] = {}
        self.attempted = 0
        self.failed = 0

    def op(self, inst: Instance) -> float:
        """Run one operation, check it, record and return its wall time."""
        self.workload.prepare(inst)
        self.workload.request(inst.key)
        trace = self.workload.trace
        mark = trace.mark() if trace else 0
        t0 = time.perf_counter()
        try:
            raw = self.workload.call(inst)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            outcome = Outcome("", {}, [f"{inst.key}: raised"])
        else:
            dt = time.perf_counter() - t0
            outcome = self.workload.inspect(inst, raw)
            if trace:
                outcome.failures += tracing.span_failures(trace.spans[mark:])
        ref = self.first.setdefault(inst.key, outcome)
        if outcome.digest != ref.digest:
            outcome.failures.append(f"{inst.key}: output differs from its first run")
        self._count(outcome.failures)
        self.times[inst.key].append(dt)
        return dt

    def _count(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)

    def panel(self) -> dict[str, float]:
        """Run every panel instance once; past PANEL_LIMIT_S the rest count as failed."""
        walls = {}
        for inst in self.workload.instances:
            if time.perf_counter() - self.start > PANEL_LIMIT_S:
                self._count([f"{inst.key}: not run, the panel exceeded {PANEL_LIMIT_S} s"])
                continue
            walls[inst.key] = self.op(inst)
        return walls

    def fill(self, seconds: float) -> None:
        """Repeat the panel in order while the next operation fits in `seconds`."""
        k = 0
        insts = [i for i in self.workload.instances if self.times[i.key]]
        while insts:
            inst = insts[k % len(insts)]
            if time.perf_counter() - self.start + statistics.median(self.times[inst.key]) > seconds:
                return
            self.op(inst)
            k += 1

    def end_to_end(self) -> dict:
        out = {"op_s": statistics.median(t for v in self.times.values() for t in v),
               "ok_frac": 1.0 - self.failed / self.attempted}
        for q in QUALITY:
            vals = [o.quality[q] for o in self.first.values() if q in o.quality]
            out[q] = statistics.fmean(vals) if vals else math.nan
        return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _require_no_wrappers(when: str) -> None:
    found = tracing.installed_wrappers()
    if found:
        raise SystemExit(f"tracer wrappers installed {when}: {found}")


def measure(args, workload: Workload, caught: list) -> dict:
    _require_no_wrappers("before the run")
    runner = Runner(workload)
    metrics: dict = {}
    if not args.trace:
        runner.panel()
        metrics["peak_rss_mb"] = _peak_rss_mb()  # before the repeats, whose count varies
        runner.fill(args.seconds)
        _require_no_wrappers("during the untraced run")
        metrics.update(runner.end_to_end())
    else:
        inst0 = workload.instances[0]
        untraced0 = runner.op(inst0)
        trace = tracing.Tracer()
        trace.on_enter = getattr(workload, "on_enter", None)
        workload.trace = trace
        trace.install()
        for name in trace.missing:
            print(f"trace: wrapped name missing: {name}", file=sys.stderr)
        try:
            first = trace.mark()
            walls = runner.panel()
            metrics["peak_rss_mb"] = _peak_rss_mb()
            metrics.update(tracing.layer_metrics(trace.spans, first, sum(walls.values())))
            metrics["trace.overhead_frac"] = walls.get(inst0.key, math.nan) / untraced0 - 1.0
            runner.fill(args.seconds)
        finally:
            trace.uninstall()
            workload.trace = None
        metrics["trace.missing_sites"] = len(trace.missing)
        if args.spans:
            trace.dump(args.spans)
    metrics["warnings"] = len(caught)
    return {"attempted": runner.attempted, "failed": runner.failed, "metrics": metrics,
            "op_times": runner.times}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None, help="write the traced spans here (JSON lines)")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if Path(margsyn.__file__).resolve().parents[2] != ROOT.resolve():
        raise SystemExit(f"margsyn imported from {margsyn.__file__}, not from {ROOT}/src")
    args.work_dir.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload = WORKLOADS[args.workload](args.seed, args.work_dir)
        setup_end = time.monotonic()
        result = {"setup_end": setup_end, "env": environment()}
        if not args.setup_only:
            result.update(measure(args, workload, caught))
    for w in caught:
        sys.stderr.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
