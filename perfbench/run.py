"""margsyn pipeline benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {fitted-d3,brute,sweep} --seed N \
        --seconds S --trace {0,1}

Each run starts a measured run and SETUP_BEFORE + SETUP_AFTER set-up-only
samples, each in a fresh interpreter (perfbench/worker.py) with BLAS and OpenMP pinned
to one thread, so that set-up time and peak memory belong to this workload
alone.  With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  The lines before it print every metric with its unit
and the machine the numbers came from.

The metric names and units come from BENCHMARK.json at the checkout root.
This file needs only the standard library: it must start and fail cleanly
where the program's sources are absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fitted-d3", "brute", "sweep")
SETUP_BEFORE, SETUP_AFTER = 3, 2
DEADLINE_S = 170.0


def _worker(args, work_dir: Path, result: Path, setup_only: bool, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", str(Path.cwd() / ".perfbench_run" / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    # worker output goes to stderr so that stdout ends with the result line
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    with open(result) as fh:
        return json.load(fh)


def _setup_sample(args, run_dir: Path, i: int, env: dict, deadline: float) -> float:
    t0 = time.monotonic()
    res = _worker(args, run_dir / f"setup{i}", run_dir / f"setup{i}.json", True, env, deadline)
    return res["setup_end"] - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="margsyn pipeline benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "margsyn" / "__init__.py").is_file():
        print(f"perfbench: no margsyn sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    run_dir = root / ".perfbench_run" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        # set-up samples before and after the measured run, so that they see
        # more than one phase of the machine's speed
        samples = [_setup_sample(args, run_dir, i, env, deadline) for i in range(SETUP_BEFORE)]
        t0 = time.monotonic()
        res = _worker(args, run_dir / "run", run_dir / "run.json", False, env, deadline)
        samples.append(res["setup_end"] - t0)
        samples += [_setup_sample(args, run_dir, i, env, deadline)
                    for i in range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = res["metrics"]
    metrics["setup_s"] = statistics.median(samples)
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    missing = sorted(set(units) - set(metrics))
    if missing or any(not math.isfinite(v) for v in metrics.values()):
        print(f"perfbench: missing or non-finite metrics: {missing or metrics}", file=sys.stderr)
        return 1

    env_info = res["env"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"# setup samples (s): {' '.join(f'{s:.4f}' for s in samples)}; "
          f"peak_rss_mb={metrics['peak_rss_mb']:.1f}; operations attempted={res['attempted']} "
          f"failed={res['failed']}; failed_frac={res['failed'] / res['attempted']:.4f}; "
          f"program warnings={metrics['warnings']}")
    print("# op times (s): " + "; ".join(f"{key} {' '.join(f'{t:.4f}' for t in times)}"
                                       for key, times in res["op_times"].items()))
    for name in units:
        print(f"{name:45s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
