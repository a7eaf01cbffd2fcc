"""Span tracer that wraps margsyn's public functions where callers look them up.

The program itself is not modified: each entry of SITES names a module
attribute that some caller resolves at call time (a module global or a
`from x import y` binding), and the tracer swaps it for a timing wrapper.
Spans are kept in memory, written out once at the end, and self times are
derived from them afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import time

MARK = "__perfbench_layer__"

# (module, attribute, layer).  A layer is named after the module that defines
# the function; the module column is where the call is looked up.
SITES = (
    ("margsyn.cli", "run_experiment", "experiment.run_experiment"),
    ("margsyn.experiment", "load_csv", "dataset.load_csv"),
    ("margsyn.experiment", "split", "dataset.split"),
    ("margsyn.experiment", "generate_synthetic", "synth.generate_synthetic"),
    ("margsyn.experiment", "train_projected", "learn.train_projected"),
    ("margsyn.experiment", "accuracy", "evaluate.accuracy"),
    ("margsyn.experiment", "roc_auc_model", "evaluate.roc_auc_model"),
    ("margsyn.experiment", "empirical_risk", "evaluate.empirical_risk"),
    ("margsyn.synth", "generate_synthetic", "synth.generate_synthetic"),
    ("margsyn.synth", "synthesize", "synth.synthesize"),
    ("margsyn.synth", "fit_distribution", "synth.fit_distribution"),
    ("margsyn.synth", "sample_dataset", "synth.sample_dataset"),
    ("margsyn.synth", "brute_force_synth", "synth.brute_force_synth"),
    ("margsyn.synth", "compute_marginal", "marginals.compute_marginal"),
    ("margsyn.synth", "calibrate", "privacy.calibrate"),
    ("margsyn.synth", "add_noise_to_set", "privacy.add_noise_to_set"),
    ("margsyn.learn", "train_projected", "learn.train_projected"),
    ("margsyn.evaluate", "accuracy", "evaluate.accuracy"),
    ("margsyn.evaluate", "empirical_risk", "evaluate.empirical_risk"),
)

LAYERS = sorted({layer for _, _, layer in SITES})

def installed_wrappers() -> list[str]:
    """Sites whose attribute currently holds a tracer wrapper."""
    found = []
    for module, attr, _ in SITES:
        fn = getattr(importlib.import_module(module), attr, None)
        if fn is not None and hasattr(fn, MARK):
            found.append(f"{module}.{attr}")
    return found


class Span:
    __slots__ = ("layer", "start", "end", "parent", "request", "args", "kwargs", "result")

    def __init__(self, layer, parent, request):
        self.layer = layer
        self.start = self.end = math.nan
        self.parent = parent
        self.request = request
        self.args = self.kwargs = self.result = None


# Layers whose arguments or result the metrics read after the run; other
# spans drop them at once so the tracer holds no extra data.
_KEEP = {"synth.fit_distribution", "synth.sample_dataset", "synth.brute_force_synth",
         "learn.train_projected"}


class Tracer:
    """Installs wrappers on SITES and records one span per wrapped call.

    `request` is the id stamped on spans that start while it is set; the
    workload sets it per dataset, and `on_enter` may change it from inside a
    call (the sweep advances it at each cell's split).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self.on_enter = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, layer in SITES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None or not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on_enter is not None:
                tracer.on_enter(layer, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(layer, parent, tracer.request)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if layer in _KEEP:
                span.args, span.kwargs, span.result = args, kwargs, result
            return result

        setattr(wrapper, MARK, layer)
        return wrapper

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.layer, "start": s.start, "end": s.end,
                                     "parent": s.parent, "request": s.request}) + "\n")


def span_failures(spans: list[Span]) -> list[str]:
    """Checks that need a traced call's result: every fit ends no worse than it starts."""
    return [f"fit_distribution objective rose from {t[0]} to {t[-1]}"
            for t in (s.result.objective_trace for s in spans if s.layer == "synth.fit_distribution")
            if not t[-1] <= t[0]]


def layer_metrics(spans: list[Span], first: int, wall_s: float) -> dict:
    """Per-layer figures over spans[first:], recorded during operations that took wall_s seconds.

    Busy time is the summed duration of a layer's spans, self time that minus
    the time its child spans cover; both are reported as shares of wall_s.
    """
    window = spans[first:]
    dur = [s.end - s.start for s in window]
    child = [0.0] * len(window)
    root_s = 0.0
    for k, s in enumerate(window):
        if s.parent is None or s.parent < first:
            root_s += dur[k]
        else:
            child[s.parent - first] += dur[k]
    busy = {layer: 0.0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for k, s in enumerate(window):
        busy[s.layer] += dur[k]
        self_s[s.layer] += dur[k] - child[k]
        calls[s.layer] += 1

    def frac(x):
        return x / wall_s

    def of(layer):
        return [s for s in window if s.layer == layer]

    fits = of("synth.fit_distribution")
    iters = [len(s.result.objective_trace) - 1 for s in fits]
    caps = [s.kwargs.get("iters", 2000) for s in fits]  # 2000 is fit_distribution's default
    fit_busy = busy["synth.fit_distribution"]
    samples = of("synth.sample_dataset")
    sample_rows = sum(int(s.args[1]) for s in samples)
    exhaustive = of("synth.brute_force_synth")
    candidates = sum(_candidates(s) for s in exhaustive)
    trains = of("learn.train_projected")
    distinct = {_fingerprint(s.args[0]) for s in trains}

    return {
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - root_s,
        "synth.generate_synthetic.calls": calls["synth.generate_synthetic"],
        "synth.generate_synthetic.self_frac": frac(self_s["synth.generate_synthetic"]),
        "synth.synthesize.self_frac": frac(self_s["synth.synthesize"]),
        "synth.fit_distribution.busy_frac": frac(fit_busy),
        "synth.fit_distribution.iterations": sum(iters),
        "synth.fit_distribution.iters_per_s": sum(iters) / fit_busy if fit_busy else 0.0,
        "synth.fit_distribution.converged_frac": (
            sum(i < c for i, c in zip(iters, caps)) / len(fits) if fits else 0.0),
        "synth.fit_distribution.final_objective": (
            sum(s.result.objective_trace[-1] for s in fits) / len(fits) if fits else 0.0),
        "synth.sample_dataset.busy_frac": frac(busy["synth.sample_dataset"]),
        "synth.sample_dataset.rows_per_s": (
            sample_rows / busy["synth.sample_dataset"] if samples else 0.0),
        "synth.brute_force_synth.busy_frac": frac(busy["synth.brute_force_synth"]),
        "synth.brute_force_synth.candidates_per_s": (
            candidates / busy["synth.brute_force_synth"] if exhaustive else 0.0),
        "marginals.compute_marginal.calls": calls["marginals.compute_marginal"],
        "marginals.compute_marginal.busy_frac": frac(busy["marginals.compute_marginal"]),
        "privacy.calibrate.busy_frac": frac(busy["privacy.calibrate"]),
        "privacy.add_noise_to_set.busy_frac": frac(busy["privacy.add_noise_to_set"]),
        "learn.train_projected.calls": calls["learn.train_projected"],
        "learn.train_projected.busy_frac": frac(busy["learn.train_projected"]),
        "learn.train_projected.unique_input_ratio": len(distinct) / len(trains) if trains else 1.0,
        "evaluate.accuracy.busy_frac": frac(busy["evaluate.accuracy"]),
        "evaluate.roc_auc_model.busy_frac": frac(busy["evaluate.roc_auc_model"]),
        "evaluate.empirical_risk.busy_frac": frac(busy["evaluate.empirical_risk"]),
        "dataset.split.busy_frac": frac(busy["dataset.split"]),
        "dataset.load_csv.busy_frac": frac(busy["dataset.load_csv"]),
        "experiment.run_experiment.self_frac": frac(self_s["experiment.run_experiment"]),
    }


def _candidates(span: Span) -> int:
    n, nm = span.args[0], span.args[1]
    cells = math.prod(nm.schema.sizes)
    return math.comb(cells + n - 1, n)


def _fingerprint(ds) -> str:
    return hashlib.blake2b(ds.codes.tobytes() + repr(ds.schema.sizes).encode(),
                           digest_size=16).hexdigest()
