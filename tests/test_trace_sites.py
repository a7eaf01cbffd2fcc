"""The benchmark tracer (perfbench/tracer.py) wraps margsyn functions by module
attribute and reads some of their arguments by position or keyword, and the
benchmark workloads (perfbench/worker.py) call margsyn with some keywords and
read some fields.  A renamed function, keyword or field, or a reordered
signature, would only show up as a missing site, a wrong figure or failed
operations in the benchmark report, so it is checked here.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from margsyn import learn, synth
from margsyn.privacy import PrivacyParams

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_sites() -> tuple:
    # compiled from source so that no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["SITES"]


def test_every_site_resolves_to_a_callable():
    sites = tracer_sites()
    assert sites
    for module, attr, _ in sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("fn, leading", [
    (synth.sample_dataset, ("dist", "n")),
    (synth.brute_force_synth, ("n", "nm")),
    (learn.train_projected, ("ds",)),
])
def test_positional_arguments_read_by_the_tracer(fn, leading):
    params = list(inspect.signature(fn).parameters.values())[:len(leading)]
    assert tuple(p.name for p in params) == leading
    assert all(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params)


def test_fit_iteration_cap_keyword():
    param = inspect.signature(synth.fit_distribution).parameters["iters"]
    assert param.default == 2000


def test_keywords_the_workloads_pass():
    params = inspect.signature(synth.generate_synthetic).parameters
    assert {"mode", "seed", "cap"} <= params.keys()
    assert all(params[k].kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
               for k in ("mode", "seed", "cap"))
    assert "allow_large_epsilon" in inspect.signature(PrivacyParams).parameters
    assert isinstance(synth.DEFAULT_CANDIDATE_CAP, int)


@pytest.mark.parametrize("cls, names", [
    (synth.GenReport, ("l1_to_noisy_mean", "l1_to_noisy_max", "nonprivate_normalized_l1_mean")),
    (synth.Release, ("schema",)),
    (synth.DistributionEstimate, ("objective_trace",)),
])
def test_fields_the_benchmark_reads(cls, names):
    assert set(names) <= {f.name for f in dataclasses.fields(cls)}
