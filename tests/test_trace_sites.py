"""The benchmark tracer (perfbench/tracer.py) wraps margsyn functions by module
attribute and reads some of their arguments by position or keyword.  A renamed
function or a reordered signature would only show up as a missing site or a
wrong figure in the benchmark report, so it is checked here.
"""

import importlib
import inspect
from pathlib import Path

import pytest

from margsyn import learn, synth

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
