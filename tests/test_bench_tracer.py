"""The per-layer tracer of bench/ finds every library name it rebinds.

bench/tracer.py rebinds public functions where their callers look them up,
reading each one from its owner's __dict__; a refactor that moves or drops
such a name breaks the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from gammasub import mcmc, paths

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, _ in tracer._REBIND],
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in tracer._REBIND])
def test_rebound_name_resolves(owner, attr):
    assert callable(owner.__dict__.get(attr))


@pytest.mark.parametrize("name", tracer._PATH_FUNCS)
def test_path_function_resolves(name):
    assert callable(paths.__dict__.get(name))


def test_init_chain_resolves():
    assert callable(mcmc.__dict__.get("init_chain"))
