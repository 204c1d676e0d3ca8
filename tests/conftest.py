"""Shared pytest configuration for the repro test suite."""

import sys

import pytest

# The cost-model evaluator and the L semantics are recursive interpreters;
# deep (but bounded) workloads need more Python stack than the default.
sys.setrecursionlimit(200_000)


class _Counts:
    """Reads telemetry registry counters over a window of the test."""

    def __init__(self):
        from repro.telemetry import REGISTRY

        self.registry = REGISTRY
        self.reset()

    def reset(self):
        """Start a fresh window (zeroes the process-wide registry)."""
        self.registry.reset()

    def __call__(self, name):
        return self.registry.counters_with_prefix(name).get(name, 0)


@pytest.fixture
def counts():
    """``counts("cache.unit.hits")``: a counter's value since the test
    started or since the last ``counts.reset()``."""
    return _Counts()


@pytest.fixture
def fan_out(monkeypatch):
    """Send every ``jobs > 1`` batch to the worker pool: the serial cutoff
    (``batch._effective_jobs``) is patched to use every requested worker."""
    import repro.driver.batch as batch

    monkeypatch.setattr(batch, "_effective_jobs", lambda jobs, *_: jobs)


@pytest.fixture
def prelude_env():
    from repro.surface.prelude import prelude_env as make_env
    return make_env()


@pytest.fixture
def class_setup():
    """A (class_env, env) pair with Num/Eq and their instances registered."""
    from repro.classes import standard_class_env
    from repro.infer import Inferencer
    from repro.surface.prelude import prelude_env as make_env

    inferencer = Inferencer()
    env = make_env()
    class_env = standard_class_env(levity_polymorphic=True,
                                   inferencer=inferencer, env=env)
    env = env.bind_many(class_env.all_method_schemes())
    return class_env, env
