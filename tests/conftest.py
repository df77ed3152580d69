"""Shared test fixtures and SPMD helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.sim.engine import Engine

#: The configuration property tests (tests/test_config_property.py) run a
#: small derandomized budget in tier-1; nightly runs them under this
#: profile with ``--hypothesis-profile config-nightly``.
settings.register_profile("config-nightly", max_examples=2000,
                          derandomize=False, deadline=None,
                          print_blob=True)


def run_spmd(nranks: int, fn, mode: str = "real", seed: int = 0, **engine_kwargs):
    """Run ``fn(ctx)`` on ``nranks`` simulated ranks; return per-rank results."""
    engine = Engine(nranks=nranks, mode=mode, seed=seed, **engine_kwargs)
    return engine.run(fn)


def run_spmd_engine(nranks: int, fn, mode: str = "real", seed: int = 0,
                    **engine_kwargs):
    """Like :func:`run_spmd` but also returns the engine (for trace access)."""
    engine = Engine(nranks=nranks, mode=mode, seed=seed, **engine_kwargs)
    results = engine.run(fn)
    return engine, results


@pytest.fixture
def rng():
    """A test-local numpy Generator with a fixed seed."""
    return np.random.default_rng(1234)


@pytest.fixture
def ctx1():
    """A single-rank real-mode RankContext (for local-layer tests)."""
    engine = Engine(nranks=1)
    holder = {}

    def grab(ctx):
        holder["ctx"] = ctx
        return None

    engine.run(grab)
    return holder["ctx"]
