"""Shared fixtures for the benchmark harness.

Each ``test_*`` module regenerates one of the paper's tables or
figures.  The measured world and the completed study are built once
per session (they are inputs to several artefacts); each benchmark
then times the part specific to its artefact — the probe campaign or
analysis that produces it — and asserts the paper's *shape* on the
result (who wins, by roughly what factor; see EXPERIMENTS.md).

Scale: benchmarks run at 6 % of the paper's population (150 servers,
~26 traces) so the suite completes in a couple of minutes on a laptop while
preserving every calibrated rate.  Set ``ECNUDP_BENCH_SCALE`` to
override.
"""

from __future__ import annotations

import os

import pytest

from repro.core.measurement import MeasurementApplication
from repro.scenario.internet import SyntheticInternet
from repro.scenario.parameters import scaled_params
from repro.study import Study

BENCH_SCALE = float(os.environ.get("ECNUDP_BENCH_SCALE", "0.06"))
BENCH_SEED = 20150401


@pytest.fixture(scope="session")
def bench_world() -> SyntheticInternet:
    """The calibrated synthetic Internet used by all benchmarks."""
    return SyntheticInternet(scaled_params(BENCH_SCALE, seed=BENCH_SEED))


@pytest.fixture(scope="session")
def bench_app(bench_world) -> MeasurementApplication:
    return MeasurementApplication(bench_world)


@pytest.fixture(scope="session")
def bench_run(bench_world) -> Study:
    """The full trace schedule and traceroute campaign, run once."""
    return Study.run(
        scale=BENCH_SCALE, seed=BENCH_SEED, world=bench_world, discover=False
    )


@pytest.fixture(scope="session")
def bench_study(bench_run):
    """The full trace schedule, shared."""
    return bench_run.traces


@pytest.fixture(scope="session")
def bench_campaign(bench_run):
    """The full traceroute campaign, shared."""
    return bench_run.campaign
