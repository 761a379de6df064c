"""The determinism contract: parallel execution is bit-identical.

``Study.run(workers=N)`` must produce exactly the study that
``workers=0`` produces — same report text, byte-identical exported
JSON — because every measurement epoch is a pure function of
``(params, epoch index)`` regardless of which process runs it.
"""

import pytest

from repro.study import Study

pytestmark = pytest.mark.slow

SCALE = 0.05
SEEDS = (11, 20150401)


@pytest.fixture(scope="module")
def sequential_studies():
    return {seed: Study.run(scale=SCALE, seed=seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def parallel_studies():
    """Sharded runs: workers=4 for both seeds, workers=2 for one."""
    studies = {
        (seed, 4): Study.run(scale=SCALE, seed=seed, workers=4) for seed in SEEDS
    }
    studies[(SEEDS[0], 2)] = Study.run(scale=SCALE, seed=SEEDS[0], workers=2)
    return studies


def _export_bytes(study: Study, directory) -> dict[str, bytes]:
    study.save(directory)
    return {
        name: (directory / name).read_bytes()
        for name in ("summary.json", "traces.json", "traceroutes.json")
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", [2, 4])
def test_sharded_run_bit_identical(
    seed, workers, sequential_studies, parallel_studies, tmp_path
):
    if (seed, workers) not in parallel_studies:
        pytest.skip("workers=2 exercised for one seed only")
    sequential = sequential_studies[seed]
    parallel = parallel_studies[(seed, workers)]
    assert parallel.report() == sequential.report()
    assert _export_bytes(parallel, tmp_path / "par") == _export_bytes(
        sequential, tmp_path / "seq"
    )


def test_workers0_matches_default_run(sequential_studies):
    # workers=0 runs the shards inline on the study's own world, not
    # on a one-worker pool: same world, same traces.
    seed = SEEDS[0]
    sequential = sequential_studies[seed]
    explicit = Study.run(scale=SCALE, seed=seed, workers=0)
    assert explicit.traces.to_dict() == sequential.traces.to_dict()
    assert explicit.campaign.to_dict() == sequential.campaign.to_dict()


def test_in_memory_hop_fidelity(sequential_studies, parallel_studies):
    # The archival JSON drops rtt / quoted_tos / quoted_ident, so the
    # byte comparison alone would not catch a lossy wire codec; the
    # in-memory campaigns must match on every hop field too.
    seed = SEEDS[0]
    sequential = sequential_studies[seed]
    parallel = parallel_studies[(seed, 4)]
    assert len(parallel.campaign) == len(sequential.campaign)
    for seq_path, par_path in zip(sequential.campaign, parallel.campaign):
        assert par_path == seq_path
