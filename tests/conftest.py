import pytest

from skimflow.events import analysis_schema
from skimflow.generator import GeneratorSpec, generate_corpus, generate_evt


@pytest.fixture(scope="session")
def schema():
    return analysis_schema()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """2,000 signed-weight mc events split over 2 files, small blocks so
    partition planning has something to chew on. Each file stores about
    261 kB in 8 blocks; `target_for_runs[n]` is a partition target that
    splits each into n runs."""
    root = tmp_path_factory.mktemp("small_corpus")
    spec = GeneratorSpec(seed=42, n_events=2000, kind="mc", weight_dist="signed")
    paths = generate_corpus(spec, root, 2, block_target=128)
    return {"dir": root, "paths": paths, "spec": spec, "glob": str(root / "*.evt"),
            "target_for_runs": {2: 150_000, 3: 100_000, 4: 75_000}}


@pytest.fixture(scope="session")
def single_file(tmp_path_factory):
    """One 10,000-event mc file with unit weights and small blocks."""
    root = tmp_path_factory.mktemp("single_file")
    spec = GeneratorSpec(seed=42, n_events=10000, kind="mc")
    path = root / "events.evt"
    generate_evt(spec, path, block_target=256)
    return {"path": path, "spec": spec}
