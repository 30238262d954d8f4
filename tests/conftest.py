import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles and helpers importable

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return REPO / "fixtures"


@pytest.fixture(scope="session")
def configs_dir() -> Path:
    return REPO / "src" / "tpmcert" / "configs"


@pytest.fixture(scope="session")
def obs_fixture(fixtures_dir) -> Path:
    return fixtures_dir / "memory_observational.csv"


@pytest.fixture(scope="session")
def do_fixture(fixtures_dir) -> Path:
    return fixtures_dir / "memory_interventional.csv"


@pytest.fixture(scope="session")
def ideal_memory_behavior():
    from tpmcert import proclib, process

    from helpers import memory_instrument, memory_process

    final = proclib.component("final_measurement", "xz_diagonal")
    return process.born_rule(memory_process(), memory_instrument(), final)
