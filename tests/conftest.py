import shutil
from pathlib import Path

import pytest

from fanoray import datafiles
from fanoray.flop import parse_flop_config
from fanoray.model import parse_record


def flat_fixtures(directory: Path, *subs: str) -> Path:
    """``directory`` holding the packaged JSON of the given data folders
    (by default all 13 record fixtures and the 4 flop configurations),
    flat."""
    for sub in subs or ("records", "mistakes", "extra", "flops"):
        for path in (datafiles.data_root() / sub).glob("*.json"):
            shutil.copy(path, directory / path.name)
    return directory


@pytest.fixture(scope="session")
def data_root() -> Path:
    return datafiles.data_root()


@pytest.fixture(scope="session")
def records(data_root):
    """Corrected corpus, strict-loaded (must be invariant-clean)."""
    out = {}
    for path in sorted((data_root / "records").glob("*.json")):
        out[path.stem] = parse_record(path.read_text())
    return out


@pytest.fixture(scope="session")
def mistakes(data_root):
    """Mistake fixtures, collect-loaded: (record, findings) pairs."""
    out = {}
    for path in sorted((data_root / "mistakes").glob("*.json")):
        out[path.stem] = parse_record(path.read_text(), strict=False)
    return out


@pytest.fixture(scope="session")
def flop_configs(data_root):
    out = {}
    for path in sorted((data_root / "flops").glob("*.json")):
        out[path.stem] = parse_flop_config(path.read_text())
    return out


@pytest.fixture(scope="session")
def record_paths(data_root):
    return {p.stem: p for p in sorted((data_root / "records").glob("*.json"))}
