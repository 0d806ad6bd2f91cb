"""Paths to the packaged fixture corpus."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def data_root() -> Path:
    return Path(str(resources.files("fanoray") / "data"))


def records_dir() -> Path:
    return data_root() / "records"


def corpus() -> list[Path]:
    """The packaged corrected records and flop configurations."""
    return sorted([*records_dir().glob("*.json"),
                   *(data_root() / "flops").glob("*.json")])
