"""The benchmark's inputs are a function of its seed.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import inputs  # noqa: E402


def _written(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    inputs.build(workload, seed, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_determines_input_files(workload, tmp_path):
    first = _written(workload, 11, tmp_path / "a")
    again = _written(workload, 11, tmp_path / "b")
    other = _written(workload, 12, tmp_path / "c")
    assert first == again
    assert first != other
