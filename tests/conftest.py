"""Fixtures shared by more than one test module."""

from __future__ import annotations

import pytest

from gen import all_ppn_formulas
from hrrc.reductions import sat_brute


@pytest.fixture(scope="session")
def unsatisfiable_ppn4():
    """The 15 unsatisfiable PPN formulas on four variables."""
    unsatisfiable = [f for f in all_ppn_formulas(4) if sat_brute(f) is None]
    assert len(unsatisfiable) == 15
    return unsatisfiable
