"""The experiment scripts run to completion on small sweeps."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_solver_oracle_agreement_script():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "solver_oracle_agreement.py"), "--samples", "200"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_reduction_sweep_script_reaches_both_verdicts():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reduction_sweep.py"), "--count", "10"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "(10 satisfiable, 15 unsatisfiable)" in proc.stdout
    assert "one-in-three-222: 331 formulas, verdicts agree (320 satisfiable, 11 unsatisfiable)" in proc.stdout
