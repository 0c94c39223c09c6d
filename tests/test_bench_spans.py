"""The benchmark's span table names functions the package still has.

``perfbench/spans.py`` wraps each function in ``LAYERS`` by name when tracing
is on.  A name that no longer exists would break ``--trace 1`` only, so this
test reads the table (without installing anything) and looks each name up.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_wrapped_name_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"hrrc.{module}.{name}"
        for module, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hrrc.{module}"), name, None))
    ]
    assert spans.LAYERS and not missing
